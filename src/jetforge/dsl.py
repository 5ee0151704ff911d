"""Line-oriented input DSL: ring, grading, ideals, module, morphism.

Example document::

    ring Q[x,y]
    grade x = 1
    grade y = 1
    ideal f = y^2 - x^3
    module rank 2
    relation x*e1 + y*e2
    morphism [u] : x -> u^2, y -> u^3

Only base variables appear in input; jet orders exist only in output.
A parsed document round-trips through the canonical printer.
"""

import re
from dataclasses import dataclass

from .errors import InhomogeneousRelation, ParseError, UndeclaredVariable
from .jets import AlgebraMorphism, AlgebraPresentation
from .hsmodules import ModulePresentation, linear_form, module_symbols
from .poly import JetVar, Monomial, Poly, _poly
from .scalars import QQ, field_by_name


@dataclass
class InputDocument:
    field: object
    algebra: AlgebraPresentation
    ideal_names: list
    module: ModulePresentation | None = None
    morphism: AlgebraMorphism | None = None


# Each nesting level costs the recursive-descent parser four stack frames.
MAX_PAREN_DEPTH = 100
# Jet components of x^e take e! and enumerate splits of e; no input needs more.
MAX_EXPONENT = 1000
# int() refuses longer digit strings (sys.get_int_max_str_digits()).
MAX_LITERAL_DIGITS = 4300
_TOO_LONG = "literal longer than %d digits" % MAX_LITERAL_DIGITS

_TOKEN = re.compile(r"\s*(?:(?P<arrow>->)|(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))")
_NAME_LIST = re.compile(r"[^,]+")
_RING = re.compile(r"(?:([A-Za-z][A-Za-z0-9]*)\s*)?\[\s*([A-Za-z0-9_,\s]*)\]")
_GRADE = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*(\d+)")
_IDEAL = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*")
_MODULE = re.compile(r"rank\s+(\d+)")
_MORPHISM = re.compile(r"\[\s*([A-Za-z0-9_,\s]*)\]\s*:\s*(.*)")
_IMAGE = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)\s*->\s*")


def _tokenize(text, line_no, col_offset):
    """Tokens (kind, text, line, column) and an "end" token just past them."""
    tokens = []
    end = 0
    for m in _TOKEN.finditer(text):
        kind, end = m.lastgroup, m.end()
        col = col_offset + m.start(kind) + 1
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group(kind), line_no, col)
        tokens.append((kind, m.group(kind), line_no, col))
    tokens.append(("end", "", line_no, col_offset + end + 1))
    return tokens


def _natural(tok, most_digits, message):
    """The value of a numeric token; its length is compared before int()."""
    digits = tok[1].lstrip("0") or "0"
    if len(digits) > most_digits:
        raise ParseError(message, tok[2], tok[3])
    return int(digits)


class _ExprParser:
    """Recursive-descent parser for polynomial expressions.  A term is one
    field scalar times one {JetVar: exponent} map; only parenthesized
    factors become Polys.  An expression adds its terms into one dict."""

    def __init__(self, tokens, variables, field):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current position
        self.variables = variables  # name -> JetVar
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of expression", tok[2], tok[3])
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2], tok[3])
        return p

    def expr(self):
        terms = {}
        sign = self.take()[1] if self.peek()[1] in ("+", "-") else "+"
        while True:
            self.term(terms, -1 if sign == "-" else 1)
            if self.peek()[1] not in ("+", "-"):
                return _poly(self.field, terms)
            sign = self.take()[1]

    def term(self, terms, sign):
        """Parse one term and add sign times it into terms."""
        c = self.field(sign)
        exps = {}
        group = None  # the product of the parenthesized factors
        while True:
            a = self.atom()
            e = self.exponent()
            if isinstance(a, JetVar):
                exps[a] = exps.get(a, 0) + e
            elif isinstance(a, Poly):
                group = a**e if group is None else group * a**e
            else:
                c = c * (a if e == 1 else a**e)
            tok = self.peek()
            if tok[1] == "*":
                self.take()
            elif tok[0] not in ("num", "name") and tok[1] != "(":
                break
        m = Monomial(exps)
        items = ((m, c),) if group is None else (group * _poly(self.field, {m: c})).terms.items()
        for key, t in items:
            s = terms.get(key)
            s = t if s is None else s + t
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)

    def exponent(self):
        if self.peek()[1] != "^":
            return 1
        self.take()
        etok = self.take()
        if etok[0] != "num":
            raise ParseError("exponent must be a natural number", etok[2], etok[3])
        message = "exponent larger than %d" % MAX_EXPONENT
        e = _natural(etok, len(str(MAX_EXPONENT)), message)
        if e > MAX_EXPONENT:
            raise ParseError(message, etok[2], etok[3])
        return e

    def atom(self):
        """A field scalar, a JetVar or a parenthesized Poly."""
        tok = self.take()
        if tok[0] == "num":
            num = _natural(tok, MAX_LITERAL_DIGITS, _TOO_LONG)
            if self.peek()[1] != "/":
                return self.field.coerce(num)
            self.take()
            dtok = self.take()
            if dtok[0] != "num":
                raise ParseError("denominator must be a natural number", dtok[2], dtok[3])
            den = _natural(dtok, MAX_LITERAL_DIGITS, _TOO_LONG)
            if not self.field(den):
                raise ParseError("denominator %s is zero in %s" % (dtok[1], self.field.name),
                                 dtok[2], dtok[3])
            return self.field.from_ratio(num, den)
        if tok[0] == "name":
            v = self.variables.get(tok[1])
            if v is None:
                raise UndeclaredVariable("undeclared variable %r" % tok[1], tok[2], tok[3])
            return v
        if tok[1] == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested deeper than %d" % MAX_PAREN_DEPTH,
                                 tok[2], tok[3])
            self.depth += 1
            p = self.expr()
            close = self.take()
            if close[1] != ")":
                raise ParseError("expected ')'", close[2], close[3])
            self.depth -= 1
            return p
        raise ParseError("unexpected token %r" % tok[1], tok[2], tok[3])


def _parse_poly(text, variables, field, line_no, col_offset):
    """Parse an expression that starts at column col_offset + 1 of its line."""
    return _ExprParser(_tokenize(text, line_no, col_offset), variables, field).parse()


def parse_document(text, default_field=None):
    """Parse a DSL document into presentations; diagnostics carry line/col."""
    field = default_field or QQ
    ring_names = None
    grading = {}
    grade_at = {}  # name -> (line, column) of its last grade declaration
    ideals = []
    ideal_names = []
    module_rank = None
    module_rows_src = []
    morphism_src = None

    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        at = raw.index(rest, raw.index(head) + len(head))  # 0-based column of rest
        if head == "ring":
            m = _RING.fullmatch(rest)
            if not m:
                raise ParseError("malformed ring declaration", ln, 1)
            if m.group(1):
                if len(m.group(1)) > MAX_LITERAL_DIGITS:
                    raise ParseError("field name longer than %d characters" % MAX_LITERAL_DIGITS,
                                     ln, at + m.start(1) + 1)
                try:
                    field = field_by_name(m.group(1))
                except ValueError as e:
                    raise ParseError(str(e), ln, 1)
            ring_names = _name_list(m.group(2), "ring variable", ln, at + m.start(2))
        elif head == "grade":
            m = _GRADE.fullmatch(rest)
            if not m:
                raise ParseError("malformed grade declaration", ln, 1)
            grading[m.group(1)] = _natural(("num", m.group(2), ln, at + m.start(2) + 1),
                                           MAX_LITERAL_DIGITS, _TOO_LONG)
            grade_at[m.group(1)] = (ln, at + 1)
        elif head == "ideal":
            m = _IDEAL.match(rest)
            if not m:
                raise ParseError("malformed ideal declaration", ln, 1)
            ideal_names.append(m.group(1))
            ideals.append((ln, at + m.end(), rest[m.end():]))
        elif head == "module":
            m = _MODULE.fullmatch(rest)
            if not m:
                raise ParseError("malformed module declaration", ln, 1)
            module_at = (ln, at + m.start(1) + 1)
            module_rank = _natural(("num", m.group(1)) + module_at, MAX_LITERAL_DIGITS, _TOO_LONG)
        elif head == "relation":
            if module_rank is None:
                raise ParseError("relation before module declaration", ln, 1)
            module_rows_src.append((ln, at, rest))
        elif head == "morphism":
            m = _MORPHISM.fullmatch(rest)
            if not m:
                raise ParseError("malformed morphism declaration", ln, 1)
            morphism_src = (ln, _name_list(m.group(1), "target variable", ln, at + m.start(1)),
                            at + m.start(2), m.group(2))
        else:
            raise ParseError("unknown declaration %r" % head, ln, 1)

    if ring_names is None:
        raise ParseError("missing ring declaration", len(lines) or 1, 1)
    for x in grading:
        if x not in ring_names:
            raise ParseError("grade for undeclared variable %r" % x, *grade_at[x])

    base = {x: JetVar(x, i, 0) for i, x in enumerate(ring_names)}
    relations = []
    full_grading = ({x: grading.get(x, 0) for x in ring_names} if grading else None)
    for ln, at, src in ideals:
        p = _parse_poly(src, base, field, ln, at)
        if full_grading is not None and not p.is_zero():
            degs = {m.weighted_degree(lambda v: full_grading[v.name]) for m in p.terms}
            if len(degs) != 1:
                raise InhomogeneousRelation(
                    "line %d: relation is not homogeneous for the declared grading" % ln)
        relations.append(p)
    algebra = AlgebraPresentation(list(ring_names), relations, full_grading, field)

    module = None
    if module_rank is not None:
        symbols = module_symbols(len(ring_names), module_rank, 0)
        for e in symbols:
            if e.name in base:
                raise ParseError("module symbol %r is also a ring variable" % e.name, *module_at)
        scope = dict(base)
        scope.update((e.name, e) for e in symbols)
        rows = []
        for ln, at, src in module_rows_src:
            row = linear_form(_parse_poly(src, scope, field, ln, at), symbols)
            if row is None:
                raise ParseError("module relation must be linear in e1..e%d"
                                 % module_rank, ln, at + 1)
            rows.append(row)
        module = ModulePresentation(algebra, module_rank, rows)

    morphism = None
    if morphism_src is not None:
        ln, tgt_names, at, body = morphism_src
        tgt = AlgebraPresentation(tgt_names, [], None, field)
        tvars = {x: JetVar(x, i, 0) for i, x in enumerate(tgt_names)}
        images = {}
        for piece in _split_commas_toplevel(body):
            m = _IMAGE.match(piece)
            piece_at, at = at, at + len(piece) + 1  # pieces are separated by one comma
            if not m:
                raise ParseError("malformed morphism image", ln, 1)
            name = m.group(1)
            if name not in base:
                raise UndeclaredVariable("undeclared variable %r" % name, ln, 1)
            if base[name] in images:
                raise ParseError("duplicate image for %r" % name, ln, piece_at + m.start(1) + 1)
            images[base[name]] = _parse_poly(piece[m.end():], tvars, field, ln,
                                             piece_at + m.end())
        for v in base.values():
            if v not in images:
                raise ParseError("morphism misses image for %r" % v.name, ln, 1)
        morphism = AlgebraMorphism(algebra, tgt, images)

    return InputDocument(field, algebra, ideal_names, module, morphism)


def _name_list(text, kind, line_no, col_offset):
    """The names of a ring or morphism target list at column col_offset + 1."""
    names = []
    for piece in _NAME_LIST.finditer(text):
        x = piece.group().strip()
        if x in names:
            lead = len(piece.group()) - len(piece.group().lstrip())
            raise ParseError("duplicate %s %r" % (kind, x), line_no,
                             col_offset + piece.start() + lead + 1)
        if x:
            names.append(x)
    return names


def _split_commas_toplevel(text):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def print_document(algebra, ideal_names=None, module=None, morphism=None):
    """Canonical printer; parse(print(doc)) yields an identical document."""
    field_name = getattr(algebra.field, "name", "Q")
    lines = ["ring %s[%s]" % (field_name, ",".join(algebra.vars))]
    if algebra.grading is not None:
        for x in algebra.vars:
            lines.append("grade %s = %d" % (x, algebra.grading[x]))
    for k, f in enumerate(algebra.relations):
        name = ideal_names[k] if ideal_names else "f%d" % k
        lines.append("ideal %s = %s" % (name, f.render(base_plain=True)))
    if module is not None:
        lines.append("module rank %d" % module.rank)
        symbols = module_symbols(len(algebra.vars), module.rank, 0)
        for row in module.relation_matrix:
            terms = ["(%s)*%s" % (p.render(base_plain=True), e.name)
                     for p, e in zip(row, symbols) if not p.is_zero()]
            lines.append("relation %s" % (" + ".join(terms) if terms else "0*e1"))
    if morphism is not None:
        images = ", ".join(
            "%s -> %s" % (v.name, morphism.images[v].render(base_plain=True))
            for v in morphism.source.base_vars())
        lines.append("morphism [%s] : %s" % (",".join(morphism.target.vars), images))
    return "\n".join(lines) + "\n"


def document_text(doc):
    return print_document(doc.algebra, doc.ideal_names, doc.module, doc.morphism)
