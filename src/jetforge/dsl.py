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
from .poly import JetVar, Poly
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

_TOKEN = re.compile(r"(?:(?P<arrow>->)|(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),]))")


def _tokenize(text, line_no, col_offset):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos],
                             line_no, col_offset + pos + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), line_no, col_offset + pos + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser for polynomial expressions."""

    def __init__(self, tokens, variables, field, line_no, end_col):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current position
        self.variables = variables  # name -> JetVar
        self.field = field
        self.line_no = line_no
        self.end_col = end_col  # the column just past the last token

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line_no, self.end_col)
        self.pos += 1
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError("trailing input %r" % tok[1], tok[2], tok[3])

    def parse(self):
        p = self.expr()
        self.expect_end()
        return p

    def expr(self):
        sign = 1
        tok = self.peek()
        if tok and tok[1] in ("+", "-"):
            self.take()
            sign = -1 if tok[1] == "-" else 1
        p = self.term() * sign
        while True:
            tok = self.peek()
            if tok is None or tok[1] not in ("+", "-"):
                return p
            self.take()
            q = self.term()
            p = p + q if tok[1] == "+" else p - q

    def term(self):
        p = self.factor()
        while True:
            tok = self.peek()
            if tok is None:
                return p
            if tok[1] == "*":
                self.take()
                p = p * self.factor()
            elif tok[0] in ("num", "name") or tok[1] == "(":
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.atom()
        tok = self.peek()
        if tok and tok[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "num":
                raise ParseError("exponent must be a natural number", etok[2], etok[3])
            # compare lengths first: int() refuses very long digit strings
            digits = etok[1].lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError("exponent larger than %d" % MAX_EXPONENT, etok[2], etok[3])
            p = p**int(digits)
        return p

    def atom(self):
        tok = self.take()
        if tok[0] == "num":
            num = int(tok[1])
            nxt = self.peek()
            if nxt and nxt[1] == "/":
                self.take()
                dtok = self.take()
                if dtok[0] != "num":
                    raise ParseError("denominator must be a natural number", dtok[2], dtok[3])
                den = self.field(int(dtok[1]))
                if not den:
                    raise ParseError("denominator %s is zero in %s" % (dtok[1], self.field.name),
                                     dtok[2], dtok[3])
                return Poly.constant(self.field(num) * self.field.inv(den), self.field)
            return Poly.constant(num, self.field)
        if tok[0] == "name":
            v = self.variables.get(tok[1])
            if v is None:
                raise UndeclaredVariable("undeclared variable %r" % tok[1], tok[2], tok[3])
            return Poly.var(v, self.field)
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
    tokens = _tokenize(text, line_no, col_offset)
    end_col = tokens[-1][3] + len(tokens[-1][1]) if tokens else col_offset + 1
    return _ExprParser(tokens, variables, field, line_no, end_col).parse()


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
            m = re.fullmatch(r"(?:([A-Za-z][A-Za-z0-9]*)\s*)?\[\s*([A-Za-z0-9_,\s]*)\]", rest)
            if not m:
                raise ParseError("malformed ring declaration", ln, 1)
            if m.group(1):
                try:
                    field = field_by_name(m.group(1))
                except ValueError as e:
                    raise ParseError(str(e), ln, 1)
            ring_names = []
            col = at + m.start(2) + 1
            for piece in re.finditer(r"[^,]+", m.group(2)):
                x = piece.group().strip()
                if x in ring_names:
                    lead = len(piece.group()) - len(piece.group().lstrip())
                    raise ParseError("duplicate ring variable %r" % x,
                                     ln, col + piece.start() + lead)
                if x:
                    ring_names.append(x)
        elif head == "grade":
            m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*(\d+)", rest)
            if not m:
                raise ParseError("malformed grade declaration", ln, 1)
            grading[m.group(1)] = int(m.group(2))
            grade_at[m.group(1)] = (ln, at + 1)
        elif head == "ideal":
            m = re.match(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*", rest)
            if not m:
                raise ParseError("malformed ideal declaration", ln, 1)
            ideal_names.append(m.group(1))
            ideals.append((ln, at + m.end(), rest[m.end():]))
        elif head == "module":
            m = re.fullmatch(r"rank\s+(\d+)", rest)
            if not m:
                raise ParseError("malformed module declaration", ln, 1)
            module_rank = int(m.group(1))
            module_at = (ln, at + m.start(1) + 1)
        elif head == "relation":
            if module_rank is None:
                raise ParseError("relation before module declaration", ln, 1)
            module_rows_src.append((ln, at, rest))
        elif head == "morphism":
            m = re.fullmatch(r"\[\s*([A-Za-z0-9_,\s]*)\]\s*:\s*(.*)", rest)
            if not m:
                raise ParseError("malformed morphism declaration", ln, 1)
            morphism_src = (ln, [x.strip() for x in m.group(1).split(",") if x.strip()],
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
            m = re.match(r"\s*([A-Za-z][A-Za-z0-9]*)\s*->\s*", piece)
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
