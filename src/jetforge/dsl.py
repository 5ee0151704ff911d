"""Line-oriented input DSL: ring, grading, ideals, module, morphism.

Example document::

    ring Q[x,y]
    grade x = 1
    grade y = 1
    ideal f = y^2 - x^3
    module rank 2
    relation x*e1 + y*e2
    morphism [u] : x -> u^2, y -> u^3

Every line, declarations included, is read from one token stream, so
tokens may be separated by any whitespace and every error names its line
and column; digits are ASCII, and any other character outside the grammar
is an unexpected character.  A term's factors are read in one loop into
one scalar and one monomial.  The ring, module and morphism are declared
at most once, and so are the grade of a variable and the name of an
ideal.  Only base variables appear in input; jet orders exist only in
output.  A parsed document round-trips through the canonical printer.
"""

import re

from .errors import InhomogeneousRelation, ParseError, UndeclaredVariable
from .jets import AlgebraMorphism, AlgebraPresentation, _Record
from .hsmodules import ModulePresentation, linear_form, module_symbols
from .poly import JetVar, _monomial, _poly
from .scalars import QQ, field_by_name


class InputDocument(_Record):
    _fields = ("field", "algebra", "ideal_names", "module", "morphism")

    def __init__(self, field, algebra, ideal_names, module=None, morphism=None):
        self.field = field
        self.algebra = algebra
        self.ideal_names = ideal_names
        self.module = module
        self.morphism = morphism


# Each nesting level costs the recursive-descent parser four stack frames.
MAX_PAREN_DEPTH = 100
# Jet components of x^e take e! and enumerate splits of e; no input needs more.
MAX_EXPONENT = 1000
# The symbols e1..eN are interned jet variables, kept for the whole process.
MAX_RANK = 1000
# int() refuses longer digit strings (sys.get_int_max_str_digits()).
MAX_LITERAL_DIGITS = 4300
_TOO_LONG = "literal longer than %d digits" % MAX_LITERAL_DIGITS
_TOO_HIGH = "exponent larger than %d" % MAX_EXPONENT

# Whitespace matches no group, so finditer steps over it.  Digits are ASCII.
_TOKEN = re.compile(r"(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                    r"|(?P<op>->|[-+*/^(),\[\]:=])|(?P<bad>\S)")
_KINDS = {"name": "a name", "num": "a natural number"}


def _tokenize(text, line_no):
    """Tokens (kind, text, line, column) and an "end" token just past them."""
    tokens = [(m.lastgroup, m.group(), line_no, m.start() + 1) for m in _TOKEN.finditer(text)]
    for kind, tok, _, col in tokens:
        if kind == "bad":
            raise ParseError("unexpected character %r" % tok, line_no, col)
    end = tokens[-1][3] + len(tokens[-1][1]) if tokens else 1
    tokens.append(("end", "", line_no, end))
    return tokens


def _natural(tok, most_digits, message):
    """The value of a numeric token; its length is compared before int()."""
    digits = tok[1].lstrip("0") or "0"
    if len(digits) > most_digits:
        raise ParseError(message, tok[2], tok[3])
    return int(digits)


class _Parser:
    """A cursor over the tokens of one line.  Declarations are read with
    expect, skip, names and finish; expressions by recursive descent, where
    a term is one field scalar times one {JetVar: exponent} map and only
    parenthesized factors become Polys.  An expression adds its terms into
    one dict and stops at the first token that cannot continue it."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current position
        self.variables = None  # name -> JetVar, bound by poly()
        self.field = None

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of expression", tok[2], tok[3])
        self.pos += 1
        return tok

    def expect(self, want):
        """Take the next token if its kind ("name", "num") or, for any other
        want, its text is want; otherwise raise at that token."""
        tok = self.tokens[self.pos]
        if tok[0 if want in _KINDS else 1] != want:
            raise ParseError("expected %s" % _KINDS.get(want, repr(want)), tok[2], tok[3])
        self.pos += 1
        return tok

    def skip(self, text):
        """Take the next token if its text is text; say whether it was."""
        if self.tokens[self.pos][1] != text:
            return False
        self.pos += 1
        return True

    def names(self, kind):
        """A bracketed list of distinct names, possibly empty."""
        self.expect("[")
        names = []
        while not self.skip("]"):
            if names:
                self.expect(",")
            tok = self.expect("name")
            if tok[1] in names:
                raise ParseError("duplicate %s %r" % (kind, tok[1]), tok[2], tok[3])
            names.append(tok[1])
        return names

    def finish(self):
        """The end token; anything before it is trailing input."""
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input %r" % tok[1], tok[2], tok[3])
        return tok

    def poly(self, variables, field):
        """The expression at the cursor, over variables (name -> JetVar)."""
        self.variables = variables
        self.field = field
        return self.expr()

    def expr(self):
        terms = {}
        sign = self.take()[1] if self.peek()[1] in ("+", "-") else "+"
        while True:
            self.term(terms, -1 if sign == "-" else 1)
            if self.peek()[1] not in ("+", "-"):
                return _poly(self.field, terms)
            sign = self.take()[1]

    def term(self, terms, sign):
        """Parse one term and add sign times it into terms.  A factor is a
        literal, a variable or a parenthesized expression, and an optional
        exponent."""
        tokens, field, variables = self.tokens, self.field, self.variables
        pos = self.pos
        c = field(sign)
        exps = {}
        group = None  # the product of the parenthesized factors
        while True:
            tok = tokens[pos]
            pos += 1
            kind = tok[0]
            if kind == "name":
                a = variables.get(tok[1])
                if a is None:
                    raise UndeclaredVariable("undeclared variable %r" % tok[1], tok[2], tok[3])
            elif kind == "num":
                a = (int(tok[1]) if len(tok[1]) <= MAX_LITERAL_DIGITS
                     else _natural(tok, MAX_LITERAL_DIGITS, _TOO_LONG))
                if tokens[pos][1] != "/":
                    a = field.coerce(a)
                else:
                    dtok = tokens[pos + 1]
                    if dtok[0] != "num":
                        raise ParseError("unexpected end of expression" if dtok[0] == "end" else
                                         "denominator must be a natural number", dtok[2], dtok[3])
                    pos += 2
                    den = _natural(dtok, MAX_LITERAL_DIGITS, _TOO_LONG)
                    if not field(den):
                        raise ParseError("denominator %s is zero in %s" % (dtok[1], field.name),
                                         dtok[2], dtok[3])
                    a = field.from_ratio(a, den)
            elif tok[1] == "(":
                if self.depth == MAX_PAREN_DEPTH:
                    raise ParseError("parentheses nested deeper than %d" % MAX_PAREN_DEPTH,
                                     tok[2], tok[3])
                self.depth += 1
                self.pos = pos
                a = self.expr()
                close = self.take()
                if close[1] != ")":
                    raise ParseError("expected ')'", close[2], close[3])
                self.depth -= 1
                pos = self.pos
            elif kind == "end":
                raise ParseError("unexpected end of expression", tok[2], tok[3])
            else:
                raise ParseError("unexpected token %r" % tok[1], tok[2], tok[3])
            e = 1
            if tokens[pos][1] == "^":
                etok = tokens[pos + 1]
                if etok[0] != "num":
                    raise ParseError("unexpected end of expression" if etok[0] == "end" else
                                     "exponent must be a natural number", etok[2], etok[3])
                pos += 2
                e = _natural(etok, len(str(MAX_EXPONENT)), _TOO_HIGH)
                if e > MAX_EXPONENT:
                    raise ParseError(_TOO_HIGH, etok[2], etok[3])
            if kind == "name":
                exps[a] = exps.get(a, 0) + e
            elif kind == "num":
                c = c * (a if e == 1 else a**e)
            else:
                group = a**e if group is None else group * a**e
            tok = tokens[pos]
            if tok[1] == "*":
                pos += 1
            elif tok[0] not in ("num", "name") and tok[1] != "(":
                break
        self.pos = pos
        pairs = [ve for ve in exps.items() if ve[1]]
        if len(pairs) > 1:
            pairs.sort(key=lambda ve: ve[0]._key)
        m = _monomial(pairs)
        items = ((m, c),) if group is None else (group * _poly(field, {m: c})).terms.items()
        for key, t in items:
            s = terms.get(key)
            s = t if s is None else s + t
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)


def parse_document(text, default_field=None):
    """Parse a DSL document into presentations; diagnostics carry line/col.

    The first pass reads the syntax of every declaration; expressions are
    parsed in a second pass, once the ring, and so the field and the
    variables, is known."""
    field = default_field or QQ
    once = {}  # "ring", "module", "morphism" -> what its one line declares
    grades = {}  # name -> (degree, name token)
    ideals = {}  # name -> parser at its expression
    relations = []  # parsers at module relation expressions

    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        p = _Parser(_tokenize(raw.split("#", 1)[0], ln))
        if p.peek()[0] == "end":
            continue
        head = p.take()
        kw = head[1]
        if kw in once:
            raise ParseError("duplicate %s declaration" % kw, head[2], head[3])
        if kw == "ring":
            if p.peek()[0] == "name":
                tok = p.take()
                try:
                    field = field_by_name(tok[1])
                except ValueError as e:
                    raise ParseError(str(e), tok[2], tok[3])
            once[kw] = p.names("ring variable")
        elif kw == "grade":
            tok = p.expect("name")
            if tok[1] in grades:
                raise ParseError("duplicate grade for %r" % tok[1], tok[2], tok[3])
            p.expect("=")
            grades[tok[1]] = (_natural(p.expect("num"), MAX_LITERAL_DIGITS, _TOO_LONG), tok)
        elif kw == "ideal":
            tok = p.expect("name")
            if tok[1] in ideals:
                raise ParseError("duplicate ideal name %r" % tok[1], tok[2], tok[3])
            p.expect("=")
            ideals[tok[1]] = p
            continue
        elif kw == "module":
            p.expect("rank")
            tok = p.expect("num")
            rank = _natural(tok, MAX_LITERAL_DIGITS, _TOO_LONG)
            if rank > MAX_RANK:
                raise ParseError("module rank larger than %d" % MAX_RANK, tok[2], tok[3])
            once[kw] = (rank, tok)
        elif kw == "relation":
            if "module" not in once:
                raise ParseError("relation before module declaration", head[2], head[3])
            relations.append(p)
            continue
        elif kw == "morphism":
            names = p.names("target variable")
            p.expect(":")
            once[kw] = (names, p)
            continue
        else:
            raise ParseError("unknown declaration %r" % kw, head[2], head[3])
        p.finish()

    if "ring" not in once:
        raise ParseError("missing ring declaration", len(lines) or 1, 1)
    ring_names = once["ring"]
    for x, (_, tok) in grades.items():
        if x not in ring_names:
            raise ParseError("grade for undeclared variable %r" % x, tok[2], tok[3])

    base = {x: JetVar(x, i, 0) for i, x in enumerate(ring_names)}
    grading = {x: grades[x][0] if x in grades else 0 for x in ring_names} if grades else None
    # built without relations: each ideal is checked once, here, where its column is known
    algebra = AlgebraPresentation(ring_names, [], grading, field)
    for p in ideals.values():
        at = p.peek()
        f = p.poly(base, field)
        p.finish()
        if grading is not None and not f.is_zero() and algebra.homogeneous_degree(f) is None:
            raise InhomogeneousRelation(
                "relation is not homogeneous for the declared grading", at[2], at[3])
        algebra.relations.append(f)

    module = None
    if "module" in once:
        rank, tok = once["module"]
        symbols = module_symbols(len(ring_names), rank, 0)
        for e in symbols:
            if e.name in base:
                raise ParseError("module symbol %r is also a ring variable" % e.name,
                                 tok[2], tok[3])
        scope = dict(base)
        scope.update((e.name, e) for e in symbols)
        rows = []
        for p in relations:
            at = p.peek()
            row = linear_form(p.poly(scope, field), symbols)
            p.finish()
            if row is None:
                raise ParseError("module relation must be linear in e1..e%d" % rank,
                                 at[2], at[3])
            rows.append(row)
        module = ModulePresentation(algebra, rank, rows)

    morphism = None
    if "morphism" in once:
        tgt_names, p = once["morphism"]
        tvars = {x: JetVar(x, i, 0) for i, x in enumerate(tgt_names)}
        images = {}
        more = p.peek()[0] != "end"  # a ring without variables has no images
        while more:
            tok = p.expect("name")
            v = base.get(tok[1])
            if v is None:
                raise UndeclaredVariable("undeclared variable %r" % tok[1], tok[2], tok[3])
            if v in images:
                raise ParseError("duplicate image for %r" % tok[1], tok[2], tok[3])
            p.expect("->")
            images[v] = p.poly(tvars, field)
            more = p.skip(",")
        end = p.finish()
        for v in base.values():
            if v not in images:
                raise ParseError("morphism misses image for %r" % v.name, end[2], end[3])
        tgt = AlgebraPresentation(tgt_names, [], None, field)
        morphism = AlgebraMorphism(algebra, tgt, images)

    return InputDocument(field, algebra, list(ideals), module, morphism)


def print_document(algebra, ideal_names=None, module=None, morphism=None):
    """Canonical printer; parse(print(doc)) yields an identical document."""
    lines = ["ring %s[%s]" % (algebra.field.name, ",".join(algebra.vars))]
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
            # a module of rank 0 has no e1 to write its zero rows with
            lines.append("relation %s" % (" + ".join(terms) or ("0*e1" if module.rank else "0")))
    if morphism is not None:
        images = ", ".join(
            "%s -> %s" % (v.name, morphism.images[v].render(base_plain=True))
            for v in morphism.source.base_vars())
        lines.append("morphism [%s] : %s" % (",".join(morphism.target.vars), images))
    return "\n".join(lines) + "\n"


def document_text(doc):
    return print_document(doc.algebra, doc.ideal_names, doc.module, doc.morphism)
