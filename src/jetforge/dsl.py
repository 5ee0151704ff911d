"""Line-oriented input DSL: ring, grading, ideals, module, morphism.

Example document::

    ring Q[x,y]
    grade x = 1
    grade y = 1
    ideal f = y^2 - x^3
    module rank 2
    relation x*e1 + y*e2
    morphism [u] : x -> u^2, y -> u^3

Every line, declarations included, is read by one findall of one token
pattern into plain strings, a token's kind given by its first character.
Tokens may be separated by any whitespace; digits are ASCII, and any other
character outside the grammar is an unexpected character.  An error names
its line and column, found only then by tokenizing the line again.  A
term's literals multiply into one integer ratio, then one field scalar, and
its variables into one monomial.  The ring, module and morphism are
declared at most once, and so are a variable's grade and an ideal's name.
Only base variables appear in input; jet orders exist only in output.  The
round trip is ``print_document(parse_document(text))``, which keeps the text.
"""

import re

from .errors import InhomogeneousRelation, ParseError, UndeclaredVariable
from .jets import AlgebraMorphism, AlgebraPresentation, _Record
from .hsmodules import ModulePresentation, linear_form, module_symbols
from .poly import _monomial, _poly
from .scalars import QQ, field_by_name


class InputDocument(_Record):
    """An algebra, its relations' names (None: f0, f1, ...), a module and a morphism."""

    _fields = ("algebra", "ideal_names", "module", "morphism")

    def __init__(self, algebra, ideal_names, module=None, morphism=None):
        if ideal_names is not None and not (
                len(set(ideal_names)) == len(ideal_names) == len(algebra.relations)):
            raise ValueError("ideal names %r are not one distinct name per relation"
                             % (ideal_names,))
        self.algebra = algebra
        self.ideal_names = ideal_names
        self.module = module
        self.morphism = morphism

    @property
    def field(self):
        return self.algebra.field


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
_END = "unexpected end of expression"

# Whitespace matches nothing, so findall steps over it; digits are ASCII.  A character
# that starts no token starts a match to the end of the line, so a line holds one just
# when the first character of its last token is not a key of _KIND_OF.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9]*|->|[-+*/^(),\[\]:=]|\S.*")
_KIND_OF = (dict.fromkeys("0123456789", "num") | dict.fromkeys("-+*/^(),[]:=", "op")
            | dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "name"))
_KINDS = {"name": "a name", "num": "a natural number"}
# the tokens after a factor that end its term: every operator but "*" and "(", and the end
_ENDS_TERM = frozenset(("", "->") + tuple("-+/^),[]:="))


def _tokenize(text, line_no):
    """Tokens (kind, text, line, column) and an "end" token just past them.
    The parser reads only the token texts, from findall of the same pattern,
    and tokenizes a line again here only to locate an error on it."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = _KIND_OF.get(m.group()[0])
        if kind is None:
            raise ParseError("unexpected character %r" % m.group()[0], line_no, m.start() + 1)
        tokens.append((kind, m.group(), line_no, m.start() + 1))
    tokens.append(("end", "", line_no, len(text.rstrip()) + 1))  # just past the last token
    return tokens


class _Parser:
    """A cursor over one line's token texts, then "" for its end.  Declarations
    are read with expect, skip, names and finish; expressions by recursive
    descent, where a term is one field scalar times one {JetVar: exponent}
    map and only parenthesized factors become Polys.  An expression adds its
    terms into one dict and stops at the first token that cannot continue it."""

    def __init__(self, tokens, text, line_no):
        self.tokens = tokens
        self.text = text  # the line without its comment, to locate errors in
        self.line_no = line_no
        self.pos = 1  # after the keyword, which parse_document reads
        self.depth = 0  # parentheses open at the current position

    def fail(self, message, i, error=ParseError):
        """Raise error(message) located at token i."""
        raise error(message, self.line_no, _tokenize(self.text, self.line_no)[i][3])

    def natural(self, i, most_digits, message, what="literal"):
        """Token i as a natural number (a what); its length is checked before int()."""
        tok = self.tokens[i]
        if not tok.isdigit():
            self.fail("%s must be a natural number" % what if tok else _END, i)
        if len(tok) > most_digits:  # int() counts leading zeros against its limit
            tok = tok.lstrip("0") or "0"
            if len(tok) > most_digits:
                self.fail(message, i)
        return int(tok)

    def expect(self, want):
        """Take the next token if its kind ("name", "num") or else its text is want."""
        tok = self.tokens[self.pos]
        if (_KIND_OF.get(tok[:1]) if want in _KINDS else tok) != want:
            self.fail("expected %s" % _KINDS.get(want, repr(want)), self.pos)
        self.pos += 1
        return tok

    def skip(self, text):
        """Take the next token if its text is text; say whether it was."""
        if self.tokens[self.pos] != text:
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
            if tok in names:
                self.fail("duplicate %s %r" % (kind, tok), self.pos - 1)
            names.append(tok)
        return names

    def finish(self):
        """Raise unless the cursor is at the end; anything there is trailing input."""
        tok = self.tokens[self.pos]
        if tok:
            self.fail("trailing input %r" % tok, self.pos)

    def expr(self, variables, field):
        """The expression at the cursor, over variables (name -> JetVar)."""
        terms = {}
        tokens = self.tokens
        modulus = getattr(field, "p", 0)  # 0 over Q
        sign = tokens[self.pos]
        if sign in ("+", "-"):
            self.pos += 1
        while True:
            self.term(terms, -1 if sign == "-" else 1, variables, field, modulus)
            sign = tokens[self.pos]
            if sign not in ("+", "-"):
                return _poly(field, terms)
            self.pos += 1

    def term(self, terms, sign, variables, field, p):
        """Parse one term and add sign times it into terms.  A factor is a
        literal, a variable or a parenthesized expression, and an optional
        exponent.  The literals multiply into one integer ratio num/den,
        reduced mod p over F_p, which becomes one field scalar at the end."""
        tokens = self.tokens
        pos = self.pos
        num, den = sign, 1
        exps, group = {}, None  # group: the product of the parenthesized factors
        while True:
            tok = tokens[pos]
            pos += 1
            kind = _KIND_OF.get(tok[:1])
            if kind == "name":
                a = variables.get(tok)
                if a is None:
                    self.fail("undeclared variable %r" % tok, pos - 1, UndeclaredVariable)
            elif kind == "num":
                a = self.natural(pos - 1, MAX_LITERAL_DIGITS, _TOO_LONG)
                d = 1
                if tokens[pos] == "/":
                    pos += 2
                    d = self.natural(pos - 1, MAX_LITERAL_DIGITS, _TOO_LONG, "denominator")
                    if not (d % p if p else d):
                        self.fail("denominator %s is zero in %s" % (tokens[pos - 1], field.name),
                                  pos - 1)
            elif tok == "(":
                if self.depth == MAX_PAREN_DEPTH:
                    self.fail("parentheses nested deeper than %d" % MAX_PAREN_DEPTH, pos - 1)
                self.depth += 1
                self.pos = pos
                a = self.expr(variables, field)
                pos = self.pos
                if tokens[pos] != ")":
                    self.fail("expected ')'" if tokens[pos] else _END, pos)
                pos += 1
                self.depth -= 1
            else:
                self.fail("unexpected token %r" % tok if tok else _END, pos - 1)
            e = 1
            if tokens[pos] == "^":
                pos += 2
                e = self.natural(pos - 1, len(str(MAX_EXPONENT)), _TOO_HIGH, "exponent")
                if e > MAX_EXPONENT:
                    self.fail(_TOO_HIGH, pos - 1)
            if kind == "name":
                exps[a] = exps.get(a, 0) + e
            elif kind == "op":
                group = a**e if group is None else group * a**e
            elif p:  # a literal is reduced into F_p before it is powered
                num = num * pow(a, e, p) % p
                den = den * pow(d, e, p) % p
            else:  # a rational literal is one atom: 3/2^2 is (3/2)^2
                num *= a**e
                den *= d**e
            tok = tokens[pos]
            if tok == "*":
                pos += 1
            elif tok in _ENDS_TERM:
                break
        self.pos = pos
        c = field.coerce(num) if den == 1 else field.from_ratio(num, den)
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


def parse_document(text):
    """Parse a DSL document into presentations; diagnostics carry line/col.

    The first pass reads the syntax of every declaration; expressions are
    parsed in a second pass, once the ring, and so the field and the
    variables, is known; the field is Q unless the ring names another."""
    field = QQ
    once = {}  # "ring" -> its variables; "module", "morphism" -> (value, parser)
    grades = {}  # name -> (degree, parser at its grade line)
    ideals = {}  # name -> parser at its expression
    relations = []  # parsers at module relation expressions

    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        tokens = _TOKEN.findall(line)
        if not tokens:
            continue
        if tokens[-1][0] not in _KIND_OF:
            _tokenize(line, ln)  # raises at the line's first unexpected character
        tokens.append("")
        p = _Parser(tokens, line, ln)
        kw = tokens[0]
        if kw in once:
            p.fail("duplicate %s declaration" % kw, 0)
        if kw == "ring":
            if tokens[1][:1].isalpha():
                p.pos = 2
                try:
                    field = field_by_name(tokens[1])
                except ValueError as e:
                    p.fail(str(e), 1)
            once[kw] = p.names("ring variable")
        elif kw == "grade":
            name = p.expect("name")
            if name in grades:
                p.fail("duplicate grade for %r" % name, 1)
            p.expect("=")
            p.expect("num")
            grades[name] = (p.natural(3, MAX_LITERAL_DIGITS, _TOO_LONG), p)
        elif kw == "ideal":
            name = p.expect("name")
            if name in ideals:
                p.fail("duplicate ideal name %r" % name, 1)
            p.expect("=")
            ideals[name] = p
            continue
        elif kw == "module":
            p.expect("rank")
            p.expect("num")
            rank = p.natural(2, MAX_LITERAL_DIGITS, _TOO_LONG)
            if rank > MAX_RANK:
                p.fail("module rank larger than %d" % MAX_RANK, 2)
            once[kw] = (rank, p)
        elif kw == "relation":
            if "module" not in once:
                p.fail("relation before module declaration", 0)
            relations.append(p)
            continue
        elif kw == "morphism":
            names = p.names("target variable")
            p.expect(":")
            once[kw] = (names, p)
            continue
        else:
            p.fail("unknown declaration %r" % kw, 0)
        p.finish()

    if "ring" not in once:
        raise ParseError("missing ring declaration", len(lines) or 1, 1)
    ring_names = once["ring"]
    for x, (_, p) in grades.items():
        if x not in ring_names:
            p.fail("grade for undeclared variable %r" % x, 1)

    grading = {x: grades[x][0] if x in grades else 0 for x in ring_names} if grades else None
    # built without relations: each ideal is checked once, here, where its column is known
    algebra = AlgebraPresentation(ring_names, [], grading, field)
    base = dict(zip(ring_names, algebra.generators))
    for p in ideals.values():
        at = p.pos
        f = p.expr(base, field)
        p.finish()
        if grading is not None and not f.is_zero() and algebra.homogeneous_degree(f) is None:
            p.fail("relation is not homogeneous for the declared grading", at,
                   InhomogeneousRelation)
        algebra.relations.append(f)

    module = None
    if "module" in once:
        rank, mp = once["module"]
        symbols = module_symbols(algebra, rank, 0)
        for e in symbols:
            if e.name in base:
                mp.fail("module symbol %r is also a ring variable" % e.name, 2)
        scope = dict(base)
        scope.update((e.name, e) for e in symbols)
        rows = []
        for p in relations:
            at = p.pos
            row = linear_form(p.expr(scope, field), symbols)
            p.finish()
            if row is None:
                p.fail("module relation must be linear in e1..e%d" % rank, at)
            rows.append(row)
        module = ModulePresentation(algebra, rank, rows)

    morphism = None
    if "morphism" in once:
        tgt_names, p = once["morphism"]
        tgt = AlgebraPresentation(tgt_names, [], None, field)
        tvars = dict(zip(tgt_names, tgt.generators))
        images = {}
        more = p.tokens[p.pos] != ""  # a ring without variables has no images
        while more:
            name = p.expect("name")
            v = base.get(name)
            if v is None:
                p.fail("undeclared variable %r" % name, p.pos - 1, UndeclaredVariable)
            if v in images:
                p.fail("duplicate image for %r" % name, p.pos - 1)
            p.expect("->")
            images[v] = p.expr(tvars, field)
            more = p.skip(",")
        p.finish()
        for v in base.values():
            if v not in images:
                p.fail("morphism misses image for %r" % v.name, p.pos)
        morphism = AlgebraMorphism(algebra, tgt, images)

    return InputDocument(algebra, list(ideals), module, morphism)


def print_document(doc):
    """The canonical text of doc; parse_document of it yields an equal document."""
    algebra, module, morphism = doc.algebra, doc.module, doc.morphism
    lines = ["ring %s[%s]" % (algebra.field.name, ",".join(algebra.vars))]
    if algebra.grading is not None:
        for x in algebra.vars:
            lines.append("grade %s = %d" % (x, algebra.grading[x]))
    for k, f in enumerate(algebra.relations):
        name = doc.ideal_names[k] if doc.ideal_names else "f%d" % k
        lines.append("ideal %s = %s" % (name, f.render(base_plain=True)))
    if module is not None:
        lines.append("module rank %d" % module.rank)
        symbols = module_symbols(algebra, module.rank, 0)
        for row in module.relation_matrix:
            terms = ["(%s)*%s" % (p.render(base_plain=True), e.name)
                     for p, e in zip(row, symbols) if not p.is_zero()]
            # a module of rank 0 has no e1 to write its zero rows with
            lines.append("relation %s" % (" + ".join(terms) or ("0*e1" if module.rank else "0")))
    if morphism is not None:
        images = ", ".join(
            "%s -> %s" % (v.name, morphism.images[v].render(base_plain=True))
            for v in morphism.source.generators)
        lines.append("morphism [%s] : %s" % (",".join(morphism.target.vars), images))
    return "\n".join(lines) + "\n"
