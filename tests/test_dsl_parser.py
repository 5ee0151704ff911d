"""The expression parser against an independent reference.

A seeded generator writes random expression text and, side by side, builds
the Poly that text denotes with the public Poly arithmetic; each parse must
equal its reference.  The error corpus pins the message, line and column of
malformed inputs, one or more for every place the tokenizer and the
expression parser raise; the declaration corpus does the same for every
place parse_document and the declaration reader raise."""

import random
import time
from fractions import Fraction

import pytest

from jetforge.dsl import document_text, parse_document
from jetforge.errors import InhomogeneousRelation, ParseError, UndeclaredVariable
from jetforge.poly import JetVar, Poly
from jetforge.scalars import QQ, PrimeField

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(2147483647)]
NAMES = ["x", "y", "z"]


class _Generator:
    """Random expression text and its reference Poly over one field."""

    def __init__(self, rng, field):
        self.rng = rng
        self.field = field
        self.vars = {x: Poly.var(JetVar(x, i, 0), field) for i, x in enumerate(NAMES)}

    def const(self, c):
        return Poly.constant(c, self.field)

    def expr(self, depth):
        rng = self.rng
        sign = rng.choice(["", "", "-", "+"])
        text, ref = self.term(depth)
        text, ref = sign + text, -ref if sign == "-" else ref
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.2:
                # a term and its negation cancel
                t, r = self.term(depth)
                text, ref = "%s + %s - %s" % (text, t, t), ref + r - r
                continue
            op = rng.choice([" + ", " - ", "+", "-"])
            t, r = self.term(depth)
            text = text + op + t
            ref = ref + r if "+" in op else ref - r
        return text, ref

    def term(self, depth):
        text, ref = self.factor(depth)
        for _ in range(self.rng.randrange(3)):
            t, r = self.factor(depth)
            text, ref = text + self.rng.choice(["*", " ", " * "]) + t, ref * r
        return text, ref

    def factor(self, depth):
        rng = self.rng
        if rng.random() < 0.1:
            x = rng.choice(NAMES)
            if rng.random() < 0.5:
                return "0*%s" % x, self.const(0)
            return "%s^0" % x, self.const(1)
        text, ref = self.atom(depth)
        if rng.random() < 0.3:
            e = rng.randrange(4)
            text, ref = "%s^%d" % (text, e), ref**e
        return text, ref

    def atom(self, depth):
        rng = self.rng
        kind = rng.choice(["num", "ratio", "var", "var", "group" if depth else "var"])
        if kind == "num":
            n = rng.randrange(13)
            return rng.choice(["%d", "0%d"]) % n, self.const(n)
        if kind == "ratio":
            a = rng.randrange(13)
            b = rng.choice([b for b in range(1, 13) if self.field(b)])
            return "%d/%d" % (a, b), self.const(a) * self.const(self.field.inv(self.field(b)))
        if kind == "var":
            x = rng.choice(NAMES)
            return x, self.vars[x]
        text, ref = self.expr(depth - 1)
        return "(%s)" % text, ref


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_parse_matches_reference_poly(field):
    rng = random.Random("dsl-parser:%s" % field.name)
    gen = _Generator(rng, field)
    for _ in range(300):
        text, ref = gen.expr(2)
        doc = parse_document("ring %s[%s]\nideal f = %s\n" % (field.name, ",".join(NAMES), text))
        got = doc.algebra.relations[0]
        assert got == ref, text
        assert got.render() == ref.render(), text


# Literal arithmetic, each value worked out by hand: "p/q" is one atom, so
# an exponent after it powers the whole ratio (3/2^2 is 9/4, not 3/4), and a
# term's literals multiply.  The third entry lists the denominators written
# in the term; one that is zero in the field is an error located at it.
LITERAL_CASES = [
    ("3/2^2*x", {"x": Fraction(9, 4)}, [2]),
    ("2^3*x", {"x": 8}, []),
    ("2/4*x", {"x": Fraction(1, 2)}, [4]),
    ("2*3/5*x*7/11", {"x": Fraction(42, 55)}, [5, 11]),
    ("0*x + y", {"y": 1}, []),
    ("x - x", {}, []),
]


def _in_field(q, field):
    """The rational q as an element of field, worked out without the field's from_ratio."""
    q = Fraction(q)
    if field is QQ:
        return q
    return q.numerator * pow(q.denominator, -1, field.p) % field.p


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("expr, coefficients, denominators", LITERAL_CASES)
def test_literal_arithmetic(field, expr, coefficients, denominators):
    line = "ideal f = %s" % expr
    text = "ring %s[%s]\n%s\n" % (field.name, ",".join(NAMES), line)
    zero = [d for d in denominators if field is not QQ and d % field.p == 0]
    if zero:
        with pytest.raises(ParseError) as ei:
            parse_document(text)
        column = line.index("/%d" % zero[0]) + 2
        assert str(ei.value) == "line 2, col %d: denominator %d is zero in %s" % (
            column, zero[0], field.name)
        return
    want = Poly.zero(field)
    for x, q in coefficients.items():
        want = want + Poly.var(JetVar(x, NAMES.index(x), 0), field) * _in_field(q, field)
    assert parse_document(text).algebra.relations == [want]


def test_literals_over_f7():
    f7 = PrimeField(7)
    x, y = (Poly.var(JetVar(v, i, 0), f7) for i, v in enumerate("xy"))
    doc = parse_document("ring F7[x,y]\nideal f = 7*x\nideal g = -1/3*y\nideal h = 7*x + y\n")
    assert doc.algebra.relations == [Poly.zero(f7), y * 2, y]
    assert doc.algebra.relations[1].render() == "2*y_0"


def test_long_literal_is_reduced_before_it_is_powered():
    # (10^4300 - 1)^1000 has 4.3 million digits; read modulo 7 first, it
    # parses in well under a millisecond
    nines = "9" * 4300
    start = time.perf_counter()
    doc = parse_document("ring F7[x]\nideal f = %s^1000*x\n" % nines)
    elapsed = time.perf_counter() - start
    value = (pow(10, 4300, 7) - 1) ** 1000 % 7
    assert doc.algebra.relations == [Poly.var(JetVar("x", 0, 0), PrimeField(7)) * value]
    assert value and elapsed < 1.0


# Recorded from the parser before it gathered terms as scalar times
# exponent map; the documents start with "ring Q[x,y]" unless they
# declare their own ring.
ERROR_CORPUS = [
    ('ideal f = x $ 2\n', ParseError, 2, 13, "unexpected character '$'"),
    ('ideal f = x + é\n', ParseError, 2, 15, "unexpected character 'é'"),
    ('ideal f = x_1\n', ParseError, 2, 12, "unexpected character '_'"),
    ('ideal f = 2.5*x\n', ParseError, 2, 12, "unexpected character '.'"),
    ('module rank 1\nrelation  x*e1 ; y*e1\n', ParseError, 3, 16, "unexpected character ';'"),
    ('ideal f = x^\n', ParseError, 2, 13, 'unexpected end of expression'),
    ('ideal f = 1/\n', ParseError, 2, 13, 'unexpected end of expression'),
    ('ideal f = x*\n', ParseError, 2, 13, 'unexpected end of expression'),
    ('ideal f = -\n', ParseError, 2, 12, 'unexpected end of expression'),
    ('ideal f = ((x)\n', ParseError, 2, 15, 'unexpected end of expression'),
    ('morphism [u] : x -> u, y ->\n', ParseError, 2, 28, 'unexpected end of expression'),
    ('ideal f = x)\n', ParseError, 2, 12, "trailing input ')'"),
    ('ideal f = x^2^3\n', ParseError, 2, 14, "trailing input '^'"),
    ('ideal f = x/2\n', ParseError, 2, 12, "trailing input '/'"),
    ('ideal f = 1/2/3\n', ParseError, 2, 14, "trailing input '/'"),
    ('ideal f = x -> y\n', ParseError, 2, 13, "trailing input '->'"),
    ('ideal f = (x + y) (x - y))\n', ParseError, 2, 26, "trailing input ')'"),
    ('ideal f = x^y\n', ParseError, 2, 13, 'exponent must be a natural number'),
    ('ideal f = x^-1\n', ParseError, 2, 13, 'exponent must be a natural number'),
    ('ideal f = (x + 1)^(2)\n', ParseError, 2, 19, 'exponent must be a natural number'),
    ('ideal f = (x + 1)^2000\n', ParseError, 2, 19, 'exponent larger than 1000'),
    ('ideal f = 3^1001 x\n', ParseError, 2, 13, 'exponent larger than 1000'),
    ('ideal f = 1/x\n', ParseError, 2, 13, 'denominator must be a natural number'),
    ('ideal f = 1/(2)\n', ParseError, 2, 13, 'denominator must be a natural number'),
    ('ideal f = 3/-2\n', ParseError, 2, 13, 'denominator must be a natural number'),
    ('ideal f = y + 1/0\n', ParseError, 2, 17, 'denominator 0 is zero in Q'),
    ('ring F7[x]\nideal f = x^2 - 5/14\n', ParseError, 2, 19, 'denominator 14 is zero in F7'),
    ('ring F2[x]\nideal f = 3/2 x\n', ParseError, 2, 13, 'denominator 2 is zero in F2'),
    ('ring F2147483647[x]\nideal f = 1/2147483647\n', ParseError, 2, 13,
     'denominator 2147483647 is zero in F2147483647'),
    ('ideal f = x*z\n', UndeclaredVariable, 2, 13, "undeclared variable 'z'"),
    ('ideal f = (x + (y - w))\n', UndeclaredVariable, 2, 21, "undeclared variable 'w'"),
    ('module rank 2\nrelation x*e1 + e3\n', UndeclaredVariable, 3, 17, "undeclared variable 'e3'"),
    ('morphism [u,v] : x -> u*v, y -> u + w^2\n', UndeclaredVariable, 2, 37,
     "undeclared variable 'w'"),
    ('ideal f = x + %s1%s\n' % ("(" * 101, ")" * 101), ParseError, 2, 115,
     'parentheses nested deeper than 100'),
    ('ideal f = (x, y)\n', ParseError, 2, 13, "expected ')'"),
    ('ideal f = (x -> y)\n', ParseError, 2, 14, "expected ')'"),
    ('ideal f = (1/2/3)\n', ParseError, 2, 15, "expected ')'"),
    ('ideal f = +-x\n', ParseError, 2, 12, "unexpected token '-'"),
    ('ideal f = *x\n', ParseError, 2, 11, "unexpected token '*'"),
    ('ideal f = )\n', ParseError, 2, 11, "unexpected token ')'"),
    ('ideal f = x + * y\n', ParseError, 2, 15, "unexpected token '*'"),
    ('ideal f = x^2 + ^3\n', ParseError, 2, 17, "unexpected token '^'"),
    ('ideal f = -> x\n', ParseError, 2, 11, "unexpected token '->'"),
    ('module rank 1\nrelation x*e1 + (,)\n', ParseError, 3, 18, "unexpected token ','"),
    # digits are ASCII; these read as x^3 and 3*x before
    ('ideal f = x^\u0663\n', ParseError, 2, 13, "unexpected character '\u0663'"),
    ('ideal f = x\u0663\n', ParseError, 2, 12, "unexpected character '\u0663'"),
    ('ideal f = \uff12/3 y\n', ParseError, 2, 11, "unexpected character '\uff12'"),
]


@pytest.mark.parametrize("body, cls, line, column, message", ERROR_CORPUS)
def test_error_corpus(body, cls, line, column, message):
    text = body if body.startswith("ring") else "ring Q[x,y]\n" + body
    with pytest.raises(ParseError) as ei:
        parse_document(text)
    assert type(ei.value) is cls
    assert (ei.value.line, ei.value.column) == (line, column)
    assert str(ei.value) == "line %d, col %d: %s" % (line, column, message)


# Whole documents.  Each raise site of parse_document and each token the
# declaration reader expects has a case.  The first 24 inputs were accepted,
# silently changed, or reported at column 1 or at no column before every
# line was read from one token stream.
DECLARATION_CORPUS = [
    # a declaration may appear only once
    ('ring Q[x]\nring Q[y]\n', ParseError, 2, 1, 'duplicate ring declaration'),
    ('ring Q[x]\nmodule rank 1\nrelation x*e1\nmodule rank 2\n', ParseError, 4, 1,
     'duplicate module declaration'),
    ('ring Q[x,y]\nmorphism [u] : x -> u, y -> u\nmorphism [v] : x -> v^2, y -> v\n',
     ParseError, 3, 1, 'duplicate morphism declaration'),
    ('ring Q[x]\ngrade x = 1\ngrade x = 2\n', ParseError, 3, 7, "duplicate grade for 'x'"),
    ('ring Q[x]\nideal f = x\nideal f = x^2\n', ParseError, 3, 7, "duplicate ideal name 'f'"),
    # names follow the grammar
    ('ring Q[x y,z]\n', ParseError, 1, 10, "expected ','"),
    ('ring Q[x_1,y]\n', ParseError, 1, 9, "unexpected character '_'"),
    ('ring Q[1x,z]\n', ParseError, 1, 8, 'expected a name'),
    ('ring Q[x,]\n', ParseError, 1, 10, 'expected a name'),
    ('ring Q[x]\nmorphism [u] : x -> u,\n', ParseError, 2, 23, 'expected a name'),
    # located at column 1 before
    ('ring Q(x)\n', ParseError, 1, 7, "expected '['"),
    ('ring R[x]\n', ParseError, 1, 6, "unknown field name: 'R'"),
    ('ring F4[x]\n', ParseError, 1, 6, 'modulus is not prime: 4'),
    ('ring Q[x]\ngrade x 1\n', ParseError, 2, 9, "expected '='"),
    ('ring Q[x]\nideal f x\n', ParseError, 2, 9, "expected '='"),
    ('ring Q[x]\nmodule 2\n', ParseError, 2, 8, "expected 'rank'"),
    ('ring Q[x]\n  relation x*e1\n', ParseError, 2, 3, 'relation before module declaration'),
    ('ring Q[x]\nmorphism [u] x -> u\n', ParseError, 2, 14, "expected ':'"),
    ('ring Q[x]\n  foo bar\n', ParseError, 2, 3, "unknown declaration 'foo'"),
    ('ring Q[x]\nmorphism [u] : x u\n', ParseError, 2, 18, "expected '->'"),
    ('ring Q[x]\nmorphism [u] : y -> u\n', UndeclaredVariable, 2, 16,
     "undeclared variable 'y'"),
    ('ring Q[x,y]\nmorphism [u] : x -> u\n', ParseError, 2, 22, "morphism misses image for 'y'"),
    ('ring Q[x,y]\nmorphism [u] :\n', ParseError, 2, 15, "morphism misses image for 'x'"),
    ('ring Q[x]\ngrade x = 1\nideal f =   x^2 + x\n', InhomogeneousRelation, 3, 13,
     'relation is not homogeneous for the declared grading'),
    # the other raise sites of parse_document
    ('ring F%s[x]\n' % ("9" * 4301), ParseError, 1, 6, 'field name longer than 4300 characters'),
    ('ring Q[x]\ngrade x = %s\n' % ("9" * 4301), ParseError, 2, 11,
     'literal longer than 4300 digits'),
    ('ring Q[x]\nmodule rank %s\n' % ("9" * 4301), ParseError, 2, 13,
     'literal longer than 4300 digits'),
    ('ring Q[x]\nmodule rank 1001\n', ParseError, 2, 13, 'module rank larger than 1000'),
    ('ring Q[x]\n+x\n', ParseError, 2, 1, "unknown declaration '+'"),
    ('ring Q[x]\nringQ[x]\n', ParseError, 2, 1, "unknown declaration 'ringQ'"),
    ('', ParseError, 1, 1, 'missing ring declaration'),
    ('ideal f = x\n\n', ParseError, 2, 1, 'missing ring declaration'),
    ('ring Q[x]\ngrade y = 1\n', ParseError, 2, 7, "grade for undeclared variable 'y'"),
    ('ring Q[e1]\nmodule rank 1\n', ParseError, 2, 13, "module symbol 'e1' is also a ring variable"),
    ('ring Q[x]\nmodule rank 1\nrelation  e1^2\n', ParseError, 3, 11,
     'module relation must be linear in e1..e1'),
    ('ring Q[x]\nmorphism [u] : x -> u, x -> u^2\n', ParseError, 2, 24, "duplicate image for 'x'"),
    # the other tokens the declaration reader expects
    ('ring\n', ParseError, 1, 5, "expected '['"),
    ('ring Q[x]\nmorphism u : x -> u\n', ParseError, 2, 10, "expected '['"),
    ('ring Q[x\n', ParseError, 1, 9, "expected ','"),
    ('ring Q[x]\ngrade = 1\n', ParseError, 2, 7, 'expected a name'),
    ('ring Q[x]\nideal = x\n', ParseError, 2, 7, 'expected a name'),
    ('ring Q[x]\nmorphism [u] : -> u\n', ParseError, 2, 16, 'expected a name'),
    ('ring Q[x]\ngrade x = -1\n', ParseError, 2, 11, 'expected a natural number'),
    ('ring Q[x]\nmodule rank x\n', ParseError, 2, 13, 'expected a natural number'),
    ('ring Q[x,x]\n', ParseError, 1, 10, "duplicate ring variable 'x'"),
    ('ring Q[x]\nmorphism [u,u] : x -> u\n', ParseError, 2, 13, "duplicate target variable 'u'"),
    ('ring Q[x] y\n', ParseError, 1, 11, "trailing input 'y'"),
    ('ring Q[x]\ngrade x = 1 2\n', ParseError, 2, 13, "trailing input '2'"),
    ('ring Q[x]\nmodule rank 1 2\n', ParseError, 2, 15, "trailing input '2'"),
    ('ring Q[x]\nideal f = x = 1\n', ParseError, 2, 13, "trailing input '='"),
    # digits are ASCII; the grade and rank read as 3 and 2 before
    ('ring Q[x]\ngrade x = \u0663\n', ParseError, 2, 11, "unexpected character '\u0663'"),
    ('ring Q[x]\nmodule rank \uff12\n', ParseError, 2, 13, "unexpected character '\uff12'"),
    ('ring F\u0667[x]\n', ParseError, 1, 7, "unexpected character '\u0667'"),
    # an unexpected character is found when its line is read, before any
    # expression is parsed, and is located at its first occurrence
    ('ring Q[x,y]\nideal f = x +\nideal g = y $\n', ParseError, 3, 13,
     "unexpected character '$'"),
    ('ring Q[x,y]\nideal f = x - - y\nideal g = \u0663\n', ParseError, 3, 11,
     "unexpected character '\u0663'"),
    ('ring Q[x,y]\nideal f = x\nring Q[y] $\n', ParseError, 3, 11, "unexpected character '$'"),
    ('ring Q[x,y]\nideal f = x $ y \u00e9\n', ParseError, 2, 13, "unexpected character '$'"),
    ('ring Q[x,y]\nideal f = (x + y\t\t)  $$\n', ParseError, 2, 22, "unexpected character '$'"),
    ('ring Q[x,y]\n$ideal f = x\n', ParseError, 2, 1, "unexpected character '$'"),
    ('ring Q[x,y]\nideal f = x > y\n', ParseError, 2, 13, "unexpected character '>'"),
    ('ring Q[x,y]\nmorphism [u] : x ->> u, y -> u\n', ParseError, 2, 20,
     "unexpected character '>'"),
    ('ring Q[x,y]\nideal f = 1/2\x00\n', ParseError, 2, 14, "unexpected character '\\x00'"),
    ('ring Q[x,y]\nideal f = x ; # $\n', ParseError, 2, 13, "unexpected character ';'"),
]


@pytest.mark.parametrize("text, cls, line, column, message", DECLARATION_CORPUS,
                         ids=lambda v: v[:40] if isinstance(v, str) else None)
def test_declaration_corpus(text, cls, line, column, message):
    with pytest.raises(ParseError) as ei:
        parse_document(text)
    assert type(ei.value) is cls
    assert (ei.value.line, ei.value.column) == (line, column)
    assert str(ei.value) == "line %d, col %d: %s" % (line, column, message)


@pytest.mark.parametrize("text, printed", [
    # tokens may be separated by any whitespace, or by none
    ("ring\tQ[x]\nideal f=x\n", "ring Q[x]\nideal f = x\n"),
    ("ring Q[x,y]\nideal f = x\u00a0+\u2003y\n", "ring Q[x,y]\nideal f = x + y\n"),
    ("ring F7 [ x , y ]\n grade x=1\n", "ring F7[x,y]\ngrade x = 1\ngrade y = 0\n"),
    ("ring Q[x]\nmodule\trank 1\nrelation x*e1\n",
     "ring Q[x]\nmodule rank 1\nrelation (x)*e1\n"),
    # the ring may come last; expressions are read once it is known
    ("morphism [u] : x -> u^2\nideal f = x # c\nring Q[x]\n",
     "ring Q[x]\nideal f = x\nmorphism [u] : x -> u^2\n"),
    # an image ends at a top-level comma, not at one inside parentheses
    ("ring Q[x,y]\nmorphism [u,v] : y -> (u + v)*(u - v), x -> u\n",
     "ring Q[x,y]\nmorphism [u,v] : x -> u, y -> u^2 - v^2\n"),
    # a ring without variables has a morphism without images
    ("ring Q[]\nmorphism [u] :\n", "ring Q[]\nmorphism [u] : \n"),
    # zero rows print as 0*e1, or as 0 where there is no e1
    ("ring Q[x]\nmodule rank 1\nrelation x*e1 - e1*x\n",
     "ring Q[x]\nmodule rank 1\nrelation 0*e1\n"),
    ("ring Q[x]\nmodule rank 0\nrelation 0\n", "ring Q[x]\nmodule rank 0\nrelation 0\n"),
])
def test_declarations_parse(text, printed):
    assert document_text(parse_document(text)) == printed
    assert document_text(parse_document(printed)) == printed
