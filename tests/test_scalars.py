"""Rational scalars are ints when integral and Fractions otherwise; there
is one object per field."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from jetforge.dsl import parse_document
from jetforge.errors import DivisionByZero, FieldMismatch
from jetforge.hsmodules import upper_triangle
from jetforge.jets import hs_components
from jetforge.poly import JetVar, Monomial, Poly
from jetforge.scalars import QQ, Fp, PrimeField, Rationals, field_by_name

X = JetVar("x", 0, 0)
Y = JetVar("y", 1, 0)


def _is_rational(c):
    return type(c) is int or type(c) is Fraction


@pytest.mark.parametrize("value", [0, 1, -7, 10**30, Fraction(6, 3), Fraction(-4, 2),
                                   Fraction(1, 2), Fraction(-5, 3), True, False])
def test_rational_constructors_return_int_when_integral(value):
    q = Fraction(value)
    made = [(QQ.coerce(value), q), (QQ.zero, 0), (QQ.one, 1),
            (QQ.from_ratio(3 * q.numerator, 3 * q.denominator), q),
            (QQ.from_ratio(-q.numerator, -q.denominator), q)]
    if q:
        made.append((QQ.inv(value), 1 / q))
    else:
        with pytest.raises(DivisionByZero, match="inverse of 0 in Q"):
            QQ.inv(value)
    for got, want in made:
        assert type(got) is (int if want.denominator == 1 else Fraction)
        assert got == want


def test_rational_render_and_contains_are_unchanged():
    for c, text in ((3, "3"), (-3, "-3"), (Fraction(3, 1), "3"), (Fraction(-2, 4), "-1/2")):
        assert QQ.contains(c) and QQ.render(c) == text
    assert not QQ.contains(0.5)
    with pytest.raises(FieldMismatch):
        QQ.coerce(0.5)


def test_coerce_is_the_one_conversion_into_a_field():
    """field.coerce(c) converts ints and the field's own scalars, and
    anything else, a float or a scalar of another field, raises
    FieldMismatch; a field is not callable, so there is no second way."""
    f7, f5 = PrimeField(7), PrimeField(5)
    for field, good, bad in ((QQ, [(3, 3), (True, 1), (Fraction(4, 2), 2),
                                   (Fraction(1, 3), Fraction(1, 3))],
                              [0.5, 2.0, "1/2", f7.coerce(3)]),
                             (f7, [(3, 3), (-1, 6), (True, 1), (f7.coerce(10), 3)],
                              [0.5, Fraction(1, 2), f5.coerce(3), "3"])):
        assert not callable(field)
        for c, want in good:
            got = field.coerce(c)
            assert got == want and type(got) is (type(want) if field is QQ else Fp)
        for c in bad:
            with pytest.raises(FieldMismatch):
                field.coerce(c)


def _random_poly(rng, terms):
    out = {}
    for _ in range(terms):
        m = Monomial({X: rng.randint(0, 3), Y: rng.randint(0, 2)})
        out[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Poly(QQ, out)


def test_arithmetic_yields_only_int_and_fraction_coefficients():
    rng = random.Random(11)
    seen = set()
    for _ in range(40):
        f, g = _random_poly(rng, 4), _random_poly(rng, 3)
        n = rng.randint(0, 3)
        results = [f * g, f + g, f - g, f * Fraction(rng.randint(1, 5), 2), f.partial(X),
                   g.partial(Y), *hs_components(f, n)]
        results += [e for row in upper_triangle(hs_components(g, n), Poly.zero()) for e in row]
        for p in results:
            assert p.field is QQ
            for c in p.terms.values():
                assert _is_rational(c) and c
                seen.add(type(c))
        value = f.eval({X: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        Y: rng.randint(-9, 9)})
        assert _is_rational(value)
        seen.add(type(value))
    assert seen == {int, Fraction}


def test_int_and_integral_fraction_polys_are_equal():
    three = Monomial({X: 1})
    a, b = Poly(QQ, {three: 3}), Poly(QQ, {three: Fraction(3, 1)})
    assert a == b and hash(a) == hash(b)
    assert Poly.constant(Fraction(4, 2)) == Poly.constant(2)
    assert hash(Poly.constant(Fraction(4, 2))) == hash(Poly.constant(2))
    assert len({a, b}) == 1


def test_prime_field_times_rational_poly_is_rejected():
    f7 = PrimeField(7)
    with pytest.raises(FieldMismatch):
        Poly.var(X, f7) * Poly.var(X)
    with pytest.raises(FieldMismatch):
        Poly.var(X) * Poly.constant(3, f7)


def test_one_object_per_field():
    """The constructors, the field names, pickle under every protocol, copy
    and deepcopy all give back the one object of a field."""
    f7 = PrimeField(7)
    assert f7 is PrimeField(7) is field_by_name("F7") and Rationals() is QQ is field_by_name("Q")
    assert f7 != PrimeField(5) and f7 != QQ
    for field in (QQ, f7):
        copies = [copy.copy(field), copy.deepcopy(field)]
        copies += [pickle.loads(pickle.dumps(field, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c is field for c in copies)


def test_polys_parsed_from_two_documents_are_equal():
    f, g = (parse_document("ring F7[x]\nideal f = 3x^2 + 10\n").algebra.relations[0]
            for _ in range(2))
    assert f.field is g.field is PrimeField(7)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1


@pytest.mark.parametrize("p", [7.0, 7.5, Fraction(7), "7", True, None])
def test_prime_field_rejects_a_modulus_that_is_not_an_int(p):
    """Checked before the field table is read: 7.0 would find F7 there, and
    a field built on it rendered 3*x + 10 as 3.0*x_0 + 3.0."""
    PrimeField(7)
    with pytest.raises(TypeError, match="modulus is not an int"):
        PrimeField(p)


REFUSED_FIELD_NAMES = {
    **{name: "unknown field name: %r" % name
       for name in ["F\u0667", "F\uff17", "F7\u0663", "F\u00b2", "F", "F-7"]},
    "F" + "7" * 5000: "field name longer than 4300 characters",
    "F" + "7" * 4299: "modulus out of range: " + "7" * 4299,
    "F4": "modulus is not prime: 4",
}


@pytest.mark.parametrize("name", REFUSED_FIELD_NAMES,
                         ids=lambda name: name if len(name) < 10 else "F7x%d" % (len(name) - 1))
def test_field_by_name_refuses(name):
    """F followed by an Arabic-Indic or a fullwidth seven, or by a
    superscript two, names no field; a name longer than 4300 characters is
    refused before int() sees its digits, and one of 4300 reaches the
    modulus check.  The DSL refuses a non-ASCII tag before it gets here."""
    with pytest.raises(ValueError) as ei:
        field_by_name(name)
    assert str(ei.value) == REFUSED_FIELD_NAMES[name]
