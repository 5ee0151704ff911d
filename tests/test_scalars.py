"""Rational scalars are ints when integral and Fractions otherwise."""

import random
from fractions import Fraction

import pytest

from jetforge.errors import FieldMismatch
from jetforge.hsmodules import twisted_action_matrix
from jetforge.jets import hs_components
from jetforge.poly import JetVar, Monomial, Poly
from jetforge.scalars import QQ, PrimeField

X = JetVar("x", 0, 0)
Y = JetVar("y", 1, 0)


def _is_rational(c):
    return type(c) is int or type(c) is Fraction


@pytest.mark.parametrize("value", [0, 1, -7, 10**30, Fraction(6, 3), Fraction(-4, 2),
                                   Fraction(1, 2), Fraction(-5, 3), True, False])
def test_rational_constructors_return_int_when_integral(value):
    q = Fraction(value)
    made = [(QQ(value), q), (QQ.coerce(value), q), (QQ.zero, 0), (QQ.one, 1),
            (QQ.from_ratio(3 * q.numerator, 3 * q.denominator), q),
            (QQ.from_ratio(-q.numerator, -q.denominator), q)]
    if q:
        made.append((QQ.inv(value), 1 / q))
    for got, want in made:
        assert type(got) is (int if want.denominator == 1 else Fraction)
        assert got == want


def test_rational_render_and_contains_are_unchanged():
    for c, text in ((3, "3"), (-3, "-3"), (Fraction(3, 1), "3"), (Fraction(-2, 4), "-1/2")):
        assert QQ.contains(c) and QQ.render(c) == text
    assert not QQ.contains(0.5)
    with pytest.raises(FieldMismatch):
        QQ.coerce(0.5)


def test_calling_a_field_converts_as_coerce_does():
    """field(c) is field.coerce(c): ints and the field's own scalars
    convert, and anything else, a float or a scalar of another field,
    raises FieldMismatch either way."""
    f7, f5 = PrimeField(7), PrimeField(5)
    for field, good, bad in ((QQ, [3, True, Fraction(4, 2), Fraction(1, 3)],
                              [0.5, 2.0, "1/2", f7(3)]),
                             (f7, [3, -1, True, f7(10)], [0.5, Fraction(1, 2), f5(3), "3"])):
        for c in good:
            assert field(c) == field.coerce(c)
            assert type(field(c)) is type(field.coerce(c))
        for c in bad:
            for convert in (field, field.coerce):
                with pytest.raises(FieldMismatch):
                    convert(c)


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
        results += [e for row in twisted_action_matrix(g, n).entries for e in row]
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
