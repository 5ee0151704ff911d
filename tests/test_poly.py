import random
from fractions import Fraction

import pytest

from jetforge.errors import DivisionByZero, FieldMismatch, UnboundVariable
from jetforge.poly import JetVar, Monomial, Poly
from jetforge.scalars import QQ, Fp, PrimeField

X = JetVar("x", 0, 0)
Y = JetVar("y", 1, 0)


def P(v):
    return Poly.var(v)


def test_binomial_expansion():
    s = P(X) + P(Y)
    assert s * s == P(X) ** 2 + 2 * P(X) * P(Y) + P(Y) ** 2


def test_additive_identity_and_cancellation():
    p = 3 * P(X) * P(Y) - P(Y) ** 2
    assert p + Poly.zero() == p
    z = P(X) - P(X)
    assert z.is_zero() and not z.terms


def test_mixed_field_rejected():
    f5 = PrimeField(5)
    a = Poly.var(X, f5)
    with pytest.raises(FieldMismatch):
        a + P(X)
    with pytest.raises(FieldMismatch):
        Fp(1, 5) + Fp(1, 7)


def test_partial_derivative_examples():
    assert (P(X) ** 2 * P(Y)).partial(X) == 2 * P(X) * P(Y)
    assert (P(Y) ** 3).partial(X).is_zero()
    assert (P(Y) ** 2 - P(X) ** 3).partial(Y) == 2 * P(Y)


def test_eval_examples():
    f = P(X) ** 2 * P(Y)
    assert f.eval({X: 2, Y: 3}) == 12
    assert Poly.zero().eval({}) == 0
    assert (P(Y) ** 2 - P(X) ** 3).eval({X: 1, Y: 1}) == 0
    with pytest.raises(UnboundVariable):
        f.eval({X: 2})


def test_ring_axioms_random():
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            m = Monomial({v: rng.randint(0, 2) for v in (X, Y)})
            terms[m] = Fraction(rng.randint(-5, 5))
        return Poly(QQ, terms)

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_eval_is_ring_hom_random():
    rng = random.Random(11)
    for _ in range(30):
        a = P(X) ** rng.randint(0, 3) * rng.randint(-4, 4) + P(Y) * rng.randint(-4, 4)
        b = P(Y) ** rng.randint(0, 2) - rng.randint(0, 3) * P(X)
        pt = {X: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
              Y: Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    a = Poly.var(X, f7) * 3 + Poly.constant(10, f7)
    b = Poly.var(X, f7) * 5
    assert (a + b) == Poly.var(X, f7) + Poly.constant(3, f7)
    assert f7.inv(f7(3)) == f7(5)
    with pytest.raises(DivisionByZero):
        f7.inv(f7(0))


def test_canonical_rendering():
    f = P(Y) ** 2 - P(X) ** 3
    assert f.render() == "-x_0^3 + y_0^2"
    assert f.render(base_plain=True) == "-x^3 + y^2"
    g = Poly.constant(Fraction(1, 2)) * P(X) - Poly.constant(Fraction(3, 4))
    assert g.render() == "1/2*x_0 - 3/4"
    assert Poly.zero().render() == "0"
    assert JetVar("x", 0, 1, 2).render() == "x_1_2"


def test_monomial_invariants():
    m = Monomial({X: 2, Y: 0})
    assert m.exps == ((X, 2),)
    assert Monomial().is_unit()
    assert m.mul(Monomial({X: 1})).exponent(X) == 3
