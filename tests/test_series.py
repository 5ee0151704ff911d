import operator
import random
from fractions import Fraction

import pytest

from jetforge.errors import FieldMismatch, NonUnitLeadingCoefficient
from jetforge.localized import LocalPoly
from jetforge.poly import JetVar, Monomial, Poly, convolve
from jetforge.scalars import QQ, Fp, PrimeField
from jetforge.series import BiSeries, TruncSeries, series_invert

T0 = [JetVar("t0", 0, i) for i in range(4)]


def const(c):
    return Poly.constant(c)


def test_geometric_series():
    s = TruncSeries(2, [const(1), const(-1), const(0)])
    inv = series_invert(s)
    assert list(inv.coeffs) == [const(1), const(1), const(1)]
    assert s * inv == s.one_like()


def test_scalar_inverse_level0():
    s = TruncSeries(0, [const(2)])
    assert series_invert(s).coeffs[0] == const(Fraction(1, 2))


def test_localized_inversion_of_jet_series():
    # invert sum t0^(i) s^i over the ring localized at t0^(0)
    u = T0[0]
    s = TruncSeries(2, [LocalPoly(Poly.var(T0[i]), u) for i in range(3)])
    inv = series_invert(s)
    t00, t01, t02 = (Poly.var(T0[i]) for i in range(3))
    assert inv.coeffs[0] == LocalPoly(const(1), u, 1)
    assert inv.coeffs[1] == LocalPoly(-t01, u, 2)
    assert inv.coeffs[2] == LocalPoly(t01 ** 2 - t00 * t02, u, 3)
    # multiply back: the product must be 1 mod s^3
    assert s * inv == s.one_like()


def test_non_unit_leading_coefficient():
    x = Poly.var(JetVar("x", 0, 0))
    with pytest.raises(NonUnitLeadingCoefficient):
        series_invert(TruncSeries(1, [x, const(1)]))
    with pytest.raises(NonUnitLeadingCoefficient):
        series_invert(TruncSeries(1, [const(0), const(1)]))


def test_inversion_property_random_levels():
    for n in range(5):
        s = TruncSeries(n, [const(3)] + [const(i + 1) for i in range(n)])
        assert s * series_invert(s) == s.one_like()


def test_sums_and_negation():
    x, y = Poly.var(T0[1]), Poly.var(T0[2])
    a = TruncSeries(2, [x, const(1), y])
    b = TruncSeries(2, [y, x, const(-1)])
    assert a + b == TruncSeries(2, [x + y, x + const(1), y - const(1)])
    assert a - b == TruncSeries(2, [x - y, const(1) - x, y + const(1)])
    assert -a == TruncSeries(2, [-x, const(-1), -y])
    assert a - a == a + -a == TruncSeries(2, [const(0)] * 3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="series level mismatch"):
            op(a, TruncSeries(1, [x, y]))
    c = BiSeries(1, 2, [[x, const(1), y], [const(-1), x * y, const(0)]])
    d = BiSeries(1, 2, [[y, x, const(2)], [const(1), const(0), x]])
    assert (c + d).grid == [[x + y, x + const(1), y + const(2)], [const(0), x * y, x]]


def test_bi_series_of_two_shapes_do_not_add():
    """A sum of two shapes raises, naming both, in either order; it never
    drops the rows and columns the smaller shape lacks."""
    one = const(1)
    small, large = BiSeries(1, 1, [[one] * 2] * 2), BiSeries(2, 2, [[one] * 3] * 3)
    with pytest.raises(ValueError, match=r"shapes \(1, 1\) and \(2, 2\)"):
        small + large
    with pytest.raises(ValueError, match=r"shapes \(2, 2\) and \(1, 1\)"):
        large + small
    with pytest.raises(ValueError, match=r"shapes \(1, 1\) and \(1, 2\)"):
        small + BiSeries(1, 2, [[one] * 3] * 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=lambda f: f.name)
def test_products_are_the_convolution_sums(field):
    """A TruncSeries product is the double loop over the coefficients and a
    BiSeries product the fourfold loop over the grids; two shapes do not
    multiply."""
    rng = random.Random(5)
    gens = [Poly.var(v, field) for v in T0]
    zero = Poly.zero(field)

    def coeffs(size):
        return [sum((rng.choice(gens) * rng.randint(-3, 3) for _ in range(rng.randint(0, 2))),
                    zero) for _ in range(size)]

    assert convolve([1, 2, 3], [4, 5, 6]) == [4, 13, 28]
    for n in range(4):
        a, b = coeffs(n + 1), coeffs(n + 1)
        want = [sum((a[k] * b[i - k] for k in range(i + 1)), zero) for i in range(n + 1)]
        assert list((TruncSeries(n, a) * TruncSeries(n, b)).coeffs) == want
        for m in range(3):
            g, h = [coeffs(m + 1) for _ in range(n + 1)], [coeffs(m + 1) for _ in range(n + 1)]
            want = [[sum((g[k][l] * h[i - k][j - l] for k in range(i + 1) for l in range(j + 1)),
                         zero) for j in range(m + 1)] for i in range(n + 1)]
            assert (BiSeries(n, m, g) * BiSeries(n, m, h)).grid == want
    one = const(1)
    square = BiSeries(1, 1, [[one] * 2] * 2)
    for other in (BiSeries(2, 1, [[one] * 2] * 3), BiSeries(1, 2, [[one] * 3] * 2)):
        with pytest.raises(ValueError):
            square * other


def test_localpoly_normalization_idempotent():
    u = T0[0]
    up = Poly.var(u)
    a = Poly.var(T0[1]) + const(2)
    lp1 = LocalPoly(a, u, 2)
    lp2 = LocalPoly(a * up, u, 3)
    assert lp1 == lp2
    assert lp1.denom_exp == 2
    # normalization strips unit factors entirely when possible
    assert LocalPoly(a * up ** 2, u, 2) == LocalPoly(a, u, 0)
    # ... but cancels no more than the denominator holds
    lp3 = LocalPoly(up ** 3 * a, u, 2)
    assert lp3.numerator == up * a
    assert lp3.denom_exp == 0


def test_localpoly_arith_and_eval():
    u = T0[0]
    lp = LocalPoly(const(1), u, 1)  # 1/t0_0
    assert lp * LocalPoly(Poly.var(u), u) == LocalPoly(const(1), u, 0)
    assert (lp + lp) == LocalPoly(const(2), u, 1)
    assert lp.eval({u: Fraction(4)}) == Fraction(1, 4)
    from jetforge.errors import DivisionByZero
    with pytest.raises(DivisionByZero):
        lp.eval({u: 0})


def test_localpoly_eval_over_prime_fields():
    f7, f2 = PrimeField(7), PrimeField(2)
    u = T0[0]
    lp = LocalPoly(Poly.var(T0[1], f7) + Poly.constant(3, f7), u, 2)  # (t0_1 + 3)/t0_0^2
    assert lp.eval({u: 3, T0[1]: 2}) == Fp(6, 7)  # 5 / 9 = 5 * 2^-1 = 5 * 4 = 20
    lp2 = LocalPoly(Poly.var(T0[1], f2) ** 2 + Poly.var(T0[1], f2) + Poly.constant(1, f2), u, 2)
    assert lp2.eval({u: 1, T0[1]: 1}) == Fp(1, 2)


def test_localpoly_render():
    u = T0[0]
    assert LocalPoly(-Poly.var(T0[1]), u, 2).render() == "(-t0_1)/t0_0^2"
    assert LocalPoly(const(5), u, 0).render() == "5"


def _count_products(monkeypatch, cls):
    calls = []
    mul = cls.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


def test_power_matches_repeated_multiplication(monkeypatch):
    x, y = Poly.var(T0[1]), Poly.var(T0[2])
    cases = [
        (TruncSeries(3, [x + const(1), y, x * y - const(2), const(3)]), lambda a: a.coeffs),
        (BiSeries(1, 2, [[x, const(1), y], [const(-1), x * y, const(0)]]), lambda a: a.grid),
        (x - y * 2 + const(1), lambda a: a),
    ]
    for base, view in cases:
        one = base.unit_one() if isinstance(base, Poly) else base.one_like()
        powers = [one]
        for _ in range(9):
            powers.append(powers[-1] * base)
        calls = _count_products(monkeypatch, type(base))
        for e, want in enumerate(powers):
            del calls[:]
            assert view(base ** e) == view(want)
            # one product per squaring and one per set bit after the lowest
            assert len(calls) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)
        assert base ** 1 is base
        with pytest.raises(ValueError):
            base ** -1


def test_localpoly_add_scales_only_the_smaller_denominator(monkeypatch):
    u = T0[0]
    a, b = Poly.var(T0[1]), Poly.var(T0[2]) + const(3)
    want_same = LocalPoly(a + b, u, 2)
    want_mixed = LocalPoly(a + b * Poly.var(u) ** 2, u, 2)
    products = _count_products(monkeypatch, Poly)
    shifted = []
    mul = Monomial.mul
    monkeypatch.setattr(Monomial, "mul", lambda m, n: shifted.append(m) or mul(m, n))
    assert LocalPoly(a, u, 2) + LocalPoly(b, u, 2) == want_same
    assert shifted == []
    # the numerator over the smaller denominator is shifted term by term
    assert LocalPoly(a, u, 2) + LocalPoly(b, u, 0) == want_mixed
    assert sorted(m.render() for m in shifted) == ["1", "t0_2"]
    assert products == []


def _old_localpoly(numerator, u, denom_exp):
    """LocalPoly normalization as one division by u per step."""
    while denom_exp and numerator.terms and all(m.exponent(u) for m in numerator.terms):
        numerator = Poly(numerator.field, {m.divide_by_var(u): c
                                           for m, c in numerator.terms.items()})
        denom_exp -= 1
    return numerator, denom_exp if numerator.terms else 0


def test_localpoly_shift_matches_power_products():
    # sums and inverses equal the u ** k products they replace
    rng = random.Random(11)
    u = T0[0]
    for field in (QQ, PrimeField(2), PrimeField(7)):
        gens = [Poly.var(v, field) for v in T0]
        up = gens[0]

        def numerator():
            p = Poly.zero(field)
            for _ in range(rng.randint(0, 4)):
                t = Poly.constant(rng.randint(-5, 5), field)
                for _ in range(rng.randint(0, 4)):
                    t = t * rng.choice(gens)
                p = p + t
            return p

        for _ in range(60):
            a, b = numerator(), numerator()
            ea, eb = rng.randint(0, 3), rng.randint(0, 3)
            x, y = LocalPoly(a, u, ea), LocalPoly(b, u, eb)
            e = max(x.denom_exp, y.denom_exp)
            want = _old_localpoly(x.numerator * up ** (e - x.denom_exp)
                                  + y.numerator * up ** (e - y.denom_exp), u, e)
            got = x + y
            assert (got.numerator, got.denom_exp) == want
            assert (x.numerator, x.denom_exp) == _old_localpoly(a, u, ea)
            c = Poly.constant(rng.choice([1, 3, -5]), field)  # a unit in Q, F2 and F7
            unit = LocalPoly(c * up ** rng.randint(0, 3), u, rng.randint(0, 3))
            (mono, coeff), = unit.numerator.terms.items()
            want = _old_localpoly(Poly.constant(field.inv(coeff), field) * up ** unit.denom_exp,
                                  u, mono.exponent(u))
            inv = unit.unit_inverse()
            assert (inv.numerator, inv.denom_exp) == want
            assert unit * inv == LocalPoly(Poly.constant(1, field), u)


def _in_lowest_terms(lp):
    """Zero has denominator 0, and a positive denominator leaves some
    numerator term free of the unit variable."""
    if lp.numerator.is_zero():
        return lp.denom_exp == 0
    return not lp.denom_exp or any(not m.exponent(lp.unit_var) for m in lp.numerator.terms)


def test_localpoly_reduction_scans_past_the_first_term():
    """u's exponents need not fall in dict order: (u^2 t1 + t2 + u t3)/u^3
    is reduced, since t2 has no u, though its first term has u^2; and in
    (u^2 t1 + u t3 + u^3)/u^3 the common power u comes from the second term."""
    u, t1, t2, t3 = T0
    first = Poly(QQ, [(Monomial({u: 2, t1: 1}), 1), (Monomial({t2: 1}), 1),
                      (Monomial({u: 1, t3: 1}), 1)])
    lp = LocalPoly(first, u, 3)
    assert (list(lp.numerator.terms.items()), lp.denom_exp) == (list(first.terms.items()), 3)
    second = Poly(QQ, [(Monomial({u: 2, t1: 1}), 1), (Monomial({u: 1, t3: 1}), 2),
                       (Monomial({u: 3}), 3)])
    lp = LocalPoly(second, u, 3)
    assert (lp.numerator, lp.denom_exp) == _old_localpoly(second, u, 3)
    assert (lp.numerator, lp.denom_exp) == (Poly(QQ, [(Monomial({u: 1, t1: 1}), 1),
                                                      (Monomial({t3: 1}), 2),
                                                      (Monomial({u: 2}), 3)]), 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(7)],
                         ids=lambda f: f.name)
def test_localpoly_arithmetic_keeps_lowest_terms(field):
    # each result equals the normalizing constructor on its raw numerator
    rng = random.Random(20)
    u = T0[0]
    gens = [Poly.var(v, field) for v in T0]
    up = gens[0]

    def operand():
        p = Poly.zero(field)
        for _ in range(rng.randint(0, 3)):  # zero numerators too
            t = Poly.constant(rng.randint(-4, 4), field)
            for _ in range(rng.randint(0, 3)):
                t = t * rng.choice(gens)
            p = p + t
        # numerators divisible by u, over denominators 0..3
        return LocalPoly(p * up ** rng.randint(0, 2), u, rng.randint(0, 3))

    for _ in range(150):
        x, y = operand(), operand()
        assert _in_lowest_terms(x) and _in_lowest_terms(y)
        for a, b in ((x, y), (y, x)):
            e = max(a.denom_exp, b.denom_exp)
            na, nb = a.numerator * up ** (e - a.denom_exp), b.numerator * up ** (e - b.denom_exp)
            c = rng.randint(-2, 2)
            cases = [(a + b, na + nb, e), (a - b, na - nb, e), (-a, -a.numerator, a.denom_exp),
                     (a * b, a.numerator * b.numerator, a.denom_exp + b.denom_exp),
                     (a * c, a.numerator * c, a.denom_exp)]
            for got, raw, exp in cases:
                want = LocalPoly(raw, u, exp)
                assert (got.numerator, got.denom_exp) == (want.numerator, want.denom_exp)
                assert _in_lowest_terms(got)


def test_localpoly_zero_sum_checks_the_field():
    u = T0[0]
    seven = LocalPoly(Poly.var(T0[1], PrimeField(7)), u, 1)
    for zero in (LocalPoly(Poly.zero(QQ), u), LocalPoly(Poly.zero(QQ), u, 2)):
        with pytest.raises(FieldMismatch):
            seven + zero
        with pytest.raises(FieldMismatch):
            zero + seven


def test_localpoly_operands():
    """A LocalPoly over the same unit variable is taken as it is, a Poly is
    localized, one over another unit variable is a FieldMismatch and
    anything else a TypeError."""
    u, t1 = T0[0], T0[1]
    a = LocalPoly(Poly.var(t1), u, 1)
    assert a._check(a) is a
    assert a + Poly.var(u) == LocalPoly(Poly.var(t1) + Poly.var(u) ** 2, u, 1)
    other = LocalPoly(Poly.var(u), t1, 1)
    for op in (lambda: a + other, lambda: a * other, lambda: a - other):
        with pytest.raises(FieldMismatch):
            op()
    for bad in (0.5, "x", None):
        with pytest.raises(TypeError):
            a * bad
