import copy
import pickle
import random
from fractions import Fraction
from math import isqrt

import pytest

from jetforge.errors import DivisionByZero, FieldMismatch, UnboundVariable
from jetforge.jets import hs_components
from jetforge.poly import UNIT, JetVar, Monomial, Poly
from jetforge.scalars import QQ, Fp, PrimeField, is_prime
from oracles import naive_eval, naive_partial

X = JetVar("x", 0, 0)
Y = JetVar("y", 1, 0)


def P(v):
    return Poly.var(v)


def test_binomial_expansion():
    s = P(X) + P(Y)
    assert s * s == P(X) ** 2 + 2 * P(X) * P(Y) + P(Y) ** 2


def _in_order(field, *terms):
    """A Poly whose term dict holds terms, (exponent dict, coefficient)
    pairs, in the given order."""
    return Poly(field, [(Monomial(exps), c) for exps, c in terms])


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=lambda f: f.name)
def test_product_cancels_a_monomial_and_writes_it_again(field):
    """(x + y + 1)(y - x + xy): the running sum of x*y reaches zero at
    y * -x, and 1 * xy writes it again, with no stale or zero entry left;
    (x + y)(x - y) cancels x*y for good."""
    x, y = {X: 1}, {Y: 1}
    a = _in_order(field, (x, 1), (y, 1), ({}, 1))
    b = _in_order(field, (y, 1), (x, -1), ({X: 1, Y: 1}, 1))
    want = _in_order(field, ({X: 2}, -1), ({X: 2, Y: 1}, 1), ({Y: 2}, 1), ({X: 1, Y: 2}, 1),
                     (y, 1), (x, -1), ({X: 1, Y: 1}, 1))
    product = a * b
    assert product.terms == want.terms and all(product.terms.values())
    assert product.terms[Monomial({X: 1, Y: 1})] == field.one
    difference = _in_order(field, (x, 1), (y, 1)) * _in_order(field, (x, 1), (y, -1))
    assert difference.terms == _in_order(field, ({X: 2}, 1), ({Y: 2}, -1)).terms


def test_additive_identity_and_cancellation():
    p = 3 * P(X) * P(Y) - P(Y) ** 2
    assert p + Poly.zero() == p
    z = P(X) - P(X)
    assert z.is_zero() and not z.terms
    assert 1 - P(X) == Poly.constant(1) - P(X) == -(P(X) - 1)


def test_mixed_field_rejected():
    f5 = PrimeField(5)
    a = Poly.var(X, f5)
    with pytest.raises(FieldMismatch):
        a + P(X)
    with pytest.raises(FieldMismatch):
        Fp(1, 5) + Fp(1, 7)
    for other in ("x", 0.5, X):
        with pytest.raises(TypeError, match="expected Poly"):
            P(X) + other


def test_partial_derivative_examples():
    assert (P(X) ** 2 * P(Y)).partial(X) == 2 * P(X) * P(Y)
    assert (P(Y) ** 3).partial(X).is_zero()
    assert (P(Y) ** 2 - P(X) ** 3).partial(Y) == 2 * P(Y)


FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(2147483647)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_gradient_matches_per_variable_reference(field):
    """Poly.gradient and Poly.partial against the term-by-term derivative,
    over Q and F_p, with exponents past p so that c * e vanishes mod p."""
    rng = random.Random(20261020)
    variables = [X, Y, JetVar("x", 0, 1), JetVar("z", 2, 0), JetVar("y", 1, 1, 2)]
    top = 5 if field is QQ or field.p > 7 else 2 * field.p + 1
    if field is QQ:
        def coefficient():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    else:
        def coefficient():
            return rng.randrange(field.p)
    for _ in range(60):
        f = Poly(field, {Monomial({v: rng.randint(0, top) for v in rng.sample(variables, 3)}):
                         coefficient() for _ in range(rng.randint(0, 6))})
        gens = rng.sample(variables, rng.randint(0, len(variables)))
        got = f.gradient(gens)
        want = [naive_partial(f, v) for v in gens]
        assert got == want and [f.partial(v) for v in gens] == want
        assert [p.render() for p in got] == [p.render() for p in want]
        assert all(p.field is field for p in got)
    if field is not QQ:
        xp = Poly.var(X, field) ** field.p
        assert xp.gradient([X]) == [Poly.zero(field)]
        dx, dy = (xp * Poly.var(Y, field)).gradient([X, Y])
        assert dx.is_zero() and dy == xp
        assert (xp * Poly.var(X, field)).partial(X) == xp


def test_gradient_keeps_integral_rationals_as_ints():
    half = Fraction(1, 2) * P(X) ** 2 * P(Y) + Fraction(1, 3) * P(Y) ** 3
    dx, dy = half.gradient([X, Y])
    assert dx == P(X) * P(Y) and dy == Fraction(1, 2) * P(X) ** 2 + P(Y) ** 2
    assert [type(c) for c in dx.terms.values()] == [int]
    assert set(map(type, dy.terms.values())) == {int, Fraction}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=lambda f: f.name)
def test_poly_copies_and_pickles(field):
    """copy, deepcopy and every pickle protocol give an equal Poly with the
    same terms in the same order; Q comes back as the one QQ."""
    lead = Fraction(-5, 3) if field is QQ else 4
    p = Poly(field, {Monomial({X: 2, Y: 1}): lead, Monomial({JetVar("y", 1, 2): 1}): 3, UNIT: 1})
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for q in (p, Poly.zero(field)):
        copies = [copy.copy(q), copy.deepcopy(q)] + [pickle.loads(pickle.dumps(q, k))
                                                     for k in protocols]
        for c in copies:
            assert type(c) is Poly and c == q and c.render() == q.render()
            assert list(c.terms.items()) == list(q.terms.items())
            assert (c.field is QQ) if field is QQ else (c.field == field)
            with pytest.raises(AttributeError, match="^Poly is immutable$"):
                c.terms = {}
    assert copy.deepcopy(QQ) is QQ and pickle.loads(pickle.dumps(QQ)) is QQ


def test_eval_examples():
    f = P(X) ** 2 * P(Y)
    assert f.eval({X: 2, Y: 3}) == 12
    assert Poly.zero().eval({}) == 0
    assert (P(Y) ** 2 - P(X) ** 3).eval({X: 1, Y: 1}) == 0
    with pytest.raises(UnboundVariable, match="y_0"):
        f.eval({X: 2})
    with pytest.raises(UnboundVariable, match="y_0"):  # the first one in term order
        (P(Y) ** 3 + P(X) * P(Y)).eval({})


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
    assert f7.inv(f7.coerce(3)) == f7.coerce(5)
    assert Fp(2, 7) - Fp(5, 7) == Fp(2, 7) - 5 == Fp(4, 7)
    with pytest.raises(FieldMismatch):
        Fp(2, 7) - Fp(2, 5)
    with pytest.raises(DivisionByZero):
        f7.inv(f7.coerce(0))


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
    assert m == ((X, 2),)
    assert not Monomial()
    assert m.mul(Monomial({X: 1})).exponent(X) == 3


def test_monomial_order_breaks_ties_on_name():
    # a source x and a target u share (index, order1, order2)
    x, u = JetVar("x", 0, 0), JetVar("u", 0, 0)
    xu, ux = P(x) * P(u), P(u) * P(x)
    assert xu == ux
    assert (xu - ux).is_zero()
    assert xu.render() == "u_0*x_0"
    assert Monomial({x: 1, u: 2}) == ((u, 2), (x, 1))
    assert Monomial({x: 1}).mul(Monomial({u: 2})) == Monomial({u: 2, x: 1})
    assert hash(Monomial({x: 1}).mul(Monomial({u: 2}))) == hash(Monomial({u: 2, x: 1}))
    assert (P(x) + P(u)).vars() == [u, x]


def test_jet_variables_hash_once_and_round_trip():
    v = JetVar("x", 2, 1, 3)
    assert v == JetVar("x", 2, 1, 3) and hash(v) == hash(JetVar("x", 2, 1, 3))
    assert repr(v) == "JetVar(name='x', index=2, order1=1, order2=3)"
    assert "%s" % v == "x_1_3"
    m = Monomial({v: 2, X: 1})
    assert pickle.loads(pickle.dumps(m)) == m
    assert m.divide_by_var(v) == Monomial({v: 1, X: 1})
    assert not m.divide_by_var(X).divide_by_var(v).divide_by_var(v)
    assert m.divide_by_var(Y) is None
    with pytest.raises(ValueError):
        JetVar("x", 0, -1)


def test_jet_variables_are_interned():
    v = JetVar("x", 2, 1, 3)
    assert JetVar("x", 2, 1, 3) is v
    assert JetVar(name="x", index=2, order1=1, order2=3) is v
    assert JetVar("x", 2, order2=3, order1=1) is v
    assert JetVar("y", 0) is JetVar("y", 0, 0) is JetVar("y", 0, 0, None)
    for w in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v),
              pickle.loads(pickle.dumps(Monomial({v: 2})))[0][0]):
        assert w is v
    specs = [("x", 2, 1, 3), ("y", 2, 1, 3), ("x", 1, 1, 3), ("x", 2, 0, 3), ("x", 2, 1, 0),
             ("x", 2, 1, None)]
    assert len({id(JetVar(*spec)) for spec in specs}) == len(specs)


def test_jet_variable_sort_key_order():
    # index first, then order1, then order2 with a missing order2 first, then the name
    ordered = [JetVar("z", 0, 0), JetVar("a", 0, 1), JetVar("b", 0, 1), JetVar("a", 0, 2, None),
               JetVar("a", 0, 2, 0), JetVar("a", 0, 2, 5), JetVar("a", 1, 0)]
    assert [v.sort_key() for v in ordered] == [
        (0, 0, -1, "z"), (0, 1, -1, "a"), (0, 1, -1, "b"), (0, 2, -1, "a"), (0, 2, 0, "a"),
        (0, 2, 5, "a"), (1, 0, -1, "a")]
    for seed in range(5):
        shuffled = list(ordered)
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled, key=JetVar.sort_key) == ordered
        assert sorted(set(shuffled), key=JetVar.sort_key) == ordered


def test_jet_variables_are_immutable():
    v = JetVar("x", 0, 1)
    for attr in ("name", "index", "order1", "order2", "_key", "other"):
        with pytest.raises(AttributeError):
            setattr(v, attr, 0)
        with pytest.raises(AttributeError):
            delattr(v, attr)
    assert (v.name, v.index, v.order1, v.order2) == ("x", 0, 1, None)
    assert JetVar("x", 0, 1) is v and v.render() == "x_1"


def test_monomial_adds_repeated_variables():
    assert Monomial([(X, 1), (X, 2)]) == Monomial({X: 3})
    assert Monomial([(X, 1), (X, 2)]).render() == "x_0^3"
    assert hash(Monomial([(X, 1), (Y, 1), (X, 2)])) == hash(Monomial({X: 3, Y: 1}))
    assert Monomial([(X, 2), (Y, 1), (X, -2)]) == Monomial({Y: 1})
    assert not Monomial([(X, 0), (X, 0)])
    with pytest.raises(ValueError):
        Monomial([(X, 1), (X, -2)])
    with pytest.raises(ValueError):
        Monomial({X: -1})


def test_rename_merging_variables_adds_exponents():
    z = JetVar("z", 2, 0)
    assert (P(X) * P(Y)).rename({X: z, Y: z}) == P(z) ** 2
    assert (P(X) * P(Y)).rename({X: z, Y: z}).render() == "z_0^2"
    assert (P(X) ** 2 * P(Y) - 3 * P(Y) ** 3).rename({X: Y}) == -2 * P(Y) ** 3
    assert (P(X) - P(Y)).rename({X: Y}).is_zero()


def test_eval_over_prime_fields():
    f7, f2 = PrimeField(7), PrimeField(2)
    x7, y7 = Poly.var(X, f7), Poly.var(Y, f7)
    assert (3 * x7).eval({X: 2}) == Fp(6, 7)
    assert (x7 ** 3 - y7 ** 2).eval({X: 3, Y: 5}) == Fp(2, 7)   # 27 - 25
    assert (x7 * y7 + 4).eval({X: Fp(5, 7), Y: -1}) == Fp(6, 7)  # -5 + 4 = -1
    x2 = Poly.var(X, f2)
    assert (x2 ** 2 + x2 + 1).eval({X: 1}) == Fp(1, 2)
    assert (x2 ** 3 + x2).eval({X: 1}) == Fp(0, 2)
    assert Fp(3, 7) ** 2 == Fp(2, 7) and Fp(3, 7) ** 0 == Fp(1, 7)
    with pytest.raises(ValueError):
        Fp(3, 7) ** -1
    with pytest.raises(FieldMismatch):
        x7.eval({X: Fp(1, 5)})


def _random_point(rng, variables, field):
    if field is QQ:
        kinds = (lambda: 0, lambda: rng.randint(-9, -1),
                 lambda: Fraction(rng.randint(-9, 9), rng.randint(2, 7)))
    else:
        kinds = (lambda: 0, lambda: rng.randint(-9, -1), lambda: rng.randrange(10 ** 12))
    return {v: rng.choice(kinds)() for v in variables}


def test_eval_matches_naive_oracle():
    rng = random.Random(20240531)
    base = [JetVar(x, i, 0) for i, x in enumerate("xyz")]
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(2147483647)):
        def coefficient():
            if field is QQ:
                return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
            return field.coerce(rng.randrange(-10 ** 12, 10 ** 12))

        for _ in range(12):
            terms = {Monomial({v: rng.randint(0, 3) for v in base}): coefficient()
                     for _ in range(rng.randint(1, 5))}
            f = Poly(field, terms)
            polys = hs_components(f, rng.randint(0, 3)) + [
                Poly.zero(field), Poly.constant(coefficient(), field)]
            for p in polys:
                for _ in range(3):
                    pt = _random_point(rng, p.vars(), field)
                    want = naive_eval(p, pt)
                    if field is QQ:
                        assert p.eval(pt) == want
                    else:
                        assert want.denominator == 1
                        assert p.eval(pt) == field.coerce(want.numerator)
                if p.vars():
                    pt = _random_point(rng, p.vars()[:-1], field)
                    with pytest.raises(UnboundVariable):
                        p.eval(pt)


def _eval_family(rng, variables, coefficient):
    """Term dicts over variables: random ones, a zero and a constant, and
    one monomial shared by several of them."""
    shared = Monomial({v: 2 for v in variables[:2]})
    family = [{}, {UNIT: coefficient()}]
    for _ in range(rng.randint(1, 6)):
        terms = {Monomial({v: rng.randint(0, 3) for v in variables}): coefficient()
                 for _ in range(rng.randint(0, 5))}
        if rng.random() < 0.5:
            terms[shared] = coefficient()
        family.append(terms)
    rng.shuffle(family)
    return family


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), PrimeField(2147483647)],
                         ids=lambda f: f.name)
def test_eval_points_matches_reference(field):
    """``Poly.eval`` against Fraction arithmetic over Q and against residues
    mod p over F_p, on families with a shared monomial, a zero and a
    constant, sometimes with no variables at all."""
    rng = random.Random(20261018)
    for _ in range(40):
        variables = [JetVar(x, i, rng.randint(0, 2)) for i, x in enumerate("xyz")]
        variables = variables[:rng.randint(0, 3)]
        if field is QQ:
            def coefficient():
                return QQ.coerce(Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12)))

            def coordinate():
                return rng.randint(-9, 9), rng.randint(1, 8)
        else:
            def coefficient():
                return field.coerce(rng.randrange(1, field.p) if field.p > 2 else 1)

            def coordinate():
                return rng.randrange(field.p), 1
        family = _eval_family(rng, variables, coefficient)
        points = [[coordinate() for _ in variables] for _ in range(rng.randint(1, 20))]
        for terms in family:
            p = Poly(field, terms)
            for point in points:
                want = naive_eval(p, {v: Fraction(*x) for v, x in zip(variables, point)})
                got = p.eval({v: field.from_ratio(*x) for v, x in zip(variables, point)})
                if field is QQ:
                    assert got == want
                else:
                    assert want.denominator == 1
                    assert got == field.coerce(want.numerator)


def test_eval_names_the_first_unbound_variable():
    f = P(Y) ** 3 + P(X) * P(Y)
    with pytest.raises(UnboundVariable, match="^no value for x_0$"):
        f.eval({Y: 1})
    with pytest.raises(UnboundVariable, match="^no value for y_0$"):
        f.eval({X: 1})


def test_is_prime_matches_sieve_and_trial_division():
    limit = 200000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]

    def trial_division(n):
        return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))

    # 25326001 is a strong pseudoprime to bases 2, 3 and 5; 2147483641 = 2699 * 795659
    for n, prime in ((2147483647, True), (2147483629, True), (2147483645, False),
                     (2147483641, False), (25326001, False)):
        assert is_prime(n) == trial_division(n) == prime
    assert PrimeField(2147483647).name == "F2147483647"
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(2147483645)
    with pytest.raises(ValueError, match="out of range"):
        PrimeField(2 ** 31)


def test_monomial_is_the_tuple_of_its_pairs():
    m = Monomial({Y: 1, X: 2})
    pairs = ((X, 2), (Y, 1))
    assert isinstance(m, tuple) and m == pairs and pairs == m
    assert hash(m) == hash(pairs) and {pairs: 1}[m] == 1
    assert len(m) == 2 and len(UNIT) == 0
    assert not UNIT and UNIT == () and m
    for w in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert type(w) is Monomial and w == m and hash(w) == hash(m)
        assert w[0][0] is X and w.render() == "x_0^2*y_0"
    assert repr(m) == "Monomial(x_0^2*y_0)" and repr(UNIT) == "Monomial(1)"
    assert m.mul(UNIT) is m and UNIT.mul(m) is m
    assert type(m.mul(Monomial({Y: 1}))) is Monomial and type(m.divide_by_var(X)) is Monomial
    with pytest.raises(AttributeError, match="^Monomial is immutable$"):
        m.other = ()
    with pytest.raises(AttributeError, match="^Monomial is immutable$"):
        del m.other


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=lambda f: f.name)
def test_substitute_matches_term_by_term_formula(field):
    """Poly.substitute against the formula it replaced: a running sum that
    adds each term, with every power recomputed per term."""
    def term_by_term(f, mapping):
        out = Poly.zero(f.field)
        for m, c in f.terms.items():
            term = Poly.constant(c, f.field)
            for v, e in m:
                repl = mapping.get(v)
                if repl is None:
                    repl = Poly.var(v, f.field)
                term = term * repl ** e
            out = out + term
        return out

    rng = random.Random(20261019)
    u, w, z = JetVar("u", 0, 0), JetVar("w", 1, 0), JetVar("z", 2, 0)

    def poly(variables, terms):
        return Poly(field, {Monomial({v: rng.randint(0, 3) for v in variables}):
                            rng.randint(-4, 4) for _ in range(rng.randint(0, terms))})

    for _ in range(40):
        f = poly((X, Y, z), 6)
        mapping = {v: poly((u, w, X), 3) for v in rng.sample((X, Y), rng.randint(0, 2))}
        got = f.substitute(mapping)
        want = term_by_term(f, mapping)
        assert got == want and got.render() == want.render()
        assert list(got.terms) == list(want.terms)
    cancelling = P(X) ** 2 - P(Y) ** 2
    assert cancelling.substitute({Y: P(X)}).is_zero()
    with pytest.raises(FieldMismatch):
        (P(X) * P(Y)).substitute({X: Poly.var(u, PrimeField(5))})


def test_zero_operands_return_without_arithmetic(monkeypatch):
    p = 3 * P(X) * P(Y) - P(Y) ** 2
    zero = Poly.zero()
    assert p + zero is p and zero + p is p
    assert p - zero == p and (zero - p) == -p

    def no_products(*_):
        raise AssertionError("a product with a zero operand multiplied monomials")

    monkeypatch.setattr(Monomial, "mul", no_products)
    assert (p * zero).is_zero() and (zero * p).is_zero() and (zero * zero).is_zero()
    f5 = PrimeField(5)
    for a, b in ((Poly.zero(f5), p), (p, Poly.zero(f5)), (zero, Poly.var(X, f5))):
        with pytest.raises(FieldMismatch):
            a + b
        with pytest.raises(FieldMismatch):
            a * b


def test_substitute_stops_a_term_at_a_zero_image(monkeypatch):
    z = JetVar("z", 2, 0)
    f = P(X) * P(Y) ** 2 * P(z) ** 3 + P(Y) - 2 * P(z)
    products = []
    multiply = Poly.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    got = f.substitute({X: Poly.zero(), z: P(Y) + 1})
    monkeypatch.undo()
    assert got == P(Y) - 2 * P(Y) - 2
    # x*y^2*z^3 stops after its first factor; y and z make one product each
    assert len([a for a, b in products if b.is_zero()]) == 1
    assert not any(a.is_zero() for a, _ in products)
    with pytest.raises(FieldMismatch):
        f.substitute({X: Poly.zero(PrimeField(5))})
