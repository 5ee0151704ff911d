import random
import time
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest

from jetforge.errors import BadLevels, MissingGrading, NotABaseElement
from jetforge import jets
from jetforge.checks import bigrade_commute_check, cotruncation_subset_check, points_agree
from jetforge.hsmodules import kaehler_presentation
from jetforge.jets import (AlgebraMorphism, AlgebraPresentation, hs_components,
                           induced_morphism, jet_again, jet_presentation)
from jetforge.poly import JetVar, Monomial, Poly
from jetforge.scalars import QQ, PrimeField

from oracles import SIGMA, TAU, naive_components, naive_hs_components

X = JetVar("x", 0, 0)
Y = JetVar("y", 1, 0)


def structural(v):
    """The structural weight of a jet variable: its jet order."""
    return v.order1


def jv(name, i, j=None):
    idx = {"x": 0, "y": 1}[name]
    return JetVar(name, idx, i, j)


def P(*args):
    return Poly.var(jv(*args))


def cusp():
    return AlgebraPresentation(["x", "y"], [P("y", 0) ** 2 - P("x", 0) ** 3])


# -- hs_components ----------------------------------------------------


def test_product_rule_level1():
    comps = hs_components(P("x", 0) * P("y", 0), 1)
    assert comps[0] == P("x", 0) * P("y", 0)
    assert comps[1] == P("x", 0) * P("y", 1) + P("x", 1) * P("y", 0)


def test_constant_components():
    comps = hs_components(Poly.constant(Fraction(5, 2)), 3)
    assert comps[0] == Poly.constant(Fraction(5, 2))
    assert all(c.is_zero() for c in comps[1:])


def test_cusp_components_match_naive_oracle():
    f = P("y", 0) ** 2 - P("x", 0) ** 3
    got = hs_components(f, 2)
    want = naive_hs_components(f, 2)
    assert got == want
    assert got[2] == (2 * P("y", 0) * P("y", 2) + P("y", 1) ** 2
                      - 3 * P("x", 0) ** 2 * P("x", 2) - 3 * P("x", 0) * P("x", 1) ** 2)
    rng = random.Random(3)
    assert points_agree(rng, got, want)


def test_rejects_jet_variables():
    with pytest.raises(NotABaseElement):
        hs_components(P("x", 1), 2)


def test_leibniz_and_linearity_random():
    rng = random.Random(5)
    for _ in range(25):
        f = P("x", 0) ** rng.randint(0, 2) * rng.randint(-3, 3) + P("y", 0) * rng.randint(-3, 3)
        g = P("y", 0) ** rng.randint(0, 2) - rng.randint(0, 2) * P("x", 0)
        n = rng.randint(0, 3)
        cf, cg = hs_components(f, n), hs_components(g, n)
        cfg = hs_components(f * g, n)
        for i in range(n + 1):
            assert cfg[i] == sum((cf[k] * cg[i - k] for k in range(i + 1)), Poly.zero(QQ))
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        mix = hs_components(f * a + g * b, n)
        for i in range(n + 1):
            assert mix[i] == cf[i] * a + cg[i] * b


def _random_poly(rng, field, variables, max_degree):
    """0-3 terms in the given variables, each exponent and each term's total
    degree at most max_degree; p/q coefficients over Q."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps, left = {}, max_degree
        for v in variables:
            exps[v] = rng.randint(0, left)
            left -= exps[v]
        if field is QQ:
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        else:
            c = field.coerce(rng.randrange(-10 ** 12, 10 ** 12))
        terms[Monomial(exps)] = c
    return Poly(field, terms)


def _read(comps, grades, field):
    return [comps.get(g, Poly.zero(field)) for g in grades]


def test_engine_matches_naive_oracle():
    """hs_components over (n,) and (n, m) boxes and jet_again (both outer indices)
    against the untruncated substitute-and-collect oracle, over Q and F_p,
    with exponents up to 6 on both sides of the level.  Then each path of
    the engine on hand-picked inputs: a constant and terms in one variable
    (the unit and the table monomials written as they are); terms in two
    and three variables, whose products of multinomials repeat within a
    term (1, 2, 3, 6, ...), and of which over F2 and F3 some vanish and
    others do not; and families that interleave: x and u share an index,
    and jet_again into order1 lifts x_0 and x_1 to families that interleave
    from level 1 on."""
    rng = random.Random(4104)
    fields = (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(2147483647))
    seen = set()
    for field in fields:
        for _ in range(8):
            base = [JetVar(x, i, 0) for i, x in enumerate("xyz")][:rng.randint(1, 3)]
            n = rng.randint(0, 5)
            f = _random_poly(rng, field, base, 6)
            assert hs_components(f, n) == naive_hs_components(f, n)
            seen.update(("e>n" if e > n else "e<n" if e < n else "e=n")
                        for m in f.terms for _, e in m)

            jets = [JetVar(v.name, v.index, i) for v in base for i in range(2)]
            g = _random_poly(rng, field, rng.sample(jets, rng.randint(1, min(3, len(jets)))), 4)
            a = rng.randint(0, 4)
            for outer, lift in (("order1", lambda v, k: JetVar(v.name, v.index, k, v.order1)),
                                ("order2", lambda v, k: JetVar(v.name, v.index, v.order1, k))):
                fams = {v: {(k,): lift(v, k) for k in range(a + 1)} for v in g.vars()}
                want = _read(naive_components(g, fams, (TAU,)), [(k,) for k in range(a + 1)], field)
                assert jet_again(g, a, outer) == want

            n, m = rng.randint(0, 5), rng.randint(0, 5)
            cells = (n + 1) * (m + 1)
            # keep the untruncated expansion small: C(d + cells - 1, d) terms per power
            degree = max(d for d in range(1, 7) if comb(d + cells - 1, d) <= 3000)
            f = _random_poly(rng, field, base, degree)
            fams = {v: {(i, j): JetVar(v.name, v.index, i, j)
                        for i in range(n + 1) for j in range(m + 1)} for v in base}
            comps = naive_components(f, fams, (SIGMA, TAU))
            want = _read(comps, [(i, j) for i in range(n + 1) for j in range(m + 1)], field)
            assert hs_components(f, n, m) == want
        for c in (Poly.zero(field), Poly.constant(field.coerce(5) if field is not QQ
                                                  else Fraction(-7, 3), field)):
            assert hs_components(c, 3) == [c] + [Poly.zero(field)] * 3
            assert jet_again(c, 2, "order2") == [c] + [Poly.zero(field)] * 2
            assert hs_components(c, 1, 2) == [c] + [Poly.zero(field)] * 5

    assert seen == {"e>n", "e<n", "e=n"}

    for field in fields[:3]:  # Q, F2 and F3
        x, y, z = (JetVar(s, i, 0) for i, s in enumerate("xyz"))
        u = JetVar("u", 0, 0)  # shares x's index
        px, py, pz, pu = (Poly.var(v, field) for v in (x, y, z, u))
        a = field.coerce(Fraction(-7, 3)) if field is QQ else field.coerce(5)
        one_var = Poly.constant(a, field) + 3 * px ** 4 + px + pz ** 2 * a - pu ** 3
        two_vars = px ** 2 * py ** 3 - 2 * px ** 3 * py ** 3 + px * py * a + py ** 2 * pz ** 2
        three_vars = px ** 2 * py * pz ** 3 * a + px * py * pz
        shared = 3 * px ** 2 * pu - pu ** 3 * px + px * pu ** 2 * a
        for f in (one_var, two_vars, three_vars, shared, one_var + two_vars + shared):
            for n in range(5):
                assert hs_components(f, n) == naive_hs_components(f, n)
            for n, m in ((1, 1), (2, 1), (0, 2)):
                fams = {v: {(i, j): JetVar(v.name, v.index, i, j)
                            for i in range(n + 1) for j in range(m + 1)} for v in f.vars()}
                comps = naive_components(f, fams, (SIGMA, TAU))
                want = _read(comps, [(i, j) for i in range(n + 1) for j in range(m + 1)], field)
                assert hs_components(f, n, m) == want
        px1, py1 = Poly.var(JetVar("x", 0, 1), field), Poly.var(JetVar("y", 1, 1), field)
        g = px ** 2 * px1 ** 2 * a - px1 ** 3 * py1 + 2 * px * px1 * py1 ** 2 + px + 1
        for a_level in range(4):
            for outer, lift in (("order1", lambda v, k: JetVar(v.name, v.index, k, v.order1)),
                                ("order2", lambda v, k: JetVar(v.name, v.index, v.order1, k))):
                fams = {v: {(k,): lift(v, k) for k in range(a_level + 1)} for v in g.vars()}
                want = _read(naive_components(g, fams, (TAU,)),
                             [(k,) for k in range(a_level + 1)], field)
                assert jet_again(g, a_level, outer) == want


def _compositions(e, parts):
    """Every tuple of `parts` exponents >= 0 that sum to e."""
    if parts == 1:
        yield (e,)
        return
    for a in range(e + 1):
        for rest in _compositions(e - a, parts - 1):
            yield (a,) + rest


def _naive_expansion(e, bounds):
    """{grade position: set of entries} of (sum_g x^(g) t^g)^e, enumerated
    over every exponent vector on the box; an entry lists its nonzero
    positions, their exponents and e! / prod a_g!."""
    box = list(product(*(range(b + 1) for b in bounds)))
    out = {}
    for exps in _compositions(e, len(box)):
        total = tuple(sum(a * g[c] for a, g in zip(exps, box)) for c in range(len(bounds)))
        if total in box:
            k = factorial(e)
            for a in exps:
                k //= factorial(a)
            entry = (tuple(i for i, a in enumerate(exps) if a), tuple(a for a in exps if a), k)
            out.setdefault(box.index(total), set()).add(entry)
    return out


@pytest.mark.parametrize("bounds", [(0,), (1,), (4,), (0, 0), (0, 2), (1, 2), (2, 1), (2, 2)])
def test_expansion_matches_naive_enumeration(bounds):
    for e in range(7):
        table = jets._expansion(e, bounds)
        assert [g for g, _ in table] == sorted(g for g, _ in table)
        assert {g: set(entries) for g, entries in table} == _naive_expansion(e, bounds)
        for _, entries in table:
            assert len(set(entries)) == len(entries)


def test_expansion_from_cold_has_no_dead_branches():
    """At level 0 the table of x^e is the one entry (x^(0))^e, so the
    components of sum_{e <= 1000} x^e are quick to build from empty caches."""
    f = Poly(QQ, {Monomial({X: e}): 1 for e in range(1001)})
    jets._expansion.cache_clear()
    jets._rows.cache_clear()
    start = time.perf_counter()
    comps = hs_components(f, 0)
    assert time.perf_counter() - start < 0.5
    assert comps == [f]


def test_small_characteristic_components():
    """Hand-derived: over F_p, (sum x_i t^i)^p = sum x_i^p t^(ip)."""
    f2, f3 = PrimeField(2), PrimeField(3)
    x = JetVar("x", 0, 0)

    def xs(field, i, j=None):
        return Poly.var(JetVar("x", 0, i, j), field)

    zero2 = Poly.zero(f2)
    assert hs_components(Poly.var(x, f2) ** 2, 3) == [xs(f2, 0) ** 2, zero2, xs(f2, 1) ** 2, zero2]
    zero3 = Poly.zero(f3)
    assert hs_components(Poly.var(x, f3) ** 3, 3) == [xs(f3, 0) ** 3, zero3, zero3, xs(f3, 1) ** 3]
    flat = hs_components(Poly.var(x, f2) ** 2, 2, 2)  # (i, j) at 3 * i + j
    nonzero = {divmod(k, 3) for k, g in enumerate(flat) if not g.is_zero()}
    assert nonzero == {(0, 0), (2, 0), (0, 2), (2, 2)}
    for i, j in nonzero:
        assert flat[3 * i + j] == xs(f2, i // 2, j // 2) ** 2


def test_jet_again_rejects_bad_input():
    with pytest.raises(ValueError):
        jet_again(P("x", 1), 2, "order3")
    with pytest.raises(NotABaseElement):
        jet_again(P("x", 1, 0), 2, "order1")


def test_grade_box_needs_one_or_two_levels():
    """A grade box with no level or with three raises BadLevels, as a
    negative level does: in hs_components, for a constant too, and when a
    jet presentation is built."""
    for levels in ((), (1, 1, 1)):
        for f in (P("x", 0), Poly.constant(2)):
            with pytest.raises(BadLevels, match="one or two levels"):
                hs_components(f, *levels)
        with pytest.raises(BadLevels, match="one or two levels"):
            jet_presentation(cusp(), *levels)


# -- bivariate components ---------------------------------------------


def test_2d_linear_substitution():
    """Components come flat in (i, j) box order: (i, j) at 2 * i + j."""
    assert hs_components(P("x", 0), 2, 1) == [Poly.var(jv("x", i, j))
                                              for i in range(3) for j in range(2)]


def test_2d_product_entry():
    grid = hs_components(P("x", 0) * P("y", 0), 1, 1)
    want = (Poly.var(jv("x", 0, 0)) * Poly.var(jv("y", 1, 1))
            + Poly.var(jv("x", 1, 0)) * Poly.var(jv("y", 0, 1))
            + Poly.var(jv("x", 0, 1)) * Poly.var(jv("y", 1, 0))
            + Poly.var(jv("x", 1, 1)) * Poly.var(jv("y", 0, 0)))
    assert grid[3] == want  # (1, 1)


def test_2d_constant():
    grid = hs_components(Poly.constant(3), 1, 2)
    assert grid[0] == Poly.constant(3)
    assert len(grid) == 6 and all(g.is_zero() for g in grid[1:])


# -- presentations ----------------------------------------------------


def test_jet_presentation_cusp():
    jp = jet_presentation(cusp(), 1)
    assert [v.render() for v in jp.generators] == ["x_0", "x_1", "y_0", "y_1"]
    assert [g.render() for g in jp.relations] == [
        "-x_0^3 + y_0^2", "-3*x_0^2*x_1 + 2*y_0*y_1"]


def test_jet_presentation_free_and_level0():
    free = AlgebraPresentation(["x"], [])
    jp = jet_presentation(free, 3)
    assert jp.relations == [] and len(jp.generators) == 4
    jp0 = jet_presentation(cusp(), 0)
    assert [g.render() for g in jp0.relations] == ["-x_0^3 + y_0^2"]


@pytest.fixture
def components_log(monkeypatch):
    """Each polynomial hs_components is called on, rendered, in call order."""
    from jetforge import hsmodules, jets
    log = []

    def counted(f, n):
        log.append(f.render(base_plain=True))
        return hs_components(f, n)

    monkeypatch.setattr(jets, "hs_components", counted)
    monkeypatch.setattr(hsmodules, "hs_components", counted)
    return log


@pytest.mark.parametrize("command, computed", [
    ("module", ["x", "y"]),  # the module entries; not the ideal relation
    ("morphism", ["u^2", "u^3"]),  # the images; not the ideal relation
    ("jet", ["-x^3 + y^2"]),
])
def test_jet_relations_are_computed_when_read(command, computed, components_log, capsys):
    from jetforge.cli import main
    golden = Path(__file__).parent / "golden" / "full.jf"
    assert main([command, "--n", "3", str(golden)]) == 0
    capsys.readouterr()
    assert components_log == computed


def test_jet_relations_are_computed_once(components_log):
    A = AlgebraPresentation(["x", "y"], [P("y", 0) ** 2 - P("x", 0) ** 3, P("x", 0) * P("y", 0)])
    jp = jet_presentation(A, 3)
    assert components_log == []
    first = jp.relations
    assert len(first) == 8 and jp.relations is first
    kaehler_presentation(jp)
    assert components_log == ["-x^3 + y^2", "x*y"]


def test_structural_homogeneity_of_generators():
    jp = jet_presentation(cusp(), 3)
    for r, g in enumerate(jp.relations):
        for m in g.terms:
            # relation r is d_i(f_k) with (k, i) = divmod(r, n+1)
            assert m.weighted_degree(structural) == r % 4


def test_weighted_degree_gives_both_gradings():
    m = Monomial({jv("x", 1): 1, jv("y", 2): 1})
    assert m.weighted_degree(structural) == 3
    assert Monomial({jv("x", 1): 1}).weighted_degree(lambda v: {"x": 2}[v.name]) == 2
    assert Monomial({jv("x", 1): 3}).weighted_degree(structural) == 3
    assert Monomial().weighted_degree(structural) == 0
    assert Monomial().weighted_degree(lambda v: {"x": 1}[v.name]) == 0
    # an induced grading needs a source degree for every variable
    with pytest.raises(MissingGrading, match="^no degree for y$"):
        AlgebraPresentation(["x", "y"], [], {"x": 1})


def test_induced_homogeneity():
    A = AlgebraPresentation(["x", "y"], [P("y", 0) ** 2 - P("x", 0) ** 3],
                            {"x": 2, "y": 3})
    jp = jet_presentation(A, 2)
    for g in jp.relations:
        degs = {m.weighted_degree(lambda v: A.grading[v.name]) for m in g.terms}
        assert degs == {6}


def test_inhomogeneous_relation_rejected():
    from jetforge.errors import InhomogeneousRelation

    with pytest.raises(InhomogeneousRelation):
        AlgebraPresentation(["x"], [P("x", 0) ** 2 + P("x", 0)], {"x": 1})


# -- co-truncation ----------------------------------------------------


def test_cotruncation():
    assert cotruncation_subset_check(cusp(), 1, 2) == (True, None)
    assert cotruncation_subset_check(cusp(), 0, 1)[0]
    free = AlgebraPresentation(["x"], [])
    assert cotruncation_subset_check(free, 1, 3)[0]
    with pytest.raises(BadLevels):
        cotruncation_subset_check(cusp(), 2, 2)


# -- morphisms --------------------------------------------------------


def test_induced_morphism_square():
    src = AlgebraPresentation(["x"], [])
    tgt = AlgebraPresentation(["u"], [])
    u0 = Poly.var(JetVar("u", 0, 0))
    u1 = Poly.var(JetVar("u", 0, 1))
    phi = AlgebraMorphism(src, tgt, {JetVar("x", 0, 0): u0 ** 2})
    fn = induced_morphism(phi, 1)
    assert fn.images[JetVar("x", 0, 1)] == 2 * u0 * u1


def test_induced_morphism_identity_and_constant():
    A = cusp()
    ident = AlgebraMorphism(A, A, {v: Poly.var(v) for v in A.generators})
    fn = induced_morphism(ident, 2)
    for v, img in fn.images.items():
        assert img == Poly.var(v)
    src = AlgebraPresentation(["x"], [])
    const = AlgebraMorphism(src, src, {JetVar("x", 0, 0): Poly.constant(7)})
    fn = induced_morphism(const, 2)
    assert fn.images[JetVar("x", 0, 1)].is_zero()
    assert fn.images[JetVar("x", 0, 2)].is_zero()


def test_functoriality_random():
    rng = random.Random(9)
    src = AlgebraPresentation(["x", "y"], [])
    tgt = AlgebraPresentation(["u"], [])
    u0 = Poly.var(JetVar("u", 0, 0))
    for _ in range(10):
        phi = AlgebraMorphism(src, tgt, {
            JetVar("x", 0, 0): u0 ** rng.randint(0, 2) * rng.randint(-3, 3),
            JetVar("y", 1, 0): u0 * rng.randint(-3, 3) + rng.randint(-2, 2)})
        g = P("x", 0) * P("y", 0) - P("y", 0) ** 2
        n = rng.randint(0, 2)
        fn = induced_morphism(phi, n)
        assert [fn.apply(c) for c in hs_components(g, n)] == hs_components(phi.apply(g), n)


# -- functor commutation ----------------------------------------------


def _nonzero_bivariate_relations(A, n, m):
    return sum(1 for rel in jet_presentation(A, n, m).relations if rel.terms)


def test_bigrade_free_ring():
    free = AlgebraPresentation(["x"], [])
    assert bigrade_commute_check(free, 2, 2) == (True, None)
    assert _nonzero_bivariate_relations(free, 2, 2) == 0


def test_bigrade_cusp_11():
    assert bigrade_commute_check(cusp(), 1, 1) == (True, None)
    assert _nonzero_bivariate_relations(cusp(), 1, 1) == 4


def test_bigrade_degenerate_level0():
    ok, _ = bigrade_commute_check(cusp(), 2, 0)
    assert ok


def test_bijet_presentation_counts():
    bp = jet_presentation(cusp(), 1, 2)
    assert len(bp.relations) == 2 * 3 * 1
    assert len(bp.generators) == 2 * 2 * 3


def test_engine_sorts_families_that_share_an_index():
    """x and u both have index 0, so their jet families interleave in
    variable order and the engine must sort each concatenated monomial."""
    x, u = JetVar("x", 0, 0), JetVar("u", 0, 0)
    px, pu = Poly.var(x), Poly.var(u)
    f = 3 * px ** 2 * pu - pu ** 3 * px + 2 * px * pu + Fraction(1, 2) * pu ** 2
    for n in range(4):
        got, want = hs_components(f, n), naive_hs_components(f, n)
        assert got == want
        assert [p.render() for p in got] == [p.render() for p in want]
        for p in got:
            for m in p.terms:
                keys = [v.sort_key() for v, _ in m]
                assert keys == sorted(keys)
    for n, m in ((1, 1), (2, 1), (0, 2)):
        fams = {v: {(i, j): JetVar(v.name, v.index, i, j)
                    for i in range(n + 1) for j in range(m + 1)} for v in (x, u)}
        comps = naive_components(f, fams, (SIGMA, TAU))
        want = _read(comps, [(i, j) for i in range(n + 1) for j in range(m + 1)], QQ)
        got = hs_components(f, n, m)
        assert got == want
        assert [p.render() for p in got] == [p.render() for p in want]


def test_engine_sorts_jets_of_jets_into_order1():
    """jet_again into order1 lifts x_0 and x_1 to the families x_a_0 and
    x_a_1, which interleave from level 1 on (x_0_0 < x_0_1 < x_1_0 <
    x_1_1 ...) and not at level 0; y's family starts after both end."""
    x0, x1, y1 = JetVar("x", 0, 0), JetVar("x", 0, 1), JetVar("y", 1, 1)
    px0, px1, py1 = Poly.var(x0), Poly.var(x1), Poly.var(y1)
    g = 2 * px0 ** 2 * px1 - px1 ** 3 * py1 + Fraction(3, 2) * px0 * px1 * py1 ** 2 + px0
    for a in range(4):
        fams = {v: {(k,): JetVar(v.name, v.index, k, v.order1) for k in range(a + 1)}
                for v in (x0, x1, y1)}
        want = _read(naive_components(g, fams, (TAU,)), [(k,) for k in range(a + 1)], QQ)
        got = jet_again(g, a, "order1")
        assert got == want
        assert [p.render() for p in got] == [p.render() for p in want]
        for p in got:
            for m in p.terms:
                keys = [v.sort_key() for v, _ in m]
                assert keys == sorted(keys)


# -- jets that build no table ------------------------------------------


def _refuse_tables(monkeypatch):
    """Make the engine's tables unreachable: a jet that builds one fails."""
    def refused(*_):
        raise AssertionError("a trivial jet built a table")

    monkeypatch.setattr(jets, "_rows", refused)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=lambda f: f.name)
def test_level_zero_jet_is_f_and_agrees_with_the_tables(field, monkeypatch):
    """d_0 f = f: hs_components(f, 0) is [f], the grade-0 component that the
    tables give at every higher level, and it builds no table."""
    rng = random.Random(20261022)
    fs = [_random_poly(rng, field, [X, Y], 4) for _ in range(30)] + [Poly.constant(3, field)]
    firsts = [(hs_components(f, 1)[0], hs_components(f, 3)[0]) for f in fs]
    _refuse_tables(monkeypatch)
    for f, first in zip(fs, firsts):
        got = hs_components(f, 0)
        assert got == [f] and first == (f, f)
        assert got[0].field is field


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=lambda f: f.name)
def test_zero_jets_have_the_box_length(field, monkeypatch):
    """The jets of 0 are zeros, as many as the grade box has grades, at
    (n,), at (n, m) and through jet_again into either order; they build no
    table."""
    _refuse_tables(monkeypatch)
    zero = Poly.zero(field)
    for levels, length in (((0,), 1), ((3,), 4), ((0, 0), 1), ((2, 1), 6), ((1, 3), 8)):
        got = hs_components(zero, *levels)
        assert len(got) == length
        assert all(p.is_zero() and p.field is field for p in got)
    for outer in ("order1", "order2"):
        for n in (0, 2):
            got = jet_again(zero, n, outer)
            assert len(got) == n + 1 and all(p.is_zero() and p.field is field for p in got)


def test_one_grade_boxes_that_rename_take_the_tables():
    """The (0, 0) box and jet_again at level 0 have one grade each, but they
    map x^(i) to another variable, so their component is not f."""
    f = 2 * P("x", 0) ** 2 * P("y", 0) - P("y", 0) + 3
    assert hs_components(f, 0, 0) == [2 * P("x", 0, 0) ** 2 * P("y", 0, 0) - P("y", 0, 0) + 3]
    g = P("x", 1) * P("y", 0) ** 2 + P("x", 0)
    assert jet_again(g, 0, "order1") == [P("x", 0, 1) * P("y", 0, 0) ** 2 + P("x", 0, 0)]
    assert jet_again(g, 0, "order2") == [P("x", 1, 0) * P("y", 0, 0) ** 2 + P("x", 0, 0)]
