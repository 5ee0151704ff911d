import random
from pathlib import Path

import pytest

from jetforge import hsmodules
from jetforge.cli import main
from jetforge.errors import FieldMismatch, JetforgeError
from jetforge.checks import (base_change_check, cotangent_theorem_check,
                             free_dual_zigzag_check, random_poly, sym_theorem_check)
from jetforge.hsmodules import (ModulePresentation, hs_module_presentation, kaehler_presentation,
                                linear_form, module_symbols, sym_presentation, upper_triangle)
from jetforge.jets import (AlgebraMorphism, AlgebraPresentation, hs_components,
                           jet_presentation)
from jetforge.poly import JetVar, Poly, convolve
from jetforge.scalars import QQ, PrimeField

GOLDEN = Path(__file__).parent / "golden"
X0 = Poly.var(JetVar("x", 0, 0))
Y0 = Poly.var(JetVar("y", 1, 0))


def jx(i):
    return Poly.var(JetVar("x", 0, i))


def jy(i):
    return Poly.var(JetVar("y", 1, i))


def cusp():
    return AlgebraPresentation(["x", "y"], [Y0 ** 2 - X0 ** 3])


def free_xy():
    return AlgebraPresentation(["x", "y"], [])


# -- twisted actions: the jets of a, laid out by upper_triangle --------


def test_upper_triangle_layout():
    # comps[i - j] at row j, column i; the zero below the diagonal
    assert upper_triangle(("a", "b", "c"), 0) == [["a", "b", "c"], [0, "a", "b"], [0, 0, "a"]]
    assert upper_triangle(["a"], 0) == [["a"]]


def test_twisted_identity():
    one, zero = Poly.constant(1), Poly.zero()
    assert hs_components(one, 3) == [one] + [zero] * 3
    entries = upper_triangle(hs_components(one, 3), zero)
    for j in range(4):
        for i in range(4):
            assert entries[j][i] == (one if i == j else zero)


def test_twisted_of_x():
    want = [[jx(0), jx(1), jx(2)],
            [Poly.zero(), jx(0), jx(1)],
            [Poly.zero(), Poly.zero(), jx(0)]]
    assert upper_triangle(hs_components(X0, 2), Poly.zero()) == want


def test_twisted_multiplicative():
    assert convolve(hs_components(X0, 1), hs_components(Y0, 1)) == hs_components(X0 * Y0, 1)


def test_twisted_ring_hom_random():
    rng = random.Random(13)
    for _ in range(15):
        p = X0 ** rng.randint(0, 2) * rng.randint(-4, 4) + Y0 * rng.randint(-4, 4)
        q = Y0 ** rng.randint(0, 2) - rng.randint(0, 3) * X0
        n = rng.randint(0, 4)
        tp, tq = hs_components(p, n), hs_components(q, n)
        assert convolve(tp, tq) == hs_components(p * q, n)
        assert [a + b for a, b in zip(tp, tq)] == hs_components(p + q, n)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=lambda f: f.name)
def test_matmul_is_the_matrix_product_of_the_entries(field):
    """Two upper-triangular Toeplitz matrices multiply to the one of the
    convolution of their jets: the triple-loop product of the laid-out
    triangles is the layout of ``convolve``, which is the jets of the
    product."""
    rng = random.Random(29)
    gens = free_xy().generators
    zero = Poly.zero(field)
    for n in range(5):
        pairs = [(X0 ** 2 - 3 * Y0 + 1, X0 * Y0 + Y0)]
        pairs += [(random_poly(rng, gens), random_poly(rng, gens)) for _ in range(4)]
        for p, q in pairs:
            p, q = Poly(field, p.terms), Poly(field, q.terms)
            jp, jq = hs_components(p, n), hs_components(q, n)
            size = range(n + 1)
            a, b = upper_triangle(jp, zero), upper_triangle(jq, zero)
            got = convolve(jp, jq)
            assert upper_triangle(got, zero) == [[sum((a[j][l] * b[l][i] for l in size), zero)
                                                  for i in size] for j in size]
            assert got == hs_components(p * q, n)


def test_matmul_rejects_another_level():
    """Jet lists of two levels do not multiply, in either order."""
    with pytest.raises(ValueError, match="jet lists of lengths 2 and 3"):
        convolve(hs_components(X0, 1), hs_components(Y0, 2))
    with pytest.raises(ValueError, match="jet lists of lengths 3 and 2"):
        convolve(hs_components(X0, 2), hs_components(Y0, 1))


# -- Hasse-Schmidt module presentations -------------------------------


def test_free_module_stays_free():
    M = ModulePresentation(free_xy(), 1, [])
    hm = hs_module_presentation(M, 3)
    assert hm.relation_matrix == []
    assert hm.rank == 4


def test_rank2_single_relation():
    M = ModulePresentation(free_xy(), 2, [[X0, Y0]])
    hm = hs_module_presentation(M, 1)
    # row (0, i) has entry d_{i-j}(p_l) at column (l, j)
    assert [p.render() for p in hm.relation_matrix[0]] == ["x_0", "0", "y_0", "0"]
    assert [p.render() for p in hm.relation_matrix[1]] == ["x_1", "x_0", "y_1", "y_0"]
    # column c is (l, j) = divmod(c, n+1); the module lives over the level-n jets
    assert hm.rank == 4 and hm.over.levels == (1,) and hm.over.source is M.over


def test_level0_is_module_itself():
    M = ModulePresentation(free_xy(), 2, [[X0, Y0 ** 2]])
    hm = hs_module_presentation(M, 0)
    assert [[p.render() for p in row] for row in hm.relation_matrix] == [["x_0", "y_0^2"]]


def test_delta_apply():
    """a . (e (x) t^[i]) expands over e (x) t^[j], j <= i, as column i of the
    twisted action of a."""
    def column(a, i, n):
        return [row[i].render() for row in upper_triangle(hs_components(a, n), Poly.zero())]

    assert column(Poly.constant(1), 1, 1) == ["0", "1"]
    assert column(X0, 1, 1) == ["x_1", "x_0"]
    assert column(Poly.constant(5), 0, 1) == ["5", "0"]


def _hs_grid():
    for doc in ("full.jf", "hs_f7.jf", "hs_f2.jf"):
        for cmd in ([["module", "--n", str(n)] for n in range(4)]
                    + [["sym"], ["omega"], ["omega", "--n", "2"]]):
            for fmt in ("text", "json"):
                yield cmd + ["--format", fmt], doc


def test_hs_golden_grid(capsys):
    """hs_grid.txt holds each command of the grid followed by its output."""
    parts = []
    for argv, doc in _hs_grid():
        assert main(argv + [str(GOLDEN / doc)]) == 0
        parts.append("$ jetforge %s tests/golden/%s\n%s"
                     % (" ".join(argv), doc, capsys.readouterr().out))
    assert "".join(parts) == (GOLDEN / "hs_grid.txt").read_text()


# -- module symbols ---------------------------------------------------


def test_module_symbols_follow_the_hs_basis():
    symbols = module_symbols(free_xy(), 2, 1)
    assert symbols == [JetVar("e1", 2, 0), JetVar("e1", 2, 1),
                       JetVar("e2", 3, 0), JetVar("e2", 3, 1)]
    M = ModulePresentation(free_xy(), 2, [[X0, Y0]])
    # symbol c is e_{l+1}^(j) for the basis vector (l, j) = divmod(c, n+1)
    assert [(v.index - 2, v.order1) for v in symbols] == [
        divmod(c, 2) for c in range(hs_module_presentation(M, 1).rank)]


def test_linear_form():
    symbols = module_symbols(free_xy(), 2, 1)
    e = [Poly.var(v) for v in symbols]
    row = linear_form(X0 * 3 * e[1] + Y0 * X0 * e[2] - e[2] + e[3], symbols)
    assert [p.render() for p in row] == ["0", "3*x_0", "x_0*y_0 - 1", "1"]
    assert linear_form(Poly.zero(QQ), symbols) == [Poly.zero(QQ)] * 4
    for bad in (e[0] ** 2, e[0] * e[3], X0, X0 * e[0] + 1):
        assert linear_form(bad, symbols) is None


def test_linear_form_finds_the_symbol_anywhere_in_a_term():
    """The one symbol of a term is sliced out wherever it sorts among the
    term's variables: first, in the middle or last; a squared symbol and a
    term with two symbols read as no linear form."""
    x, e, y = (JetVar(name, k, 0) for k, name in enumerate("xey"))
    X, E, Y = map(Poly.var, (x, e, y))
    for term, coeff in ((E * Y, Y), (X * E * Y, X * Y), (X * E, X), (E, Poly.constant(1))):
        assert linear_form(term * 5, [e]) == [coeff * 5]
    f = JetVar("f", 3, 0)
    F = Poly.var(f)
    for bad in (X * E ** 2 * Y, E ** 2, X * E * F, E * Y * F, X * E * Y + E * F):
        assert linear_form(bad, [e, f]) is None


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=str)
def test_linear_combination_inverts_linear_form(field):
    """The Sym relation sum_c row[c] * e_c of a module row, built as one
    dict by _sym_relations, is the sum that Poly arithmetic builds, and
    linear_form reads the row back, over jet variables as in a
    Hasse-Schmidt row and with zero entries."""
    rng = random.Random("linear-combination:%s" % field)
    for _ in range(60):
        A = AlgebraPresentation(["x", "y", "z"][:rng.randint(1, 3)], [], None, field)
        rank, n = rng.randint(1, 2), rng.randint(0, 2)
        row = [Poly(field, c.terms) for _ in range(rank)
               for c in hs_components(random_poly(rng, A.generators, 3), n)]
        symbols = module_symbols(A, rank, n)
        M = ModulePresentation(jet_presentation(A, n), len(row), [row])
        combination, = hsmodules._sym_relations(M, symbols)
        assert combination == sum((p * Poly.var(e, field) for p, e in zip(row, symbols)),
                                  Poly.zero(field))
        assert linear_form(combination, symbols) == row


@pytest.mark.parametrize("rows, error, message", [
    # hs_module_presentation once made of this a module over Q holding the
    # F7 entry and the undeclared z_0, z_1
    ([[Poly.var(JetVar("x", 0, 0), PrimeField(7))], [Poly.var(JetVar("z", 1, 0))]],
     FieldMismatch, r"over PrimeField\(7\), algebra over QQ"),
    ([[Poly.var(JetVar("z", 1, 0))]], ValueError, "entry z_0 is not over x$"),
    # the name and index of e1, the symbol sym_presentation adjoins
    ([[Poly.var(JetVar("e1", 1, 0))]], ValueError, "entry e1_0 is not over x$"),
], ids=["field", "variable", "symbol"])
def test_module_presentation_rejects_a_row_not_over_its_algebra(rows, error, message):
    with pytest.raises(error, match=message):
        ModulePresentation(AlgebraPresentation(["x"], []), 1, rows)


def test_module_presentation_rejects_a_negative_rank():
    with pytest.raises(ValueError, match="negative rank -1"):
        ModulePresentation(AlgebraPresentation(["x"], []), -1, [])


def test_module_over_a_jet_presentation_holds_its_jet_variables():
    """The generators are the jet variables, read without building the
    jet relations."""
    jp = jet_presentation(cusp(), 2)
    assert ModulePresentation(jp, 1, [[jx(2)]]).relation_matrix == [[jx(2)]]
    with pytest.raises(ValueError, match="entry x_3 is not over x, x_1, x_2, y, y_1, y_2$"):
        ModulePresentation(jp, 1, [[jx(3)]])
    assert "relations" not in jp.__dict__


# -- Kaehler ----------------------------------------------------------


def test_kaehler_of_cusp():
    kp = kaehler_presentation(cusp())
    assert kp.rank == 2
    assert [[p.render() for p in row] for row in kp.relation_matrix] == [["-3*x_0^2", "2*y_0"]]


def test_kaehler_free():
    assert kaehler_presentation(free_xy()).relation_matrix == []


def test_kaehler_of_jet_cusp():
    kp = kaehler_presentation(jet_presentation(cusp(), 1))
    assert [[p.render() for p in row] for row in kp.relation_matrix] == [
        ["-3*x_0^2", "0", "2*y_0", "0"],
        ["-6*x_0*x_1", "-3*x_0^2", "2*y_1", "2*y_0"]]


def test_cotangent_theorem():
    assert cotangent_theorem_check(cusp(), 1)[0]
    assert cotangent_theorem_check(free_xy(), 3)[0]
    assert cotangent_theorem_check(cusp(), 0)[0]


def test_cotangent_theorem_fails_on_transposed_twist(monkeypatch):
    """Transposed twisted matrices put d_{j-i} where d_{i-j} belongs; the
    first mismatch is labelled by its row (k, i) and column (l, j).  The
    Hasse-Schmidt module lays its blocks out with ``upper_triangle``."""
    layout = hsmodules.upper_triangle

    def transposed(comps, zero):
        return [list(col) for col in zip(*layout(comps, zero))]

    monkeypatch.setattr(hsmodules, "upper_triangle", transposed)
    # the linear relation has constant partials, so its rows stay right
    A = AlgebraPresentation(["x", "y"], [X0 + Y0 * 2, Y0 ** 2 - X0 ** 3])
    ok, report = cotangent_theorem_check(A, 2)
    assert not ok
    assert (report["rows"], report["cols"]) == (6, 6)
    first = report["mismatches"][0]
    assert (first["row"], first["col"]) == ((1, 0), (0, 1))
    assert (first["jet_jacobian"], first["block"]) == ("0", "-6*x_0*x_1")


def test_jacobian_identity_entrywise_random():
    rng = random.Random(17)
    for _ in range(10):
        f = X0 ** rng.randint(0, 3) * rng.randint(-4, 4) + Y0 ** 2 * rng.randint(-4, 4)
        n = rng.randint(0, 3)
        comps = hs_components(f, n)
        for v in (JetVar("x", 0, 0), JetVar("y", 1, 0)):
            dcomps = hs_components(f.partial(v), n)
            for i in range(n + 1):
                for j in range(n + 1):
                    got = comps[i].partial(JetVar(v.name, v.index, j))
                    want = dcomps[i - j] if j <= i else Poly.zero(QQ)
                    assert got == want


# -- Sym --------------------------------------------------------------


def test_sym_of_free_module():
    M = ModulePresentation(AlgebraPresentation(["x"], []), 2, [])
    sp = sym_presentation(M)
    assert sp.vars == ["x", "e1", "e2"]
    assert sp.relations == []
    assert sp.grading == {"x": 0, "e1": 1, "e2": 1}


def test_sym_adds_degree1_relation():
    M = ModulePresentation(free_xy(), 2, [[X0, Y0]])
    sp = sym_presentation(M)
    assert sp.homogeneous_degree(sp.relations[-1]) == 1


def test_sym_of_zero_module():
    M = ModulePresentation(cusp(), 0, [])
    sp = sym_presentation(M)
    assert sp.vars == ["x", "y"]
    assert len(sp.relations) == 1


@pytest.mark.parametrize("row", [[X0, Y0], []], ids=["long", "short"])
def test_sym_of_a_row_of_the_wrong_length_raises(row):
    """A row is zipped with the symbols strictly: a longer row once lost
    its extra entries without an error, and a shorter one would too."""
    M = ModulePresentation._built(free_xy(), 1, [row])
    with pytest.raises(ValueError):
        sym_presentation(M)


def test_sym_symbol_may_not_shadow_a_ring_variable():
    x = Poly.var(JetVar("x", 1, 0))
    M = ModulePresentation(AlgebraPresentation(["e1", "x"], [], None), 1, [[x]])
    with pytest.raises(JetforgeError, match="duplicate variable 'e1'"):
        sym_presentation(M)
    with pytest.raises(JetforgeError, match="duplicate variable 'x'"):
        AlgebraPresentation(["x", "y", "x"], [])


def test_sym_theorem():
    M = ModulePresentation(free_xy(), 2, [[X0, Y0]])
    assert sym_theorem_check(M, 1)[0]
    assert sym_theorem_check(M, 0)[0]
    assert sym_theorem_check(ModulePresentation(free_xy(), 2, []), 3)[0]
    over_cusp = ModulePresentation(cusp(), 2, [[X0 * Y0, Y0 ** 2 - X0]])
    assert sym_theorem_check(over_cusp, 2)[0]


# -- base change and zigzag -------------------------------------------


def test_base_change():
    src = AlgebraPresentation(["x"], [])
    tgt = AlgebraPresentation(["u"], [])
    u0 = Poly.var(JetVar("u", 0, 0))
    phi = AlgebraMorphism(src, tgt, {JetVar("x", 0, 0): u0 ** 2})
    M = ModulePresentation(src, 1, [[Poly.var(JetVar("x", 0, 0))]])
    assert base_change_check(phi, M, 1)[0]
    ident = AlgebraMorphism(src, src, {v: Poly.var(v) for v in src.generators})
    assert base_change_check(ident, M, 2)[0]
    const_mod = ModulePresentation(src, 1, [[Poly.constant(3)]])
    assert base_change_check(phi, const_mod, 2)[0]


def test_zigzag():
    for n in range(7):
        assert free_dual_zigzag_check(n)[0]
