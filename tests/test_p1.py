import json
import random
from fractions import Fraction

import pytest

from jetforge.cli import main
from jetforge.errors import UnsupportedTwist
from jetforge.localized import LocalPoly
from jetforge.p1 import (chart_var, cocycle_check, global_sections, p1_transition,
                         transition_series)
from jetforge.hsmodules import twisted_action_matrix
from jetforge.poly import JetVar, Poly


def test_transition_d1_n1_chart1():
    m = p1_transition(1, 1, "chart1")
    t1 = [Poly.var(chart_var(1, i)) for i in range(2)]
    # e_0^(0) -> t1^(0) e_1^(0);  e_0^(1) -> t1^(1) e_1^(0) + t1^(0) e_1^(1)
    assert m.entries[0][0] == LocalPoly(t1[0], chart_var(1, 0))
    assert m.entries[0][1] == LocalPoly(t1[1], chart_var(1, 0))
    assert m.entries[1][0].is_zero()
    assert m.entries[1][1] == LocalPoly(t1[0], chart_var(1, 0))


def test_transition_d0_identity():
    m = p1_transition(0, 2, "overlap")
    for i in range(3):
        for j in range(3):
            want = "1" if i == j else "0"
            assert m.entries[i][j].render() == want


def test_transition_d1_n1_overlap():
    m = p1_transition(1, 1, "overlap")
    assert m.to_rows() == [["(1)/t0_0", "(-t0_1)/t0_0^2"], ["0", "(1)/t0_0"]]


def test_transition_is_twisted_matrix_of_t1_power():
    # chart1-mode entries coincide with the twisted-action matrix of t1^d
    for d, n in [(1, 2), (2, 1), (3, 2)]:
        m = p1_transition(d, n, "chart1")
        t1 = Poly.var(chart_var(1, 0))
        tw = twisted_action_matrix(t1 ** d, n)
        for i in range(n + 1):
            for j in range(n + 1):
                assert m.entries[i][j] == LocalPoly(tw.entries[i][j], chart_var(1, 0))


def test_cocycle_exact():
    for d in range(-2, 3):
        for n in range(4):
            assert cocycle_check(d, n)


def test_cocycle_2_2_random_point_oracle():
    # evaluate the matrix product at random points with t0_0 != 0
    s01 = transition_series(2, 2, "overlap")
    s10 = transition_series(-2, 2, "overlap")  # jets of t1^-2 = t0^2
    rng = random.Random(23)
    t0 = [chart_var(0, i) for i in range(3)]
    for _ in range(20):
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in t0}
        if pt[t0[0]] == 0:
            pt[t0[0]] = Fraction(1)
        a = [c.eval(pt) for c in s01.coeffs]
        b = [c.eval(pt) for c in s10.coeffs]
        prod = [sum(a[k] * b[i - k] for k in range(i + 1)) for i in range(3)]
        assert prod == [1, 0, 0]


def test_global_sections_counts():
    for n in range(4):
        secs = global_sections(1, n)
        assert len(secs) == 2 * (n + 1)
        assert all(s.is_global for s in secs)
    assert [s.label for s in global_sections(1, 0)] == ["e0_0", "e1_0"]


def test_global_sections_rejects_other_twists():
    with pytest.raises(UnsupportedTwist):
        global_sections(2, 1)


def test_p1_report_shape(capsys):
    code = main(["p1", "--d", "1", "--n", "1", "--cocycle", "--sections", "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cocycle_ok"] is True
    assert out["global_sections"] == ["e0_0", "e0_1", "e1_0", "e1_1"]
    assert len(out["transition"]) == 2
