import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetforge.cli import main
from jetforge.errors import UnsupportedTwist
from jetforge.localized import LocalPoly
from jetforge.p1 import (chart_var, cocycle_check, global_sections, p1_transition,
                         power_jets, transition_series)
from jetforge.hsmodules import twisted_action_matrix, upper_triangle
from jetforge.poly import JetVar, Poly
from jetforge.scalars import QQ, PrimeField
from jetforge.series import TruncSeries, series_invert

GOLDEN = Path(__file__).parent / "golden"


# the p1_transition and global_sections tests run over each of these fields
FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7))


def test_transition_d1_n1_chart1():
    for field in FIELDS:
        jets = power_jets(1, 1, 1, field).coeffs  # the jets of t1, in chart 1
        m = upper_triangle(jets, jets[0] * 0)
        t1 = [Poly.var(chart_var(1, i), field) for i in range(2)]
        # e_0^(0) -> t1^(0) e_1^(0);  e_0^(1) -> t1^(1) e_1^(0) + t1^(0) e_1^(1)
        assert m[0][0] == LocalPoly(t1[0], chart_var(1, 0))
        assert m[0][1] == LocalPoly(t1[1], chart_var(1, 0))
        assert m[1][0].is_zero() and m[1][0].field == field
        assert m[1][1] == LocalPoly(t1[0], chart_var(1, 0))


def test_transition_d0_identity():
    for field in FIELDS:
        m = p1_transition(0, 2, field)
        assert [[p.render() for p in row] for row in m] == [
            ["1" if i == j else "0" for j in range(3)] for i in range(3)]


def test_transition_d1_n1_overlap():
    # the jets of t0^(-1): d_1 = -t0_1 / t0_0^2, with -1 read in the field
    minus_t0_1 = {"Q": "-t0_1", "F2": "t0_1", "F3": "2*t0_1", "F7": "6*t0_1"}
    for field in FIELDS:
        m = p1_transition(1, 1, field)
        assert [[p.render() for p in row] for row in m] == [
            ["(1)/t0_0", "(%s)/t0_0^2" % minus_t0_1[field.name]], ["0", "(1)/t0_0"]]


def test_transition_is_twisted_matrix_of_t1_power():
    # written in the t1 jets, the transition is the twisted-action matrix of t1^d
    for field in FIELDS:
        for d, n in [(1, 2), (2, 1), (3, 2)]:
            jets = power_jets(d, 1, n, field).coeffs
            m = upper_triangle(jets, jets[0] * 0)
            t1 = Poly.var(chart_var(1, 0), field)
            tw = twisted_action_matrix(t1 ** d, n)
            assert m == [[LocalPoly(p, chart_var(1, 0)) for p in row] for row in tw.entries]


def test_cocycle_exact():
    for d in range(-2, 3):
        for n in range(4):
            assert cocycle_check(d, n)[0]


def test_cocycle_2_2_random_point_oracle():
    # evaluate the matrix product at random points with t0_0 != 0
    s01 = transition_series(2, 2)
    s10 = transition_series(-2, 2)  # jets of t1^-2 = t0^2
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
    for field in FIELDS:
        for n in range(4):
            secs = global_sections(1, n, field)
            assert [label for label, _ in secs] == [
                "e%d_%d" % (i, j) for i in (0, 1) for j in range(n + 1)]
            assert all(regular for _, regular in secs)


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


def _series_route(chart, n, field):
    """Jets of t_chart^k for k in -6..6 by the public series route: powers
    of sum_i t_chart^(i) s^i over LocalPoly, and of its series inverse."""
    u = chart_var(chart, 0)
    base = TruncSeries(n, [LocalPoly(Poly.var(chart_var(chart, i), field), u)
                           for i in range(n + 1)])
    inv = series_invert(base)
    return {k: base**k if k >= 0 else inv ** (-k) for k in range(-6, 7)}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(7),
                                   PrimeField(2147483647)], ids=lambda f: f.name)
def test_power_jets_match_series_route(field):
    for n in range(10):
        chart0 = _series_route(0, n, field)
        chart1 = _series_route(1, n, field)
        for d in range(-6, 7):
            assert power_jets(d, 1, n, field) == chart1[d], (d, n)
            assert transition_series(d, n, field) == chart0[-d], (d, n)
            assert power_jets(d, 0, n, field) == chart0[d], (d, n)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_power_jets_written_in_lowest_terms(field):
    # the normalizing constructor leaves every coefficient as it is
    for n in range(10):
        for k in range(-6, 7):
            for c in power_jets(k, 0, n, field).coeffs:
                assert LocalPoly(c.numerator, c.unit_var, c.denom_exp) == c, (k, n)


def _p1_grid():
    for d in range(-3, 4):
        for n in (0, 3, 6):
            for fmt in ("text", "json"):
                yield (["p1", "--d", str(d), "--n", str(n), "--cocycle"]
                       + (["--sections"] if d == 1 else []) + ["--format", fmt])


def test_p1_golden_grid(capsys):
    """p1_grid.txt holds each command of the grid followed by its output."""
    parts = []
    for argv in _p1_grid():
        assert main(argv) == 0
        parts.append("$ jetforge %s\n%s" % (" ".join(argv), capsys.readouterr().out))
    assert "".join(parts) == (GOLDEN / "p1_grid.txt").read_text()
