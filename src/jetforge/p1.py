"""Jet line bundles O(d)_n on the jet spaces of the projective line.

Two charts with coordinates t0 and t1, glued by t1 = 1/t0.  At jet level
n each chart becomes a polynomial ring on t_i^(0..n); the overlap is the
chart-0 jet ring localized at t0^(0).  The bundle O(d) transitions by
e_0 -> t1^d e_1, and its jet bundle transitions by the corresponding
twisted-action matrix of t1^d.
"""

from dataclasses import dataclass

from .errors import UnsupportedTwist
from .localized import LocalPoly
from .poly import JetVar, Poly
from .scalars import QQ
from .series import TruncSeries, series_invert


def chart_var(chart, order):
    return JetVar("t%d" % chart, chart, order)


def _chart_series(chart, n, unit_chart, field=QQ):
    """sum_i t_chart^(i) s^i with coefficients localized at t_unit^(0)."""
    u = chart_var(unit_chart, 0)
    return TruncSeries(n, [LocalPoly(Poly.var(chart_var(chart, i), field), u)
                           for i in range(n + 1)])


def transition_series(d, n, express_in="chart1", field=QQ):
    """Jets of t1^d as a truncated series.

    In chart1 coordinates the coefficients are (localized) polynomials in
    the t1 jets; in overlap coordinates the t1 jets are replaced by the
    jets of 1/t0, obtained by series inversion over the t0 chart.
    """
    if express_in == "chart1":
        base = _chart_series(1, n, unit_chart=1, field=field)
    elif express_in == "overlap":
        base = series_invert(_chart_series(0, n, unit_chart=0, field=field))
    else:
        raise ValueError("express_in must be chart1 or overlap")
    if d >= 0:
        return base**d
    return series_invert(base) ** (-d)


@dataclass
class TransitionMatrix:
    """Column j expands e_0^(j) as sum_i d_{j-i}(t1^d) e_1^(i)."""

    d: int
    level: int
    entries: list  # (n+1) x (n+1) LocalPoly, row i, column j
    basis_from: list
    basis_to: list

    def to_rows(self):
        return [[p.render() for p in row] for row in self.entries]


def _matrix_from_series(s, d, n):
    zero = s.coeffs[0] * 0
    entries = [[s.coeffs[j - i] if i <= j else zero for j in range(n + 1)]
               for i in range(n + 1)]
    return TransitionMatrix(d, n, entries,
                            ["e0_%d" % j for j in range(n + 1)],
                            ["e1_%d" % i for i in range(n + 1)])


def p1_transition(d, n, express_in="chart1", field=QQ):
    return _matrix_from_series(transition_series(d, n, express_in, field), d, n)


def cocycle_check(d, n, field=QQ):
    """Transition composed with the reverse transition over the overlap must
    be the identity of the localized jet ring."""
    return _cocycle_holds(transition_series(d, n, "overlap", field), d, n)


def _cocycle_holds(s01, d, n):
    """cocycle_check for the overlap-coordinate jets s01 of t1^d."""
    field = s01.coeffs[0].field
    s10 = _chart_series(0, n, unit_chart=0, field=field)     # jets of t0
    s10 = s10**d if d >= 0 else series_invert(s10) ** (-d)   # jets of t0^d
    prod = s01 * s10
    one = prod.coeffs[0].unit_one()
    zero = prod.coeffs[0] * 0
    return list(prod.coeffs) == [one] + [zero] * n


@dataclass
class SectionDescriptor:
    label: str
    chart: int
    other_chart_expression: list  # coefficients over the other chart's basis
    is_global: bool


def global_sections(d, n, field=QQ):
    """Generators of the global sections of O(1)_n: e_i^(j) for both charts,
    each verified regular by expressing it in the other chart and checking
    denominator-freeness."""
    if d != 1:
        raise UnsupportedTwist("global sections implemented for d = 1 only")
    sections = []
    # e_0^(j) on chart 1: column j of the transition matrix in chart-1 jets
    m01 = p1_transition(1, n, "chart1", field)
    for j in range(n + 1):
        col = [m01.entries[i][j] for i in range(n + 1)]
        sections.append(SectionDescriptor(
            "e0_%d" % j, 0, [p.render() for p in col],
            all(p.denom_exp == 0 for p in col)))
    # e_1^(j) on chart 0: the reverse bundle map e_1 -> t0^1 e_0
    s10 = _chart_series(0, n, unit_chart=0, field=field)
    m10 = _matrix_from_series(s10, 1, n)
    for j in range(n + 1):
        col = [m10.entries[i][j] for i in range(n + 1)]
        sections.append(SectionDescriptor(
            "e1_%d" % j, 1, [p.render() for p in col],
            all(p.denom_exp == 0 for p in col)))
    return sections
