"""Jet line bundles O(d)_n on the jet spaces of the projective line.

Two charts with coordinates t0 and t1, glued by t1 = 1/t0.  At jet level
n each chart becomes a polynomial ring on t_i^(0..n); the overlap is the
chart-0 jet ring localized at t0^(0).  The bundle O(d) transitions by
e_0 -> t1^d e_1 = t0^(-d) e_1, and its jet bundle by the twisted-action
matrix of t1^d, whose entries are jets of an integer power of a chart
coordinate.  With u = t^(0), the generalized binomial theorem gives

    (u + sum_{h>=1} t^(h) s^h)^k = sum binom(k, m) * m! / prod a_h!
                                   * u^(k-m) * prod (t^(h))^(a_h) * s^g

over the multisets {a_h}, h >= 1, of size m = sum a_h and grade
g = sum h * a_h; binom(k, m) = k(k-1)...(k-m+1)/m! is an integer for
negative k too, so no series is inverted.
"""

from dataclasses import dataclass

from .errors import UnsupportedTwist
from .hsmodules import upper_triangle
from .jets import _expansion
from .localized import LocalPoly
from .poly import JetVar, _monomial, _poly
from .scalars import QQ
from .series import TruncSeries


def chart_var(chart, order):
    return JetVar("t%d" % chart, chart, order)


def power_jets(k, chart, n, field=QQ):
    """Jets of t_chart^k to level n, localized at u = t_chart^(0).  The
    multisets of size m are the jets._expansion table of grades 0..n-m
    shifted up by one; numerators carry u^pad so that u's exponent stays
    non-negative, and LocalPoly cancels the padding."""
    t = [chart_var(chart, i) for i in range(n + 1)]
    shifted = t[1:].__getitem__  # grade h of the table is t^(h+1)
    pad = max(0, n - k)
    coeffs = [{} for _ in range(n + 1)]
    b = 1  # binom(k, m)
    for m in range(n + 1):
        if not b:
            break
        head = ((t[0], k - m + pad),) if k - m + pad else ()
        for g, entries in _expansion(m, (n - m,)):
            dest = coeffs[g + m]
            for grades, exponents, mult in entries:
                c = field(b * mult)
                if c:
                    dest[_monomial(head + tuple(zip(map(shifted, grades), exponents)))] = c
        b = b * (k - m) // (m + 1)
    return TruncSeries(n, [LocalPoly(_poly(field, c), t[0], pad) for c in coeffs])


def transition_series(d, n, express_in="chart1", field=QQ):
    """Jets of t1^d as a truncated series: in the t1 jets ("chart1"), or
    as the jets of t0^(-d) ("overlap")."""
    if express_in == "chart1":
        return power_jets(d, 1, n, field)
    if express_in == "overlap":
        return power_jets(-d, 0, n, field)
    raise ValueError("express_in must be chart1 or overlap")


@dataclass
class TransitionMatrix:
    """Column j expands e_0^(j) as sum_i d_{j-i}(t1^d) e_1^(i)."""

    d: int
    level: int
    entries: list  # (n+1) x (n+1) LocalPoly, row i, column j

    def to_rows(self):
        return [[p.render() for p in row] for row in self.entries]


def _matrix_from_series(s, d, n):
    return TransitionMatrix(d, n, upper_triangle(s.coeffs, s.coeffs[0] * 0))


def p1_transition(d, n, express_in="chart1", field=QQ):
    return _matrix_from_series(transition_series(d, n, express_in, field), d, n)


def cocycle_check(d, n, field=QQ):
    """Transition composed with the reverse transition over the overlap must
    be the identity of the localized jet ring."""
    return _cocycle_holds(transition_series(d, n, "overlap", field), d, n)


def _cocycle_holds(s01, d, n):
    """cocycle_check for the overlap-coordinate jets s01 of t1^d."""
    field = s01.coeffs[0].field
    return s01 * power_jets(d, 0, n, field) == power_jets(0, 0, n, field)


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
    # e_i^(j) lives on chart i; column j of the jets of t_(1-i)^1 expresses
    # it on the other chart (for i = 0 that is the chart1 transition of O(1))
    for i in (0, 1):
        m = _matrix_from_series(power_jets(1, 1 - i, n, field), 1, n)
        for j in range(n + 1):
            col = [m.entries[r][j] for r in range(n + 1)]
            sections.append(SectionDescriptor(
                "e%d_%d" % (i, j), i, [p.render() for p in col],
                all(p.denom_exp == 0 for p in col)))
    return sections
