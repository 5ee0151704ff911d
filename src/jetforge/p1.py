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

``power_jets`` reads its multisets from the jet engine's ``jets._rows``
tables, which hold them as ready monomials; it writes a table monomial as
it is where no power of u multiplies it.  It writes each coefficient in
lowest terms (``localized``'s invariant), without a scan; the cocycle's
series product keeps lowest terms through ``LocalPoly`` arithmetic, so its
comparison is one of reduced forms and nothing is normalized twice.

``p1_transition`` returns the twisted-action matrix as the rows of
``hsmodules.upper_triangle``, and ``global_sections`` returns (label,
regular) pairs.
"""

from .errors import UnsupportedTwist
from .hsmodules import upper_triangle
from .jets import _check_levels, _rows
from .localized import _local
from .poly import JetVar, _monomial, _poly
from .scalars import QQ
from .series import TruncSeries


def chart_var(chart, order):
    return JetVar("t%d" % chart, chart, order)


def power_jets(k, chart, n, field=QQ):
    """Jets of t_chart^k to level n, localized at u = t_chart^(0), each
    coefficient in lowest terms as it is written.  The multisets of size m
    are the ``jets._rows`` table of v^m over the box (n-m,) read through
    t^(1..n-m+1), so its grade g is g + m here (size 0 names no variable),
    and a term of size m carries u^(k-m).  A coefficient's denominator is
    u^max(0, top-k), top its largest m with a term nonzero in the field (a
    multinomial can vanish over F_p).  So m runs downwards, and the first
    term written to a coefficient fixes its denominator."""
    _check_levels((n,))
    t = tuple(chart_var(chart, i) for i in range(n + 1))
    u = t[0]
    binoms = [1]  # binom(k, m) for m = 0..n, up to its first 0
    for m in range(n):
        b = binoms[-1] * (k - m) // (m + 1)
        if not b:
            break
        binoms.append(b)
    coeffs = [{} for _ in range(n + 1)]
    denoms = [0] * (n + 1)
    for m in reversed(range(len(binoms))):
        b = binoms[m]
        for g, rows in _rows(t[1:n - m + 2], m, (n - m,)):
            j = g + m
            dest = coeffs[j]
            if not dest:  # kept once a term of this size is written
                denoms[j] = max(0, m - k)
            e = k - m + denoms[j]
            head = ((u, e),) if e else ()
            for mono, mult in rows:
                c = field.coerce(b * mult)
                if c:
                    dest[_monomial(head + mono) if head else mono] = c
    return TruncSeries(n, [_local(_poly(field, c), u, e if c else 0)
                           for c, e in zip(coeffs, denoms)])


def transition_series(d, n, field=QQ):
    """Jets of t1^d over the overlap, as a truncated series: the jets of
    t0^(-d).  In the t1 jets they are ``power_jets(d, 1, n, field)``."""
    return power_jets(-d, 0, n, field)


def p1_transition(d, n, field=QQ):
    """The twisted-action matrix of t1^d over the overlap as rows of
    LocalPoly, laid out by hsmodules.upper_triangle: column j expands
    e_0^(j) as sum_i d_{j-i}(t1^d) e_1^(i)."""
    s = transition_series(d, n, field)
    return upper_triangle(s.coeffs, s.coeffs[0] * 0)


def cocycle_check(d, n, field=QQ):
    """Transition composed with the reverse transition over the overlap must
    be the identity of the localized jet ring: ``(ok, detail)``, as in ``checks``."""
    ok = _cocycle_holds(transition_series(d, n, field), d, n)
    return ok, None if ok else {"d": d, "n": n}


def _cocycle_holds(s01, d, n):
    """cocycle_check for the overlap-coordinate jets s01 of t1^d."""
    field = s01.coeffs[0].field
    return s01 * power_jets(d, 0, n, field) == power_jets(0, 0, n, field)


def global_sections(d, n, field=QQ):
    """The generators e_i^(j) of the global sections of O(1)_n, both charts,
    as (label, regular) pairs: e_i^(j) is regular when it extends across
    the other chart with denominator-free coefficients."""
    if d != 1:
        raise UnsupportedTwist("global sections implemented for d = 1 only")
    sections = []
    # e_i^(j) lives on chart i; in the other chart it is column j of the
    # twisted matrix of t_(1-i), whose entries are the jets d_0 .. d_j of
    # t_(1-i) and zeros (for i = 0 that is the chart1 transition of O(1))
    for i in (0, 1):
        jets = power_jets(1, 1 - i, n, field).coeffs
        for j in range(n + 1):
            sections.append(("e%d_%d" % (i, j), all(p.denom_exp == 0 for p in jets[:j + 1])))
    return sections
