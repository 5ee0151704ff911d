"""Independent oracles used by the tests.

The naive jet-component oracle expands f(sum x^(i) tau^i) as a single
untruncated polynomial with an explicit tau variable and collects tau
powers; it shares no code with the truncated-series engine in
jetforge.jets.  The naive evaluator multiplies Fractions term by term; it
shares no code with the integer kernel of Poly.eval.  The random-point
oracle is jetforge.checks.points_agree.
"""

from fractions import Fraction

from jetforge.poly import JetVar, Monomial, Poly
from jetforge.scalars import Fp

TAU = JetVar("tau", 10**6, 0)


def naive_hs_components(f, n):
    mapping = {}
    for v in f.vars():
        s = Poly.zero(f.field)
        for i in range(n + 1):
            s = s + Poly.var(JetVar(v.name, v.index, i), f.field) * Poly.var(TAU, f.field)**i
        mapping[v] = s
    expanded = f.substitute(mapping)
    out = [Poly.zero(f.field) for _ in range(n + 1)]
    for m, c in expanded.terms.items():
        e = m.exponent(TAU)
        if e > n:
            continue
        stripped = Monomial({v: k for v, k in m.exps if v != TAU})
        out[e] = out[e] + Poly(f.field, {stripped: c})
    return out


def naive_eval(f, point):
    """Term-by-term Fraction evaluation of f at point (JetVar -> value).

    F_p coefficients and values are read as their integer representatives,
    so over F_p the result is an integer still to be reduced mod p."""
    def rational(c):
        return Fraction(c.value) if isinstance(c, Fp) else Fraction(c)

    total = Fraction(0)
    for m, c in f.terms.items():
        term = rational(c)
        for v, e in m.exps:
            term *= rational(point[v]) ** e
        total += term
    return total
