"""Independent oracles used by the tests.

The naive component oracle substitutes every variable v by
sum_g w_g tau^g, with explicit tau variables (one per grade coordinate),
expands the result as a single untruncated polynomial with Poly's public
ring arithmetic and collects by tau exponents.  It shares no code with the
multinomial substitution engine in jetforge.jets, which uses none of
Poly's arithmetic.  The naive evaluator multiplies Fractions term by
term; it shares no code with the integer kernel of Poly.eval.  The
reference point oracle makes the same draws as
jetforge.checks.points_agree, builds Fraction points and compares the two
sides pair by pair with Poly.eval.
"""

from fractions import Fraction

from jetforge.checks import ORACLE_POINTS
from jetforge.poly import JetVar, Monomial, Poly
from jetforge.scalars import Fp

TAU = JetVar("tau", 10**6, 0)
SIGMA = JetVar("sigma", 10**6 + 1, 0)


def naive_components(f, families, taus):
    """{grade: Poly} of f after substituting each variable v by
    sum over families[v] of w_g * prod_k taus[k]^g[k], untruncated; the
    grades that do not occur are missing."""
    fld = f.field
    mapping = {}
    for v in f.vars():
        s = Poly.zero(fld)
        for g, w in families[v].items():
            t = Poly.var(w, fld)
            for tau, k in zip(taus, g):
                t = t * Poly.var(tau, fld) ** k
            s = s + t
        mapping[v] = s
    out = {}
    for m, c in f.substitute(mapping).terms.items():
        g = tuple(m.exponent(tau) for tau in taus)
        stripped = Poly(fld, {Monomial({v: k for v, k in m.exps if v not in taus}): c})
        out[g] = out.get(g, Poly.zero(fld)) + stripped
    return out


def naive_hs_components(f, n):
    families = {v: {(i,): JetVar(v.name, v.index, i) for i in range(n + 1)} for v in f.vars()}
    comps = naive_components(f, families, (TAU,))
    return [comps.get((i,), Poly.zero(f.field)) for i in range(n + 1)]


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


def naive_points_agree(rng, lhs, rhs):
    """Reference for checks.points_agree: Fraction points, one Poly.eval per
    polynomial, pair and point."""
    variables = sorted({v for p in list(lhs) + list(rhs) for v in p.vars()},
                       key=JetVar.sort_key)
    for _ in range(ORACLE_POINTS):
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in variables}
        for a, b in zip(lhs, rhs):
            if a.eval(pt) != b.eval(pt):
                return False
    return True
