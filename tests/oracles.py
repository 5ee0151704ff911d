"""Independent oracles used by the tests.

The naive component oracle substitutes every variable v by
sum_g w_g tau^g, with explicit tau variables (one per grade coordinate),
expands the result as a single untruncated polynomial with Poly's public
ring arithmetic and collects by tau exponents.  It shares no code with the
multinomial substitution engine in jetforge.jets, which uses none of
Poly's arithmetic.  The naive derivative differentiates by one variable
at a time, term by term, summing one-term polynomials with Poly addition;
it shares no code with Poly.gradient.  The naive evaluator multiplies
Fractions term by term; it shares no code with the integer kernel of
Poly.eval.  The reference point oracle makes the same draws as
jetforge.checks.points_agree, builds Fraction points and compares the two
sides pair by pair with Poly.eval.  The text references are the renderer
and tokenizer jetforge had before variables kept their rendered text and
the tokenizer became one comprehension: each formats every variable and
coefficient afresh, and the tokenizer reads each token's column from its
group after a leading-whitespace prefix.
"""

import re
from fractions import Fraction

from jetforge.checks import ORACLE_POINTS
from jetforge.errors import ParseError
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


def naive_partial(f, v):
    """df/dv: each term c * v^e * rest gives the one-term polynomial
    (c * e) * v^(e - 1) * rest, built from an exponent dict and coerced."""
    out = Poly.zero(f.field)
    for m, c in f.terms.items():
        exps = dict(m.exps)
        e = exps.get(v, 0)
        if e:
            exps[v] = e - 1
            out = out + Poly(f.field, {Monomial(exps): c * e})
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


def reference_var_render(v, base_plain=False):
    if v.order2 is not None:
        return "%s_%d_%d" % (v.name, v.order1, v.order2)
    if base_plain and v.order1 == 0:
        return v.name
    return "%s_%d" % (v.name, v.order1)


def reference_monomial_render(m, base_plain=False):
    if not m:
        return "1"
    parts = []
    for v, e in m:
        s = reference_var_render(v, base_plain)
        parts.append(s if e == 1 else "%s^%d" % (s, e))
    return "*".join(parts)


def reference_poly_render(f, base_plain=False):
    if not f.terms:
        return "0"
    parts = []
    for i, (m, c) in enumerate(f.sorted_terms()):
        cs = f.field.render(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if m.is_unit():
            body = mag
        elif mag == "1":
            body = reference_monomial_render(m, base_plain)
        else:
            body = "%s*%s" % (mag, reference_monomial_render(m, base_plain))
        if i == 0:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


# The tokenizer's pattern with ASCII digits, which the tokenizer adopted at
# the same time; the references agree on every input, Unicode digits too.
_REFERENCE_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                              r"|(?P<op>->|[-+*/^(),\[\]:=])|(?P<bad>\S))")


def reference_tokenize(text, line_no):
    tokens = []
    end = 0
    for m in _REFERENCE_TOKEN.finditer(text):
        kind, end = m.lastgroup, m.end()
        col = m.start(kind) + 1
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group(kind), line_no, col)
        tokens.append((kind, m.group(kind), line_no, col))
    tokens.append(("end", "", line_no, end + 1))
    return tokens
