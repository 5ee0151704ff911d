"""
Jet algebras of a plane curve
=============================

The n-th jet algebra of A = k[x,y]/(f) is presented on variables
x_0..x_n, y_0..y_n by the relations f_0, ..., f_n, where f_i is the
t^i-coefficient of f evaluated on the truncated series
x -> x_0 + x_1 t + ... + x_n t^n (and likewise for y).

The coefficient extraction is exactly the Hasse-Schmidt derivation
d_i, so the family (d_i) satisfies the higher Leibniz rule

    d_i(a*b) = sum_{k+l=i} d_k(a) * d_l(b).
"""
from jetforge import (AlgebraPresentation, JetVar, Poly, hs_components,
                      jet_presentation)

x = Poly.var(JetVar("x", 0, 0))
y = Poly.var(JetVar("y", 1, 0))
cusp = AlgebraPresentation(["x", "y"], [y ** 2 - x ** 3])

# second jet algebra of the cuspidal cubic; its one relation f has
# components f_0, f_1, f_2, so relation i is f_i
jp = jet_presentation(cusp, 2)
print("variables:", " ".join(v.render() for v in jp.generators))
for i, rel in enumerate(jp.relations):
    print("f_%d =" % i, rel.render())

# the components d_i are multiplicative in the Leibniz sense
f, g = y ** 2 - x ** 3, x * y + 2
df, dg, dfg = hs_components(f, 2), hs_components(g, 2), hs_components(f * g, 2)
for i in range(3):
    leibniz = sum((df[k] * dg[i - k] for k in range(i + 1)), Poly.zero())
    print("Leibniz at i=%d:" % i, "ok" if leibniz == dfg[i] else "VIOLATED")

# structural grading: deg x_i = i makes every f_i homogeneous of degree i
for i, rel in enumerate(jp.relations):
    degs = {m.weighted_degree(lambda v: v.order1) for m in rel.terms}
    print("f_%d is structurally homogeneous of degree %s" % (i, degs))
