"""
Iterated and bivariate jets
===========================

Taking jets twice, at levels n and m, produces a doubly indexed family of
variables x_{i,j} and relations f_{i,j}.  Three constructions yield the
same presentation:

  * jets at level m, then jets of the result at level n,
  * jets at level n, then jets of the result at level m (indices swapped),
  * the direct bivariate construction substituting
    x -> sum x_{i,j} t^i s^j into f and reading off coefficients.

The equality is checked as an identity of canonical generator sets.
"""
from jetforge import (AlgebraPresentation, JetVar, Poly,
                      bigrade_commute_check, bijet_presentation,
                      cotruncation_subset_check, jet_presentation)

x = Poly.var(JetVar("x", 0, 0))
y = Poly.var(JetVar("y", 1, 0))
cusp = AlgebraPresentation(["x", "y"], [y ** 2 - x ** 3])

# the components f_{i,j} of the one relation come row by row
bp = bijet_presentation(cusp, 1, 1)
for (i, j), rel in zip([(0, 0), (0, 1), (1, 0), (1, 1)], bp.relations):
    print("f_%d_%d =" % (i, j), rel.render())

ok, report = bigrade_commute_check(cusp, 2, 2)
print("three-way commutation at levels (2,2):", "ok" if ok else "FAILED",
      "(%d relations)" % report["count"])

# co-truncation: the level-n relations sit verbatim inside level m >= n
print("jets at level 1 embed in level 3:",
      "ok" if cotruncation_subset_check(cusp, 1, 3) else "FAILED")
for n in (0, 1, 2):
    jp = jet_presentation(cusp, n)
    print("level %d: %d vars, %d relations" % (n, len(jp.jet_vars), len(jp.relations)))
