"""
Kaehler differentials of a jet algebra, two ways
================================================

The module of differentials of the level-n jet algebra can be computed

  (a) directly: take the Jacobian matrix of the jet relations, or
  (b) structurally: take the differentials of the base algebra and push
      that module through the Hasse-Schmidt module construction.

They agree entrywise because of the exact polynomial identity

    d (d_i f) / d x_l^(j)  =  d_{i-j}( df/dx_l ).
"""
from jetforge import (AlgebraPresentation, JetVar, Poly,
                      cotangent_theorem_check, hs_module_presentation,
                      jet_presentation, kaehler_presentation)

x = Poly.var(JetVar("x", 0, 0))
y = Poly.var(JetVar("y", 1, 0))
cusp = AlgebraPresentation(["x", "y"], [y ** 2 - x ** 3])

# (a) Jacobian of the jet relations at level 1
direct = kaehler_presentation(jet_presentation(cusp, 1))
print("Jacobian of the jet relations:")
for row in direct.relation_matrix:
    print("  [ " + " ; ".join(p.render() for p in row) + " ]")

# (b) the base cotangent module, pushed through the module construction
base = kaehler_presentation(cusp)
pushed = hs_module_presentation(base, 1)
print("base differentials pushed to level 1:")
for row in pushed.relation_matrix:
    print("  [ " + " ; ".join(p.render() for p in row) + " ]")

ok, detail = cotangent_theorem_check(cusp, 1)
print("entrywise agreement:", "ok" if ok else "FAILED")
