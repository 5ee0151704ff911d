"""
Hasse-Schmidt modules and the twisted matrix representation
===========================================================

A finitely presented module M over A induces, at each level n, a module
over the jet algebra of A: each basis vector e_l fans out into copies
e_l^(0) .. e_l^(n), and a scalar p acts by the upper-triangular matrix
with entry d_{i-j}(p) in row j, column i.  The assignment p -> T(p) is a
ring homomorphism: T(p*q) = T(p) T(q).
"""
from jetforge import (AlgebraPresentation, JetVar, ModulePresentation, Poly,
                      hs_module_presentation, twisted_action_matrix)

x = Poly.var(JetVar("x", 0, 0))
y = Poly.var(JetVar("y", 1, 0))
free = AlgebraPresentation(["x", "y"], [])

# the twisted action matrix of x*y at level 2
t = twisted_action_matrix(x * y, 2)
for row in t.entries:
    print("[ " + " ; ".join(p.render() for p in row) + " ]")

# multiplicativity, checked exactly
lhs = twisted_action_matrix(x, 2).matmul(twisted_action_matrix(y, 2))
print("T(x) T(y) == T(x*y):", "ok" if lhs == t else "FAILED")

# a rank-2 module with one relation x e1 + y e2, pushed to level 1:
# basis vector c is e_l^(j) and row r is relation k at order i, with
# (l, j) = divmod(c, 2) and (k, i) = divmod(r, 2)
M = ModulePresentation(free, 2, [[x, y]])
hm = hs_module_presentation(M, 1)
print("basis:", " ".join("e%d_%d" % divmod(c, 2) for c in range(hm.rank)))
for r, row in enumerate(hm.relation_matrix):
    print("row %d.%d :" % divmod(r, 2), " ; ".join(p.render() for p in row))
