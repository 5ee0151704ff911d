"""
Symmetric algebras, functoriality, base change, duality
=======================================================

Four structural facts, each verified as an exact identity on concrete
presentations:

  * jets commute with symmetric algebras, HS^n(Sym M) = Sym(HS^n M): the
    jet relations of Sym(M) are, as a multiset, the base jet relations
    and one linear relation sum_c p_c e_c per Hasse-Schmidt module row;
  * an algebra map phi induces a map of jet algebras via
    x^(i) -> d_i(phi(x));
  * forming the Hasse-Schmidt module commutes with base change along phi;
  * for free modules, the level-n module and its dual pair perfectly
    (a zig-zag identity on the Kronecker pairing).
"""
from jetforge import (AlgebraMorphism, AlgebraPresentation, JetVar,
                      ModulePresentation, Poly, base_change_check,
                      free_dual_zigzag_check, induced_morphism,
                      sym_theorem_check)

x = Poly.var(JetVar("x", 0, 0))
y = Poly.var(JetVar("y", 1, 0))
free = AlgebraPresentation(["x", "y"], [])
M = ModulePresentation(free, 2, [[x, y]])

ok, detail = sym_theorem_check(M, 2)
print("Sym commutes with jets (level 2):", "ok" if ok else "FAILED")

# the normalization map of the cusp, u -> (u^2, u^3), at jet level 1
cusp = AlgebraPresentation(["x", "y"], [y ** 2 - x ** 3])
line = AlgebraPresentation(["u"], [])
u = Poly.var(JetVar("u", 0, 0))
phi = AlgebraMorphism(cusp, line, {JetVar("x", 0, 0): u ** 2,
                                   JetVar("y", 1, 0): u ** 3})
jphi = induced_morphism(phi, 1)
for v in sorted(jphi.images, key=lambda w: w.sort_key()):
    print("%s -> %s" % (v.render(), jphi.images[v].render()))

Mc = ModulePresentation(cusp, 2, [[x, y]])
ok, detail = base_change_check(phi, Mc, 2)
print("base change commutes:", "ok" if ok else "FAILED")
ok = all(free_dual_zigzag_check(n)[0] for n in range(6))
print("zig-zag duality at levels 0..5:", "ok" if ok else "FAILED")
