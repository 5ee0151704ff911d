"""
Jet bundles of line bundles on the projective line
==================================================

Cover P^1 by two affine charts with coordinates t0, t1 = 1/t0.  The
line bundle O(d) has transition function t1^d; its level-n jet bundle
has transition matrix T(t1^d), the twisted action matrix, with entries
written over the overlap (denominators are powers of t0^(0));
p1_transition returns its rows, LocalPoly entries that render as text.

The cocycle condition -- that the transitions for O(d) and O(-d)
multiply to the identity -- holds exactly in the localized ring.  Both
sides are jets of integer powers of t0, written in closed form by the
generalized binomial theorem, so no series is ever inverted.

For O(1) the jet bundle is globally generated: each chart basis vector
e_i^(j) extends across the other chart with denominator-free
coefficients, giving 2(n+1) global sections; global_sections returns
each as a (label, regular) pair.
"""
from jetforge import cocycle_check, global_sections, p1_transition

for n in (1, 2):
    print("transition of O(1)_%d over the overlap:" % n)
    for row in p1_transition(1, n, "overlap"):
        print("  [ " + " ; ".join(p.render() for p in row) + " ]")

for d in range(-2, 3):
    ok = all(cocycle_check(d, n)[0] for n in range(4))
    print("cocycle for O(%d), levels 0..3:" % d, "ok" if ok else "FAILED")

for n in range(3):
    secs = global_sections(1, n)
    labels = " ".join(label for label, _ in secs)
    regular = all(ok for _, ok in secs)
    print("O(1)_%d: %d global sections (%s)%s"
          % (n, len(secs), labels, "" if regular else "  NOT REGULAR"))
