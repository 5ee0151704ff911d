"""Theorem checks, and a seeded checker that runs them on random instances.

Each theorem check returns ``(ok, detail)``: ``ok`` is a bool and ``detail``
is None when the theorem holds; on a failure it is the JSON-able dict that
the check report gives, with the instance as the replayable DSL document
``input`` where it is one.  ``p1.cocycle_check`` keeps this contract in
``p1``, so that ``jetforge p1 --cocycle`` does not load this module.

``SUITES`` maps each suite name to its function, in report order.  Every
suite has the signature ``(rng, orng) -> (ok, ok_numeric, detail)``:
it draws one instance from ``rng``, a deterministic stream derived from
the seed and the suite name, and checks an exact polynomial identity
(``ok``).  Suites that also evaluate both sides at random rational points
with ``points_agree`` draw those points from ``orng`` and return the
numeric verdict as ``ok_numeric``; the others return None.  The oracle
evaluates both sides at all its points in one call of the
point-vectorized kernel ``poly._eval_points``, which ``Poly.eval`` also
calls, and compares them exactly, as integer rows over one denominator per
point.  A symbolic and a numeric verdict that differ count as an oracle
disagreement.  Every draw goes through ``_randint`` and ``_choice``, which
run the ``rng.getrandbits`` rejection loop of CPython 3.10-3.13's
``Random.randint`` and ``choice``: the same values from the same stream,
without ``randrange``'s argument checks.
``detail`` is as for the theorem checks.

``run_suite`` takes the seed, the trial count and the suites, and returns
its report as the plain dict that ``jetforge check --format json`` prints;
``report_text`` gives its text form.  Instance sizes are module constants,
not options: ``MAX_VARS`` variables, ``MAX_RELATIONS`` relations, degree
``MAX_DEGREE``, jet level ``MAX_LEVEL`` (``MAX_BILEVEL`` per bivariate
level) and integer coefficients in ``COEFF_LO..COEFF_HI``.
"""

import random
import time
from collections import Counter
from itertools import chain

from .dsl import print_document
from .errors import BadLevels, FieldMismatch, UnknownSuite
from .hsmodules import (ModulePresentation, TwistedMatrix, hs_module_presentation,
                        kaehler_presentation, linear_form, module_symbols, sym_presentation,
                        twisted_action_matrix, upper_triangle)
from .jets import (AlgebraMorphism, AlgebraPresentation, _family, hs_components,
                   hs_components_2d, induced_morphism, jet_again, jet_presentation)
from .p1 import cocycle_check
from .poly import JetVar, Monomial, Poly, _eval_points
from .scalars import QQ

ORACLE_POINTS = 20

MAX_VARS = 3
MAX_RELATIONS = 2
MAX_DEGREE = 3
MAX_LEVEL = 4
MAX_BILEVEL = 2
COEFF_LO, COEFF_HI = -9, 9


# ---------------------------------------------------------------------------
# random instances

_VAR_NAMES = ("x", "y", "z")
_TARGET_NAMES = ("u", "v", "w")


def _randint(rng, lo, hi):
    """rng.randint(lo, hi), drawn by the rejection loop of CPython 3.10-3.13."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _choice(rng, seq):
    return seq[_randint(rng, 0, len(seq) - 1)]


def random_poly(rng, names, max_terms=5):
    gens = [JetVar(x, i, 0) for i, x in enumerate(names)]
    terms = {}
    for _ in range(_randint(rng, 0, max_terms)):
        deg = _randint(rng, 0, MAX_DEGREE)
        mono = {}
        for _ in range(deg):
            v = _choice(rng, gens)
            mono[v] = mono.get(v, 0) + 1
        c = _randint(rng, COEFF_LO, COEFF_HI)
        if c == 0:
            continue
        key = Monomial(mono)
        terms[key] = terms.get(key, 0) + c
    return Poly(QQ, terms)


def random_homogeneous_poly(rng, names, degrees, target, max_terms=4):
    """Nonzero-by-construction homogeneous polynomial of weighted degree target."""
    gens = [(JetVar(x, i, 0), degrees[x]) for i, x in enumerate(names)]
    terms = {}
    for _ in range(_randint(rng, 1, max_terms)):
        mono = {}
        remaining = target
        guard = 0
        while remaining > 0 and guard < 50:
            guard += 1
            v, d = _choice(rng, gens)
            if d <= remaining:
                mono[v] = mono.get(v, 0) + 1
                remaining -= d
        if remaining:
            continue
        c = _randint(rng, COEFF_LO, COEFF_HI) or 1
        key = Monomial(mono)
        terms[key] = terms.get(key, 0) + c
    if not any(terms.values()):
        # fall back to a single pure power of a degree-1 generator
        v = next(v for v, d in gens if d == 1)
        terms = {Monomial({v: target}): 1}
    return Poly(QQ, terms)


def random_algebra(rng, graded=False, max_relations=MAX_RELATIONS):
    nvars = _randint(rng, 1, MAX_VARS)
    names = list(_VAR_NAMES[:nvars])
    nrel = _randint(rng, 0, max_relations)
    if graded:
        degrees = {x: 1 for x in names}
        for x in names[1:]:
            degrees[x] = _randint(rng, 1, 2)
        rels = [random_homogeneous_poly(rng, names, degrees, _randint(rng, 1, MAX_DEGREE))
                for _ in range(nrel)]
        return AlgebraPresentation(names, rels, degrees, QQ)
    rels = [random_poly(rng, names) for _ in range(nrel)]
    return AlgebraPresentation(names, rels, None, QQ)


def random_module(rng, over=None):
    A = over or random_algebra(rng, max_relations=1)
    rank = _randint(rng, 0, 2)
    nrel = _randint(rng, 0, MAX_RELATIONS) if rank else 0
    rows = [[random_poly(rng, A.vars, max_terms=3) for _ in range(rank)]
            for _ in range(nrel)]
    return ModulePresentation(A, rank, rows)


def random_morphism(rng):
    src = AlgebraPresentation(list(_VAR_NAMES[:_randint(rng, 1, 2)]), [], None, QQ)
    tgt = AlgebraPresentation(list(_TARGET_NAMES[:_randint(rng, 1, 2)]), [], None, QQ)
    images = {v: random_poly(rng, tgt.vars, max_terms=3) for v in src.base_vars()}
    return AlgebraMorphism(src, tgt, images)


def _draw_point(rng, nslots):
    return [(_randint(rng, -9, 9), _randint(rng, 1, 5)) for _ in range(nslots)]


def points_agree(rng, lhs, rhs):
    """Numeric verdict: the polynomial families lhs and rhs (sequences of
    Polys over Q, of one length) agree termwise at ORACLE_POINTS random
    rational points drawn from rng.

    Each coordinate is drawn as a numerator in -9..9 and a denominator in
    1..5, point by point and variable by variable in sort order, and the
    variable's slot is its place in that order.  One call of the kernel
    ``_eval_points`` evaluates every distinct polynomial object at all the
    points over one denominator per point, so each pair is compared as
    integer rows.  On a disagreement rng is left as if the draws had
    stopped after the first point where some pair differs."""
    distinct = {}  # pair by pair, so the kernel drops a monomial after its last pair
    variables = set()
    for p in chain.from_iterable(zip(lhs, rhs, strict=True)):
        if p.field != QQ:
            raise FieldMismatch("the point oracle evaluates over Q, not %r" % (p.field,))
        if id(p) not in distinct:
            distinct[id(p)] = p.terms
            variables.update([v for m in p.terms for v, _ in m])
    slots = {v: s for s, v in enumerate(sorted(variables, key=JetVar.sort_key))}
    pairs = [(id(a), id(b)) for a, b in zip(lhs, rhs)]
    start = rng.getstate()
    points = [_draw_point(rng, len(slots)) for _ in range(ORACLE_POINTS)]
    rows = dict(zip(distinct, _eval_points(list(distinct.values()), slots, points)[0]))
    firsts = [next(k for k, (x, y) in enumerate(zip(rows[a], rows[b])) if x != y)
              for a, b in pairs if rows[a] != rows[b]]
    if not firsts:
        return True
    rng.setstate(start)
    for _ in range(min(firsts) + 1):
        _draw_point(rng, len(slots))
    return False


# ---------------------------------------------------------------------------
# theorem checks


def bigrade_commute_check(A, n, m):
    """Three-way generator-set comparison: jets-of-jets both ways (with the
    index-permutation renaming folded into variable construction) against
    the direct bivariate jet relations.  The nonzero generators are compared
    as multisets of polynomials, and rendered only for a failure report."""
    side_a = []  # level m first, then level n outside
    side_b = []  # level n first, then level m outside
    side_c = []
    for f in A.relations:
        for g in hs_components(f, m):
            side_a.extend(jet_again(g, n, outer_to="order1"))
        for g in hs_components(f, n):
            side_b.extend(jet_again(g, m, outer_to="order2"))
        side_c.extend(hs_components_2d(f, n, m))
    sides = [Counter(p for p in side if p.terms) for side in (side_a, side_b, side_c)]
    if sides[0] == sides[1] == sides[2]:
        return True, None
    sets = {name: sorted(p.render() for p in side.elements())
            for name, side in zip(("n_after_m", "m_after_n", "bivariate"), sides)}
    return False, {"n": n, "m": m, "count": sides[2].total(), "sets": sets,
                   "input": print_document(A)}


def cotruncation_subset_check(A, n, m):
    """Level-n jet relations must appear verbatim among the level-m ones
    (same relation, same order): d_0..d_n of each relation are the first
    n+1 of its level-m components; the co-truncation map is variable
    inclusion."""
    if m <= n:
        raise BadLevels("need m > n, got n=%d m=%d" % (n, m))
    for k, f in enumerate(A.relations):
        high = hs_components(f, m)
        for i, g in enumerate(hs_components(f, n)):
            if high[i] != g:
                return False, {"n": n, "m": m, "relation": k, "order": i,
                               "level_n": g.render(), "level_m": high[i].render(),
                               "input": print_document(A)}
    return True, None


def cotangent_theorem_check(A, n):
    """Omega of the level-n jet algebra against the level-n Hasse-Schmidt
    module of Omega_A, entrywise; a mismatch is labelled by its row (k, i)
    and column (l, j)."""
    jet_jac = kaehler_presentation(jet_presentation(A, n))
    block = hs_module_presentation(kaehler_presentation(A), n)
    if len(jet_jac.relation_matrix) != len(block.relation_matrix):
        return False, {"n": n, "reason": "row count mismatch", "input": print_document(A)}
    mismatches = []
    for r, (row1, row2) in enumerate(zip(jet_jac.relation_matrix, block.relation_matrix)):
        for c, (p1, p2) in enumerate(zip(row1, row2)):
            if p1 != p2:
                mismatches.append({"row": divmod(r, n + 1), "col": divmod(c, n + 1),
                                   "jet_jacobian": p1.render(), "block": p2.render()})
    if not mismatches:
        return True, None
    return False, {"n": n, "rows": len(block.relation_matrix), "cols": block.rank,
                   "mismatches": mismatches, "input": print_document(A)}


def sym_theorem_check(M, n):
    """Jets of Sym(M) split by induced degree: degree-0 relations must be the
    jet relations of the base algebra, degree-1 relations the rows of the
    Hasse-Schmidt module presentation."""
    sym = sym_presentation(M)
    sp = jet_presentation(sym, n)
    hsm = hs_module_presentation(M, n)

    def failure(**found):
        return False, {"n": n, **found, "input": print_document(M.over, module=M)}

    deg0 = []
    deg1 = []
    for g in sp.relations:
        if g.is_zero():
            continue
        d = sym.homogeneous_degree(g)
        # jets of homogeneous relations stay homogeneous for the induced grading
        if d is None:
            return failure(stage="degree1", reason="not homogeneous", relation=g.render())
        (deg0 if d == 0 else deg1).append(g)

    want0 = Counter(g for g in hsm.over.relations if not g.is_zero())
    if want0 != Counter(deg0):
        return failure(stage="degree0", want=sorted(g.render() for g in want0.elements()),
                       got=sorted(g.render() for g in deg0))

    # each degree-1 relation is a linear form in the e_l^(j), basis vector (l, j) of hsm
    symbols = module_symbols(len(M.over.vars), M.rank, n)
    rows_got = []
    for g in deg1:
        row = linear_form(g, symbols)
        if row is None:
            return failure(stage="degree1", reason="not linear in module symbols",
                           relation=g.render())
        rows_got.append(tuple(row))
    # zero rows generate nothing; drop them on both sides
    rows_want = [tuple(row) for row in hsm.relation_matrix if any(p.terms for p in row)]
    rows_got = [row for row in rows_got if any(p.terms for p in row)]
    if Counter(rows_got) == Counter(rows_want):
        return True, None
    return failure(degree1_rows=len(rows_got),
                   want=sorted(tuple(p.render() for p in row) for row in rows_want),
                   got=sorted(tuple(p.render() for p in row) for row in rows_got))


def base_change_check(phi, M, n):
    """f_n applied entrywise to the Hasse-Schmidt presentation of M equals the
    Hasse-Schmidt presentation of the pushed-forward module."""
    fn = induced_morphism(phi, n)
    left = hs_module_presentation(M, n)
    pushed = ModulePresentation(phi.target, M.rank,
                                [[phi.apply(p) for p in row] for row in M.relation_matrix])
    right = hs_module_presentation(pushed, n)
    for row1, row2 in zip(left.relation_matrix, right.relation_matrix):
        for p1, p2 in zip(row1, row2):
            if fn.apply(p1) != p2:
                return False, {"n": n, "input": print_document(phi.source, module=M,
                                                               morphism=phi)}
    return True, None


def free_dual_zigzag_check(n):
    """Coevaluation 1 -> sum t^[i] (x) t^i against the Kronecker evaluation
    t^i (x) t^[j] -> delta_ij: both triangle composites must be the identity
    on the free rank-(n+1) pair, over Q."""
    ident = [[QQ.one if a == b else QQ.zero for b in range(n + 1)] for a in range(n + 1)]
    # eta as a matrix: component (a, b) of the tensor sum_i delta_ia delta_ib;
    # theta(t^a, t^[b]) = delta_ab
    eta = theta = ident
    # composite on the dual side: e^[j] -> sum_i t^[i] (x) t^i (x) e^[j]
    #                                   -> sum_i t^[i] theta(t^i, e^[j])
    comp1 = [[sum(eta[i][a] * theta[a][j] for a in range(n + 1))
              for j in range(n + 1)] for i in range(n + 1)]
    # composite on the module side: t^a -> t^a (x) sum_i t^[i] (x) t^i
    #                                   -> sum_i theta(t^a, t^[i]) t^i
    comp2 = [[sum(theta[a][i] * eta[i][b] for i in range(n + 1))
              for b in range(n + 1)] for a in range(n + 1)]
    ok = comp1 == ident and comp2 == ident
    return ok, None if ok else {"n": n}


# ---------------------------------------------------------------------------
# suites


def _suite_leibniz(rng, orng):
    nvars = _randint(rng, 1, MAX_VARS)
    names = list(_VAR_NAMES[:nvars])
    f = random_poly(rng, names)
    g = random_poly(rng, names)
    n = _randint(rng, 0, MAX_LEVEL)
    cf, cg, cfg = hs_components(f, n), hs_components(g, n), hs_components(f * g, n)
    conv = [sum((cf[k] * cg[i - k] for k in range(i + 1)), Poly.zero(QQ))
            for i in range(n + 1)]
    ok_sym = conv == cfg
    ok_num = points_agree(orng, conv, cfg)
    detail = None if ok_sym else {"n": n, "input": print_document(
        AlgebraPresentation(names, [f, g]))}
    return ok_sym, ok_num, detail


def _suite_structural(rng, orng):
    names = list(_VAR_NAMES[:_randint(rng, 1, MAX_VARS)])
    f = random_poly(rng, names)
    n = _randint(rng, 0, MAX_LEVEL)
    for i, g in enumerate(hs_components(f, n)):
        for m in g.terms:
            if m.weighted_degree(lambda v: v.order1) != i:
                return False, None, {"n": n, "order": i, "monomial": m.render(),
                                     "input": print_document(AlgebraPresentation(names, [f]))}
    return True, None, None


def _suite_induced(rng, orng):
    A = random_algebra(rng, graded=True)
    n = _randint(rng, 0, MAX_LEVEL)
    for f in A.relations:
        d = A.homogeneous_degree(f)
        for i, g in enumerate(hs_components(f, n)):
            for m in g.terms:
                if m.weighted_degree(lambda v: A.grading[v.name]) != d:
                    return False, None, {"n": n, "order": i, "degree": d,
                                         "monomial": m.render(), "input": print_document(A)}
    return True, None, None


def _suite_jacobian(rng, orng):
    nvars = _randint(rng, 1, MAX_VARS)
    names = list(_VAR_NAMES[:nvars])
    f = random_poly(rng, names)
    n = _randint(rng, 0, MAX_LEVEL)
    comps = hs_components(f, n)
    gens = [JetVar(x, l, 0) for l, x in enumerate(names)]
    # jacobian[i][l * (n + 1) + j] is d(d_i f)/d x_l^(j)
    jacobian = [g.gradient([w for v in gens for w in _family(v, (n,))]) for g in comps]
    lhs, rhs = [], []
    for l, df in enumerate(f.gradient(gens)):
        # d(d_i f)/d x^(j) is entry (j, i) of the twisted matrix of df/dx
        twisted = upper_triangle(hs_components(df, n), Poly.zero(QQ))
        for i in range(n + 1):
            for j in range(n + 1):
                lhs.append(jacobian[i][l * (n + 1) + j])
                rhs.append(twisted[j][i])
    ok_sym = lhs == rhs
    ok_num = points_agree(orng, lhs, rhs)
    detail = None if ok_sym else {"n": n, "input": print_document(AlgebraPresentation(names, [f]))}
    return ok_sym, ok_num, detail


def _suite_bigrade(rng, orng):
    A = random_algebra(rng)
    n = _randint(rng, 0, MAX_BILEVEL)
    ok, detail = bigrade_commute_check(A, n, _randint(rng, 0, MAX_BILEVEL))
    return ok, None, detail


def _suite_cotruncation(rng, orng):
    A = random_algebra(rng)
    n = _randint(rng, 0, MAX_LEVEL - 1)
    ok, detail = cotruncation_subset_check(A, n, _randint(rng, n + 1, MAX_LEVEL))
    return ok, None, detail


def _suite_functoriality(rng, orng):
    phi = random_morphism(rng)
    g = random_poly(rng, phi.source.vars)
    n = _randint(rng, 0, 2)
    fn = induced_morphism(phi, n)
    lhs = [fn.apply(c) for c in hs_components(g, n)]
    rhs = hs_components(phi.apply(g), n)
    ok = lhs == rhs
    return ok, None, None if ok else {"n": n, "input": print_document(
        phi.source, morphism=phi) + "ideal g = %s\n" % g.render(base_plain=True)}


def _suite_twisted(rng, orng):
    nvars = _randint(rng, 1, MAX_VARS)
    names = list(_VAR_NAMES[:nvars])
    p = random_poly(rng, names, max_terms=3)
    q = random_poly(rng, names, max_terms=3)
    n = _randint(rng, 0, MAX_LEVEL)
    tp, tq = twisted_action_matrix(p, n), twisted_action_matrix(q, n)
    add_ok = twisted_action_matrix(p + q, n).entries == [
        [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(tp.entries, tq.entries)]
    mul_ok = twisted_action_matrix(p * q, n) == tp.matmul(tq)
    one_ok = twisted_action_matrix(Poly.constant(1, QQ), n) == TwistedMatrix(
        n, [[Poly.constant(1, QQ) if i == j else Poly.zero(QQ)
             for i in range(n + 1)] for j in range(n + 1)])
    ok = add_ok and mul_ok and one_ok
    return ok, None, None if ok else {"n": n, "input": print_document(
        AlgebraPresentation(names, [p, q]))}


def _suite_sym(rng, orng):
    ok, detail = sym_theorem_check(random_module(rng), _randint(rng, 0, 3))
    return ok, None, detail


def _suite_cotangent(rng, orng):
    ok, detail = cotangent_theorem_check(random_algebra(rng), _randint(rng, 0, 3))
    return ok, None, detail


def _suite_base_change(rng, orng):
    phi = random_morphism(rng)
    M = random_module(rng, over=phi.source)
    ok, detail = base_change_check(phi, M, _randint(rng, 0, 2))
    return ok, None, detail


def _suite_zigzag(rng, orng):
    ok, detail = free_dual_zigzag_check(_randint(rng, 0, 6))
    return ok, None, detail


def _suite_p1(rng, orng):
    ok, detail = cocycle_check(_randint(rng, -2, 2), _randint(rng, 0, 3))
    return ok, None, detail


SUITES = {
    "leibniz": _suite_leibniz,
    "structural_grading": _suite_structural,
    "induced_grading": _suite_induced,
    "jacobian_identity": _suite_jacobian,
    "bigrade_commute": _suite_bigrade,
    "cotruncation": _suite_cotruncation,
    "functoriality": _suite_functoriality,
    "twisted_ring_hom": _suite_twisted,
    "sym_theorem": _suite_sym,
    "cotangent_theorem": _suite_cotangent,
    "base_change": _suite_base_change,
    "zigzag": _suite_zigzag,
    "p1_cocycle": _suite_p1,
}


def run_suite(seed=42, trials=100, suites=None):
    """Run the named suites (every one when None) in ``SUITES`` order and
    return the report that ``jetforge check --format json`` prints;
    deterministic for given arguments, but for the timings."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if isinstance(suites, str):
        raise TypeError("suites takes a collection of suite names, not a string: %r" % suites)
    names = SUITES if suites is None else tuple(suites)
    for s in names:
        if s not in SUITES:
            raise UnknownSuite("unknown suite: %r" % s)
    report = {"seed": seed, "trials": trials, "passed": True, "suites": {}}
    for name, suite in SUITES.items():
        if name not in names:
            continue
        rng = random.Random("%d:%s" % (seed, name))
        orng = random.Random("%d:%s:oracle" % (seed, name))
        r = report["suites"][name] = {"trials": trials, "failures": [], "oracle_trials": 0,
                                      "oracle_disagreements": 0, "seconds": 0.0, "passed": True}
        start = time.perf_counter()
        for trial in range(trials):
            ok, ok_num, detail = suite(rng, orng)
            if ok_num is not None:
                r["oracle_trials"] += 1
                r["oracle_disagreements"] += ok != ok_num
            if not ok:
                r["failures"].append({"trial": trial, **(detail or {})})
        r["seconds"] = round(time.perf_counter() - start, 3)
        r["passed"] = not r["failures"] and not r["oracle_disagreements"]
        report["passed"] = report["passed"] and r["passed"]
    return report


def report_text(report):
    """The text form of a ``run_suite`` report: one line per suite, then
    the overall verdict."""
    lines = []
    for name, r in report["suites"].items():
        extra = ""
        if r["oracle_trials"]:
            extra = ", oracle %d/%d agree" % (
                r["oracle_trials"] - r["oracle_disagreements"], r["oracle_trials"])
        lines.append("%-18s %s  (%d trials, %d failures%s, %.2fs)"
                     % (name, "PASS" if r["passed"] else "FAIL", r["trials"],
                        len(r["failures"]), extra, r["seconds"]))
    lines.append("overall: %s" % ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)
