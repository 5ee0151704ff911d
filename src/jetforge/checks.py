"""Seeded theorem checker: every in-scope identity on random instances.

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
``detail`` describes a failing instance, including a DSL serialization
for replay, and is None when the check holds.

``run_suite`` takes the seed, the trial count and the suites, and returns
its report as the plain dict that ``jetforge check --format json`` prints;
``report_text`` gives its text form.  Instance sizes are module constants,
not options: ``MAX_VARS`` variables, ``MAX_RELATIONS`` relations, degree
``MAX_DEGREE``, jet level ``MAX_LEVEL`` (``MAX_BILEVEL`` per bivariate
level) and integer coefficients in ``COEFF_LO..COEFF_HI``.
"""

import random
import time
from itertools import chain

from .dsl import print_document
from .errors import FieldMismatch, UnknownSuite
from .hsmodules import (ModulePresentation, TwistedMatrix, base_change_check,
                        cotangent_theorem_check, free_dual_zigzag_check,
                        sym_theorem_check, twisted_action_matrix, upper_triangle)
from .jets import (AlgebraMorphism, AlgebraPresentation, bigrade_commute_check,
                   cotruncation_subset_check, hs_components, induced_morphism)
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
    jacobian = [g.gradient([JetVar(v.name, v.index, j) for v in gens for j in range(n + 1)])
                for g in comps]
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
    m = _randint(rng, 0, MAX_BILEVEL)
    ok, report = bigrade_commute_check(A, n, m)
    return ok, None, None if ok else {"n": n, "m": m, "report": report,
                                      "input": print_document(A)}


def _suite_cotruncation(rng, orng):
    A = random_algebra(rng)
    n = _randint(rng, 0, MAX_LEVEL - 1)
    m = _randint(rng, n + 1, MAX_LEVEL)
    ok, witness = cotruncation_subset_check(A, n, m)
    return ok, None, None if ok else {"n": n, "m": m, "witness": witness,
                                      "input": print_document(A)}


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
    M = random_module(rng)
    n = _randint(rng, 0, 3)
    ok, report = sym_theorem_check(M, n)
    return ok, None, None if ok else {"n": n, "report": report,
                                      "input": print_document(M.over, module=M)}


def _suite_cotangent(rng, orng):
    A = random_algebra(rng)
    n = _randint(rng, 0, 3)
    ok, report = cotangent_theorem_check(A, n)
    return ok, None, None if ok else {"n": n, "report": report, "input": print_document(A)}


def _suite_base_change(rng, orng):
    phi = random_morphism(rng)
    M = random_module(rng, over=phi.source)
    n = _randint(rng, 0, 2)
    ok = base_change_check(phi, M, n)
    return ok, None, None if ok else {"n": n, "input": print_document(
        phi.source, module=M, morphism=phi)}


def _suite_zigzag(rng, orng):
    n = _randint(rng, 0, 6)
    ok = free_dual_zigzag_check(n)
    return ok, None, None if ok else {"n": n}


def _suite_p1(rng, orng):
    d = _randint(rng, -2, 2)
    n = _randint(rng, 0, 3)
    ok = cocycle_check(d, n)
    return ok, None, None if ok else {"d": d, "n": n}


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
