"""Theorem checks, and a seeded checker that runs them on random instances.

Each theorem check returns ``(ok, detail)``: ``ok`` is a bool and ``detail``
is None when the theorem holds; on a failure it is the JSON-able dict that
the check report gives, without the instance, which the caller holds.
``p1.cocycle_check`` keeps this contract in ``p1``, so that
``jetforge p1 --cocycle`` does not load this module.

``SUITES`` maps each suite name, in report order, to ``(draw, check)``:
``draw(rng)`` returns the check's arguments, drawn from a deterministic
stream derived from the seed and the suite name, and ``check`` names the
check in this module, looked up when the suite runs.  Suites without a
public check have a private one, with the same contract but for
``_leibniz_sides`` and ``_jacobian_sides``: these return the two families
of polynomials an identity equates, which ``run_suite`` compares exactly
and with the point oracle ``points_agree``; verdicts that differ count as
an oracle disagreement.  An equal pair of term dicts agrees at every
point, so the oracle draws and evaluates only when some pair's dicts
differ, and then from the trial's own stream, made from the seed, the
suite name and the trial number: a passing trial makes no stream and
draws nothing, and a failing trial's points do not depend on the trials
before it.  ``_twisted_check`` states the ring-map laws of the twisted
action p -> hs_components(p, n) on jet lists; as two twisted matrices
multiply to the one of the convolution of their jets, its product law is
the Leibniz identity on p and q.  Every draw goes through ``_randint``
and ``_choice``, which run the ``rng.getrandbits`` rejection loop of
CPython 3.10-3.13's ``Random.randint`` and ``choice``: the same values
from the same stream, without ``randrange``'s argument checks.  Drawn relations are over Q and
the declared names, and homogeneous by construction for a graded draw,
and drawn module rows and morphism images are over their algebras, so
the drawn records are built unchecked, with ``_built``.

``run_suite`` takes the seed, the trial count and the suites, and returns
its report as the plain dict that ``jetforge check --format json`` prints;
``report_text`` gives its text form.  A failure there is the check's
detail with its trial and, as ``input``, the replayable DSL document that
``_failure_input`` writes from the check's arguments.  Instance sizes are
module constants, not options: ``MAX_VARS`` variables, ``MAX_RELATIONS``
relations, degree ``MAX_DEGREE``, jet level ``MAX_LEVEL`` (``MAX_BILEVEL``
per bivariate level) and integer coefficients in ``COEFF_LO..COEFF_HI``.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from .dsl import InputDocument, print_document
from .errors import BadLevels, FieldMismatch, UnknownSuite
from .hsmodules import (ModulePresentation, _sym_relations, hs_module_presentation,
                        kaehler_presentation, map_entries, module_symbols, sym_presentation)
from .jets import (AlgebraMorphism, AlgebraPresentation, _check_levels, hs_components,
                   induced_morphism, jet_again, jet_presentation)
from .p1 import cocycle_check  # p1_cocycle's check, looked up by name
from .poly import JetVar, Monomial, Poly, _monomial, _poly, _value, convolve
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


def random_poly(rng, gens, max_terms=5):
    """Up to max_terms terms of degree at most MAX_DEGREE over the generators
    gens; each monomial is drawn as its variables, one at a time, and held as
    an exponent list in variable order, so its pairs need no sort."""
    last = len(gens) - 1
    terms = {}
    for _ in range(_randint(rng, 0, max_terms)):
        exps = [0] * len(gens)
        for _ in range(_randint(rng, 0, MAX_DEGREE)):
            exps[_randint(rng, 0, last)] += 1
        c = _randint(rng, COEFF_LO, COEFF_HI)
        if c == 0:
            continue
        key = _monomial(tuple([(v, e) for v, e in zip(gens, exps) if e]))
        terms[key] = terms.get(key, 0) + c
    return _poly(QQ, {m: c for m, c in terms.items() if c})


def random_homogeneous_poly(rng, A, target, max_terms=4):
    """Nonzero-by-construction homogeneous polynomial of degree target over A, graded."""
    gens = [(v, A.grading[v.name]) for v in A.generators]
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
    return _poly(QQ, {m: c for m, c in terms.items() if c})


def random_algebra(rng, graded=False, max_relations=MAX_RELATIONS):
    nvars = _randint(rng, 1, MAX_VARS)
    names = list(_VAR_NAMES[:nvars])
    nrel = _randint(rng, 0, max_relations)
    degrees = {x: _randint(rng, 1, 2) if k else 1 for k, x in enumerate(names)} if graded else None
    A = AlgebraPresentation._built(names, [], degrees, QQ)
    A.relations += [random_homogeneous_poly(rng, A, _randint(rng, 1, MAX_DEGREE)) if graded
                    else random_poly(rng, A.generators) for _ in range(nrel)]
    return A


def random_module(rng, over=None):
    A = over or random_algebra(rng, max_relations=1)
    rank = _randint(rng, 0, 2)
    nrel = _randint(rng, 0, MAX_RELATIONS) if rank else 0
    rows = [[random_poly(rng, A.generators, max_terms=3) for _ in range(rank)]
            for _ in range(nrel)]
    return ModulePresentation._built(A, rank, rows)


def random_morphism(rng):
    src = AlgebraPresentation._built(list(_VAR_NAMES[:_randint(rng, 1, 2)]), [], None, QQ)
    tgt = AlgebraPresentation._built(list(_TARGET_NAMES[:_randint(rng, 1, 2)]), [], None, QQ)
    images = {v: random_poly(rng, tgt.generators, max_terms=3) for v in src.generators}
    return AlgebraMorphism._built(src, tgt, images)


def _draw_point(rng, nslots):
    return [(_randint(rng, -9, 9), _randint(rng, 1, 5)) for _ in range(nslots)]


def points_agree(rng, lhs, rhs):
    """Numeric verdict: the polynomial families lhs and rhs (sequences of
    Polys over Q, of one length) agree termwise at ORACLE_POINTS random
    rational points.

    A pair whose two term dicts are equal (dict equality, not
    ``Poly.__eq__``) agrees at every point, so it is settled without
    evaluation, and when every pair is, nothing is drawn.  Otherwise the
    points are drawn from rng, a ``random.Random`` or the seed of one made
    only then, over the variables of the pairs that differ: each
    coordinate is a numerator in -9..9 and a denominator in 1..5, point by
    point and variable by variable in sort order.  Those pairs are
    evaluated with ``poly._value`` at the Fraction points.  With no
    variables, a point is empty and draws nothing."""
    differ = []  # the term dicts of the pairs that differ
    for a, b in zip(lhs, rhs, strict=True):
        for p in (a, b):
            if p.field is not QQ:
                raise FieldMismatch("the point oracle evaluates over Q, not %r" % (p.field,))
        if a.terms != b.terms:
            differ.append((a.terms, b.terms))
    if not differ:
        return True
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    variables = sorted({v for pair in differ for terms in pair for m in terms for v, _ in m},
                       key=JetVar.sort_key)
    points = [{v: Fraction(*x) for v, x in zip(variables, _draw_point(rng, len(variables)))}
              for _ in range(ORACLE_POINTS)]
    return all(_value(a, x) == _value(b, x) for a, b in differ for x in points)


# ---------------------------------------------------------------------------
# theorem checks


def bigrade_commute_check(A, n, m):
    """Three-way generator-set comparison: jets-of-jets both ways (with the
    index-permutation renaming folded into variable construction) against
    the direct bivariate jet relations.  The nonzero generators are compared
    as multisets of polynomials, and rendered only for a failure report."""
    _check_levels((n, m))  # even with no relation to take jets of
    side_a = []  # level m first, then level n outside
    side_b = []  # level n first, then level m outside
    side_c = []
    for f in A.relations:
        for g in hs_components(f, m):
            side_a.extend(jet_again(g, n, outer_to="order1"))
        for g in hs_components(f, n):
            side_b.extend(jet_again(g, m, outer_to="order2"))
        side_c.extend(hs_components(f, n, m))
    sides = [Counter(p for p in side if p.terms) for side in (side_a, side_b, side_c)]
    if sides[0] == sides[1] == sides[2]:
        return True, None
    sets = {name: sorted(p.render() for p in side.elements())
            for name, side in zip(("n_after_m", "m_after_n", "bivariate"), sides)}
    return False, {"n": n, "m": m, "count": sides[2].total(), "sets": sets}


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
                               "level_n": g.render(), "level_m": high[i].render()}
    return True, None


def _cotangent_sides(A, n):
    """Omega of the level-n jet algebra of A, and HS^n(Omega_A)."""
    return (kaehler_presentation(jet_presentation(A, n)),
            hs_module_presentation(kaehler_presentation(A), n))


def cotangent_theorem_check(A, n):
    """Omega of the level-n jet algebra against the level-n Hasse-Schmidt
    module of Omega_A, entrywise; a mismatch is labelled by its row (k, i)
    and column (l, j)."""
    jet_jac, block = _cotangent_sides(A, n)
    if len(jet_jac.relation_matrix) != len(block.relation_matrix):
        return False, {"n": n, "reason": "row count mismatch"}
    mismatches = []
    for r, (row1, row2) in enumerate(zip(jet_jac.relation_matrix, block.relation_matrix)):
        for c, (p1, p2) in enumerate(zip(row1, row2)):
            if p1 != p2:
                mismatches.append({"row": divmod(r, n + 1), "col": divmod(c, n + 1),
                                   "jet_jacobian": p1.render(), "block": p2.render()})
    if not mismatches:
        return True, None
    return False, {"n": n, "rows": len(block.relation_matrix), "cols": block.rank,
                   "mismatches": mismatches}


def sym_theorem_check(M, n):
    """HS^n(Sym M) = Sym(HS^n M): the nonzero level-n jet relations of
    Sym(M) against the relations of Sym(HS^n M), which ``_sym_relations``
    builds as it builds those of Sym(M), on the jets of the module symbols,
    compared as multisets of polynomials."""
    symbols = module_symbols(M.over, M.rank, n)  # raises first on a module over jets
    hsm = hs_module_presentation(M, n)
    want = _sym_relations(hsm, symbols)
    base = hsm.over.relations
    # a relation of Sym M equal to a base relation reuses that one's jets
    known = {f: base[k * (n + 1):(k + 1) * (n + 1)] for k, f in enumerate(M.over.relations)}
    got = [g for f in sym_presentation(M).relations
           for g in (known[f] if f in known else hs_components(f, n))]
    want, got = (Counter(g for g in side if g.terms) for side in (want, got))
    if got == want:
        return True, None
    return False, {"n": n, "missing": sorted(g.render() for g in (want - got).elements()),
                   "extra": sorted(g.render() for g in (got - want).elements())}


def base_change_check(phi, M, n):
    """f_n applied entrywise to the Hasse-Schmidt presentation of M equals the
    Hasse-Schmidt presentation of the pushed-forward module; f_n maps each
    distinct entry object once, as ``upper_triangle`` repeats them."""
    fn = induced_morphism(phi, n)
    left = hs_module_presentation(M, n)
    pushed = ModulePresentation(phi.target, M.rank,
                                [[phi.apply(p) for p in row] for row in M.relation_matrix])
    right = hs_module_presentation(pushed, n)
    ok = map_entries(fn.apply, left.relation_matrix) == right.relation_matrix
    return ok, None if ok else {"n": n}


def free_dual_zigzag_check(n):
    """Coevaluation 1 -> sum t^[i] (x) t^i against the Kronecker evaluation
    t^i (x) t^[j] -> delta_ij: both triangle composites must be the identity
    on the free rank-(n+1) pair, over Q."""
    _check_levels((n,))
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


def _leibniz_sides(A, n):
    """Both sides of the Leibniz rule sum_k d_k(f) d_(i-k)(g) = d_i(fg),
    i = 0..n, for the relations f and g of A."""
    f, g = A.relations
    cf, cg, cfg = hs_components(f, n), hs_components(g, n), hs_components(f * g, n)
    return convolve(cf, cg), cfg


def _structural_check(A, n):
    """Every term of d_i(f), f the relation of A, has total jet order i."""
    f, = A.relations
    for i, g in enumerate(hs_components(f, n)):
        for m in g.terms:
            if m.weighted_degree(lambda v: v.order1) != i:
                return False, {"n": n, "order": i, "monomial": m.render()}
    return True, None


def _induced_check(A, n):
    """The jets of a homogeneous relation of the graded algebra A keep its
    degree under the induced grading."""
    for f in A.relations:
        d = A.homogeneous_degree(f)
        for i, g in enumerate(hs_components(f, n)):
            for m in g.terms:
                if m.weighted_degree(lambda v: A.grading[v.name]) != d:
                    return False, {"n": n, "order": i, "degree": d, "monomial": m.render()}
    return True, None


def _jacobian_sides(A, n):
    """Both sides of d(d_i f)/d x_l^(j) = d_(i-j)(df/dx_l), entry by entry,
    for the relation f of A: the two relation matrices of
    ``_cotangent_sides``, which ``cotangent_theorem_check`` compares,
    flattened row by row."""
    return tuple([p for row in M.relation_matrix for p in row] for M in _cotangent_sides(A, n))


def _functoriality_check(phi, g, n):
    """The induced morphism commutes with the jets: f_n(d_i g) = d_i(phi(g))."""
    fn = induced_morphism(phi, n)
    ok = [fn.apply(c) for c in hs_components(g, n)] == hs_components(phi.apply(g), n)
    return ok, None if ok else {"n": n}


def _twisted_check(A, n):
    """The twisted action p -> hs_components(p, n) respects sums, products
    and 1, on the relations p and q of A."""
    p, q = A.relations
    tp, tq = hs_components(p, n), hs_components(q, n)
    add_ok = hs_components(p + q, n) == [a + b for a, b in zip(tp, tq)]
    mul_ok = hs_components(p * q, n) == convolve(tp, tq)
    one = Poly.constant(1, p.field)
    one_ok = hs_components(one, n) == [one] + [Poly.zero(p.field)] * n
    ok = add_ok and mul_ok and one_ok
    return ok, None if ok else {"n": n}


def _draw_polys(count, max_terms=5):
    """The draw of ``count`` polynomials over the first 1..MAX_VARS
    variables, held as the relations of a free presentation, and a level."""
    def draw(rng):
        A = AlgebraPresentation._built(list(_VAR_NAMES[:_randint(rng, 1, MAX_VARS)]), [], None, QQ)
        A.relations += [random_poly(rng, A.generators, max_terms) for _ in range(count)]
        return A, _randint(rng, 0, MAX_LEVEL)
    return draw


def _draw_cotruncation(rng):
    A = random_algebra(rng)
    n = _randint(rng, 0, MAX_LEVEL - 1)
    return A, n, _randint(rng, n + 1, MAX_LEVEL)


def _draw_functoriality(rng):
    phi = random_morphism(rng)
    return phi, random_poly(rng, phi.source.generators), _randint(rng, 0, 2)


def _draw_base_change(rng):
    phi = random_morphism(rng)
    return phi, random_module(rng, over=phi.source), _randint(rng, 0, 2)


SUITES = {
    "leibniz": (_draw_polys(2), "_leibniz_sides"),
    "structural_grading": (_draw_polys(1), "_structural_check"),
    "induced_grading": (lambda rng: (random_algebra(rng, graded=True),
                                     _randint(rng, 0, MAX_LEVEL)), "_induced_check"),
    "jacobian_identity": (_draw_polys(1), "_jacobian_sides"),
    "bigrade_commute": (lambda rng: (random_algebra(rng), _randint(rng, 0, MAX_BILEVEL),
                                     _randint(rng, 0, MAX_BILEVEL)), "bigrade_commute_check"),
    "cotruncation": (_draw_cotruncation, "cotruncation_subset_check"),
    "functoriality": (_draw_functoriality, "_functoriality_check"),
    "twisted_ring_hom": (_draw_polys(2, max_terms=3), "_twisted_check"),
    "sym_theorem": (lambda rng: (random_module(rng), _randint(rng, 0, 3)), "sym_theorem_check"),
    "cotangent_theorem": (lambda rng: (random_algebra(rng), _randint(rng, 0, 3)),
                          "cotangent_theorem_check"),
    "base_change": (_draw_base_change, "base_change_check"),
    "zigzag": (lambda rng: (_randint(rng, 0, 6),), "free_dual_zigzag_check"),
    "p1_cocycle": (lambda rng: (_randint(rng, -2, 2), _randint(rng, 0, 3)), "cocycle_check"),
}


def _failure_input(args):
    """The ``input`` of a failing trial: the instance in a check's
    arguments as one replayable DSL document, or {} when they hold none.
    Its algebra is the morphism's source, else the module's base; a
    polynomial is written as the relation ``g`` over that algebra."""
    held = {type(a): a for a in args}
    A, M, phi, g = (held.get(t) for t in (AlgebraPresentation, ModulePresentation,
                                          AlgebraMorphism, Poly))
    if phi is not None:
        A = phi.source
    elif M is not None:
        A = M.over
    if A is None:
        return {}
    names = None
    if g is not None:
        A, names = AlgebraPresentation(A.vars, [g], None, A.field), ["g"]
    return {"input": print_document(InputDocument(A, names, M, phi))}


def run_suite(seed=42, trials=100, suites=None):
    """Run the named suites (every one when None) in ``SUITES`` order and
    return the report that ``jetforge check --format json`` prints;
    deterministic for given arguments, but for the timings."""
    if type(seed) is not int or type(trials) is not int:
        raise TypeError("seed and trials are ints, not %r and %r" % (seed, trials))
    if trials < 1:
        raise ValueError("trials must be positive")
    if isinstance(suites, str):
        raise TypeError("suites takes a collection of suite names, not a string: %r" % suites)
    names = SUITES if suites is None else tuple(suites)
    for s in names:
        if s not in SUITES:
            raise UnknownSuite("unknown suite: %r" % s)
    report = {"seed": seed, "trials": trials, "passed": True, "suites": {}}
    for name, (draw, check_name) in SUITES.items():
        if name not in names:
            continue
        check = globals()[check_name]  # looked up as the suite runs, so a wrapped check runs
        rng = random.Random("%d:%s" % (seed, name))
        r = report["suites"][name] = {"trials": trials, "failures": [], "oracle_trials": 0,
                                      "oracle_disagreements": 0, "seconds": 0.0, "passed": True}
        start = time.perf_counter()
        for trial in range(trials):
            args = draw(rng)
            ok, detail = check(*args)
            if isinstance(ok, list):  # two families: compared exactly and at random points
                lhs, rhs = ok, detail
                ok, detail = lhs == rhs, {"n": args[-1]}  # their level is the last argument
                r["oracle_trials"] += 1
                r["oracle_disagreements"] += ok != points_agree(
                    "%d:%s:oracle:%d" % (seed, name, trial), lhs, rhs)
            if not ok:
                r["failures"].append({"trial": trial, **detail, **_failure_input(args)})
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
