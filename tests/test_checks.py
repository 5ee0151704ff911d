import json
import random
import runpy
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from jetforge import checks, hsmodules, jets, p1
from jetforge.checks import (MAX_VARS, ORACLE_POINTS, SUITES, base_change_check,
                             bigrade_commute_check, cotangent_theorem_check,
                             cotruncation_subset_check, free_dual_zigzag_check, points_agree,
                             random_algebra, random_module, random_morphism, random_poly,
                             report_text, run_suite, sym_theorem_check)
from jetforge.cli import main
from jetforge.dsl import InputDocument, parse_document, print_document
from jetforge.errors import BadLevels, FieldMismatch, UnknownSuite
from jetforge.hsmodules import ModulePresentation, hs_module_presentation, kaehler_presentation
from jetforge.jets import (AlgebraMorphism, AlgebraPresentation, hs_components, induced_morphism,
                           jet_presentation)
from jetforge.p1 import cocycle_check, p1_transition
from jetforge.poly import JetVar, Poly
from jetforge.scalars import QQ, PrimeField
from oracles import naive_points_agree, reference_random_poly


def test_all_suites_pass_smoke():
    report = run_suite(seed=7, trials=10)
    assert report["passed"]
    assert list(report["suites"]) == list(SUITES)


def test_determinism():
    r1 = run_suite(seed=123, trials=5)
    r2 = run_suite(seed=123, trials=5)
    for s in SUITES:
        r1["suites"][s].pop("seconds")
        r2["suites"][s].pop("seconds")
    assert r1 == r2


def test_single_trial_reproducible():
    r = run_suite(seed=99, trials=1, suites=("leibniz",))
    assert r["suites"]["leibniz"]["trials"] == 1
    assert r["suites"]["leibniz"]["oracle_trials"] == 1


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suite(suites=("nosuch",))


def test_config_bounds_enforced():
    with pytest.raises(ValueError):
        run_suite(trials=0)


def test_suites_as_one_string_is_a_type_error():
    """A string is a collection of letters, not of suite names."""
    with pytest.raises(TypeError, match="collection of suite names, not a string"):
        run_suite(trials=1, suites="leibniz")


def test_suites_run_in_suites_order():
    """Whatever order the suites are named in, they run and are reported in
    ``SUITES`` order, and a suite named twice runs once."""
    report = run_suite(seed=1, trials=1, suites=["p1_cocycle", "zigzag", "leibniz", "zigzag"])
    assert list(report["suites"]) == ["leibniz", "zigzag", "p1_cocycle"]
    assert report["seed"] == 1 and report["trials"] == 1


def test_degenerate_instances_occur():
    rng = random.Random(0)
    saw_zero_poly = saw_free_algebra = saw_free_module = False
    for _ in range(200):
        gens = AlgebraPresentation(["x", "y", "z"][:rng.randint(1, MAX_VARS)], []).generators
        if random_poly(rng, gens).is_zero():
            saw_zero_poly = True
        if not random_algebra(rng).relations:
            saw_free_algebra = True
        m = random_module(rng)
        if m.rank and not m.relation_matrix:
            saw_free_module = True
    assert saw_zero_poly and saw_free_algebra and saw_free_module


def test_counterexamples_replay_through_dsl():
    """Instance serializations parse back through the DSL to equal
    variables, relations, grading, module rows and morphism images, and
    print back to the same text (the DSL fuzzer's round trip)."""
    rng = random.Random(4)
    for _ in range(20):
        A = random_algebra(rng)
        phi = random_morphism(rng)
        instances = [(A, random_module(rng, over=A), None),
                     (random_algebra(rng, graded=True), None, None),
                     (phi.source, random_module(rng, over=phi.source), phi)]
        for algebra, module, morphism in instances:
            text = print_document(InputDocument(algebra, None, module, morphism))
            doc = parse_document(text)
            assert print_document(doc) == text
            assert doc.algebra.vars == algebra.vars
            assert doc.algebra.relations == algebra.relations
            assert doc.algebra.grading == algebra.grading
            if module is None:
                assert doc.module is None
            else:
                assert doc.module.rank == module.rank
                assert doc.module.relation_matrix == module.relation_matrix
            if morphism:
                assert doc.morphism.target.vars == morphism.target.vars
                assert doc.morphism.images == morphism.images
            else:
                assert doc.morphism is None


def test_report_json_shape():
    d = run_suite(seed=2, trials=2, suites=("zigzag", "p1_cocycle"))
    assert list(d) == ["seed", "trials", "passed", "suites"]
    assert list(d["suites"]["zigzag"]) == ["trials", "failures", "oracle_trials",
                                            "oracle_disagreements", "seconds", "passed"]
    assert d["passed"] is True
    assert d["suites"]["zigzag"]["trials"] == 2
    assert "leibniz" not in d["suites"]


def test_failing_suite_is_reported(monkeypatch, capsys):
    """A suite whose two families differ by a polynomial that vanishes at
    every point the oracle can draw: each trial fails symbolically, and the
    oracle disagrees with that verdict."""
    x = Poly.var(JetVar("x", 0, 0))
    hidden = Poly.constant(1)
    for value in {Fraction(a, b) for a in range(-9, 10) for b in range(1, 6)}:
        hidden = hidden * (x - Poly.constant(value))
    monkeypatch.setattr(checks, "_broken_sides", lambda A, n: ([x], [x + hidden]), raising=False)
    monkeypatch.setitem(checks.SUITES, "broken",
                        (lambda rng: (AlgebraPresentation(["x"], []), 0), "_broken_sides"))
    report = run_suite(seed=3, trials=2, suites=("broken",))
    result = report["suites"]["broken"]
    assert result["failures"] == [{"trial": 0, "n": 0, "input": "ring Q[x]\n"},
                                  {"trial": 1, "n": 0, "input": "ring Q[x]\n"}]
    assert result["oracle_trials"] == 2
    assert result["oracle_disagreements"] == 2
    assert not result["passed"] and not report["passed"]
    assert report_text(report).startswith("broken             FAIL  (2 trials, 2 failures, "
                                          "oracle 0/2 agree, ")
    assert main(["check", "--suite", "broken", "--trials", "1"]) == 1
    assert "broken             FAIL" in capsys.readouterr().out


def test_failure_without_an_instance_has_no_input(monkeypatch):
    """A p1_cocycle trial draws only the integers d and n, so its failure
    report holds no replayable document: under power_jets of |k| each
    trial with d != 0 fails with the keys trial, d and n alone."""
    power_jets = p1.power_jets
    monkeypatch.setattr(p1, "power_jets",
                        lambda k, chart, n, field=QQ: power_jets(abs(k), chart, n, field))
    failures = run_suite(seed=42, trials=20, suites=["p1_cocycle"])["suites"]["p1_cocycle"][
        "failures"]
    assert len(failures) == 17
    assert all(f.keys() == {"trial", "d", "n"} and f["d"] for f in failures)


def _points_drawn(start, nvars, end):
    """How many oracle points were drawn from an rng between two states."""
    probe = random.Random()
    probe.setstate(start)
    for k in range(ORACLE_POINTS + 1):
        if probe.getstate() == end:
            return k
        for _ in range(nvars):
            probe.randint(-9, 9)
            probe.randint(1, 5)
    raise AssertionError("the oracle drew a partial point")


def test_points_agree_matches_fraction_reference(monkeypatch):
    rng = random.Random(2024)
    x, y, z = (Poly.var(JetVar(name, i, 0)) for i, name in enumerate("xyz"))

    def poly():
        p = Poly.zero(QQ)
        for _ in range(rng.randint(0, 4)):
            t = Poly.constant(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3)):
                t = t * rng.choice((x, y, z))
            p = p + t
        return p

    def integer_roots(t):  # vanishes exactly when t is an integer in -2..9
        out = Poly.constant(1)
        for k in range(-2, 10):
            out = out * (t - k)
        return out

    f, g, h = poly(), poly(), poly()
    late = integer_roots(x) * integer_roots(y)  # nonzero at about 40% of the points
    zero, half = Poly.zero(QQ), Poly.constant(Fraction(3, 2))
    agreeing = [([f * g, f + g, f - g, h], [g * f, g + f, -(g - f), h + zero], True)
                for f, g, h in ((poly(), poly(), poly()) for _ in range(6))]
    cases = agreeing + [
        ([f, g, h, f * g], [f, g, h, f * g + late], False),  # a later pair and point
        ([zero, half, zero], [zero, half, x - x], True),     # zero and constant polynomials
        ([half], [Poly.constant(2)], False),                 # no variables, so no draws
        ([f, f, g, f], [f, f + zero, g, f], True),           # one object repeated
        ([f, g, f], [f, g, f + late * z], False),
        # x at top exponents 1, 3 and 6 in one family, and an empty polynomial
        ([x, x ** 3 - y, zero, x ** 6], [x, -y + x ** 3, x ** 4 - x ** 4, x ** 3 * x ** 3], True),
        ([x ** 3, zero, y], [x * x * x, x ** 6 * late, y], False),
    ]
    for seed in range(8):
        for lhs, rhs, agrees in cases:
            ours, ref = random.Random(seed), random.Random(seed)
            start = ours.getstate()
            with monkeypatch.context() as m:
                m.setattr(Poly, "eval", None)  # the oracle calls the evaluator, not Poly.eval
                got = points_agree(ours, lhs, rhs)
            assert got == naive_points_agree(ref, lhs, rhs) == agrees
            assert ours.getstate() == ref.getstate()
            assert points_agree(seed, lhs, rhs) == got  # a seed draws what its Random draws
            differ = [(a, b) for a, b in zip(lhs, rhs) if a.terms != b.terms]
            nvars = len({v for pair in differ for p in pair for v in p.vars()})
            # every point is drawn when some pair differs, over those pairs' variables
            assert _points_drawn(start, nvars, ours.getstate()) == (ORACLE_POINTS if nvars else 0)


def _record_value_calls(monkeypatch):
    """Wrap checks._value; each call appends the term dict and the point it got."""
    calls = []
    value = checks._value

    def recorder(terms, point):
        calls.append((terms, point))
        return value(terms, point)

    monkeypatch.setattr(checks, "_value", recorder)
    return calls


def _oracle_families():
    """Families with distinct objects on the two sides: ``equal`` pairs have
    equal term dicts, ``changed`` is one pair whose dicts differ."""
    x, y = (Poly.var(JetVar(name, i, 0)) for i, name in enumerate("xy"))
    f, g = x ** 2 - 3 * y + 1, Fraction(1, 2) * x * y - y ** 3
    equal = ([f * g, f + g, x - y], [g * f, g + f, -(y - x)])
    changed = (f * g, f * g + x * (x - 1) * (x + 2))
    return equal, changed


def _record_random_seeds(monkeypatch):
    """Wrap random.Random.seed, which every new Random calls; each call
    appends the seed it got."""
    seeds = []
    seed = random.Random.seed

    def recorder(self, a=None, version=2):
        seeds.append(a)
        return seed(self, a, version)

    monkeypatch.setattr(random.Random, "seed", recorder)
    return seeds


def test_points_agree_evaluates_no_pair_with_equal_term_dicts(monkeypatch):
    """With every pair dict-equal nothing is evaluated and nothing is
    drawn, as the reference draws nothing, and a seed is not made into a
    Random; a passing leibniz and jacobian_identity run evaluates nothing
    either."""
    calls = _record_value_calls(monkeypatch)
    (lhs, rhs), _ = _oracle_families()
    assert all(a is not b for a, b in zip(lhs, rhs))
    ours, ref = random.Random(5), random.Random(5)
    start = ours.getstate()
    seeds = _record_random_seeds(monkeypatch)
    assert points_agree(ours, lhs, rhs) is True
    assert naive_points_agree(ref, lhs, rhs) is True
    assert ours.getstate() == ref.getstate() == start
    assert points_agree("5:leibniz:oracle:0", lhs, rhs) is True
    assert seeds == []
    report = run_suite(seed=42, trials=5, suites=("leibniz", "jacobian_identity"))
    assert report["passed"]
    assert all(r["oracle_trials"] == 5 for r in report["suites"].values())
    assert calls == []


def test_passing_run_makes_no_oracle_stream_and_draws_no_point(monkeypatch):
    """A passing run makes one Random per suite, for its draws, and none
    for the oracle, which draws no point."""
    seeds = _record_random_seeds(monkeypatch)
    draws = []
    draw_point = checks._draw_point
    monkeypatch.setattr(checks, "_draw_point",
                        lambda rng, nslots: draws.append(nslots) or draw_point(rng, nslots))
    report = run_suite(seed=42, trials=100)
    assert report["passed"]
    assert sum(r["oracle_trials"] for r in report["suites"].values()) == 200
    assert seeds == ["42:%s" % name for name in SUITES]
    assert draws == []


def test_failing_trial_points_depend_only_on_seed_suite_and_trial(monkeypatch):
    """A failing trial draws its points from the stream of (seed, suite,
    trial): they are the same whether the run stops after that trial or
    goes on, and whatever the trials before it drew, and a trial that
    passes draws none."""
    x, y = (Poly.var(JetVar(name, i, 0)) for i, name in enumerate("xy"))

    def sides(A, k):  # the families differ on odd k, over x and y
        return [x ** k], [x ** k + (k % 2) * x * y]

    monkeypatch.setattr(checks, "_parity_sides", sides, raising=False)
    monkeypatch.setitem(checks.SUITES, "parity", (
        lambda rng: (AlgebraPresentation(["x", "y"], []), checks._randint(rng, 0, 3)),
        "_parity_sides"))
    draws = []
    draw_point = checks._draw_point
    monkeypatch.setattr(checks, "_draw_point",
                        lambda rng, nslots: draws.append(draw_point(rng, nslots)) or draws[-1])

    def points_by_trial(trials):
        draws.clear()
        report = run_suite(seed=11, trials=trials, suites=("parity",))
        failed = [f["trial"] for f in report["suites"]["parity"]["failures"]]
        assert len(draws) == ORACLE_POINTS * len(failed)
        return {t: draws[k * ORACLE_POINTS:(k + 1) * ORACLE_POINTS] for k, t in enumerate(failed)}

    every = points_by_trial(12)
    # a failure after a pass, with four more trials in the run of 12
    t = min(s for s in every if s + 4 < 12 and any(r not in every for r in range(s)))
    assert points_by_trial(t + 1) == {s: p for s, p in every.items() if s <= t}
    assert points_by_trial(t + 5) == {s: p for s, p in every.items() if s <= t + 4}
    for s, points in every.items():
        rng = random.Random("11:parity:oracle:%d" % s)
        assert points == [draw_point(rng, 2) for _ in range(ORACLE_POINTS)]


def test_points_agree_evaluates_only_the_pairs_that_differ(monkeypatch):
    """One differing pair among equal ones: only that pair's two term
    dicts reach the evaluator, both of them, at Fraction points."""
    calls = _record_value_calls(monkeypatch)
    (lhs, rhs), (a, b) = _oracle_families()
    # b's pair first, then dict-equal pairs and a repeat of b's pair
    lhs, rhs = [a] + lhs + [a], [b] + rhs + [b]
    ours, ref = random.Random(6), random.Random(6)
    assert points_agree(ours, lhs, rhs) is False
    assert naive_points_agree(ref, lhs, rhs) is False
    assert ours.getstate() == ref.getstate()
    assert {id(terms) for terms, _ in calls} == {id(a.terms), id(b.terms)}
    assert all(type(x) is Fraction for _, point in calls for x in point.values())


@pytest.mark.parametrize("verdict", [True, False])
def test_points_agree_keys_on_dict_equality_not_poly_eq(monkeypatch, verdict):
    """Whatever Poly.__eq__ answers, the oracle's verdict is the reference's:
    the shortcut compares term dicts, not Polys."""
    (lhs, rhs), (a, b) = _oracle_families()
    cases = [(lhs, rhs), (lhs + [a], rhs + [b]), ([b] + lhs, [a] + rhs)]
    monkeypatch.setattr(Poly, "__eq__", lambda self, other: verdict)
    for seed, (left, right) in enumerate(cases):
        got = points_agree(random.Random(seed), left, right)
        assert got == naive_points_agree(random.Random(seed), left, right)
        assert got == (left is lhs)


def test_points_agree_rejects_families_of_different_lengths():
    x = Poly.var(JetVar("x", 0, 0))
    rng = random.Random(0)
    start = rng.getstate()
    for lhs, rhs in (([x, x], [x]), ([x], [x, x + 1]), ([], [x])):
        with pytest.raises(ValueError):
            points_agree(rng, lhs, rhs)
    assert rng.getstate() == start  # no point is drawn for a mismatched pair of families


def test_points_agree_rejects_prime_fields():
    f7 = PrimeField(7)
    x7 = Poly.var(JetVar("x", 0, 0), f7)
    with pytest.raises(FieldMismatch):
        points_agree(random.Random(0), [x7 + 1], [1 + x7])
    with pytest.raises(FieldMismatch):
        points_agree(random.Random(0), [Poly.var(JetVar("x", 0, 0))], [Poly.zero(f7)])


# Two engine mutants, each a wrapper around jets._substitute, and the check
# reports they produce; tests/golden/check_mutants.json holds those reports,
# so the failing suites' instance streams and failure reports (DSL documents
# and rendered polynomials) stay pinned.
MUTANT_GOLDEN = Path(__file__).parent / "golden" / "check_mutants.json"


def _top_grade_zero(substitute):
    def mutant(f, families, bounds):
        return substitute(f, families, bounds)[:-1] + [Poly.zero(f.field)]
    return mutant


def _grade_times_two_to_the_grade(substitute):
    def mutant(f, families, bounds):
        box = product(*(range(b + 1) for b in bounds))
        return [p * 2 ** sum(g) for p, g in zip(substitute(f, families, bounds), box)]
    return mutant


MUTANTS = {"top_grade_zero": _top_grade_zero,
           "grade_times_two_to_the_grade": _grade_times_two_to_the_grade}


def mutant_reports(seeds=(7, 42), trials=6):
    """{mutant: {seed: run_suite JSON with seconds masked}} under each mutant."""
    out = {}
    for name, make in MUTANTS.items():
        with pytest.MonkeyPatch.context() as m:
            m.setattr(jets, "_substitute", make(jets._substitute))
            out[name] = {}
            for seed in seeds:
                report = run_suite(seed=seed, trials=trials)
                for suite in report["suites"].values():
                    suite["seconds"] = None
                out[name][str(seed)] = report
    return json.loads(json.dumps(out))


def test_mutant_failure_reports_match_golden():
    reports = mutant_reports()
    assert reports == json.loads(MUTANT_GOLDEN.read_text())
    failing = {s for by_seed in reports.values() for r in by_seed.values()
               for s, res in r["suites"].items() if not res["passed"]}
    assert failing == {"leibniz", "jacobian_identity", "bigrade_commute", "cotruncation",
                       "functoriality", "twisted_ring_hom", "sym_theorem",
                       "cotangent_theorem", "base_change"}


def test_mutant_failure_inputs_are_canonical_documents():
    """Every failure document a suite reports prints back byte for byte
    through the parser and the canonical printer."""
    inputs = [failure["input"] for by_seed in mutant_reports().values()
              for report in by_seed.values() for suite in report["suites"].values()
              for failure in suite["failures"] if "input" in failure]
    assert len(inputs) == 63
    for text in inputs:
        assert print_document(parse_document(text)) == text


def _replay_args(suite, failure):
    """A failing trial's check arguments, rebuilt from its report alone: the
    instance parsed from its input, then its levels."""
    levels = [failure[k] for k in ("d", "n", "m") if k in failure]
    if "input" not in failure:
        return levels
    doc = parse_document(failure["input"])
    if suite == "functoriality":
        instance = [doc.morphism, doc.algebra.relations[0]]
    elif doc.module is not None:
        instance = [doc.morphism, doc.module] if doc.morphism else [doc.module]
    else:
        instance = [doc.algebra]
    return instance + levels


def test_every_mutant_failure_replays_from_its_report():
    """Every failure a mutant engine causes, run again from its report under
    the same mutant, fails with the detail the report gives, and the
    serializer writes its input back from the rebuilt arguments."""
    replayed = 0
    for mutant, by_seed in mutant_reports().items():
        with pytest.MonkeyPatch.context() as m:
            m.setattr(jets, "_substitute", MUTANTS[mutant](jets._substitute))
            for report in by_seed.values():
                for suite, result in report["suites"].items():
                    check = getattr(checks, SUITES[suite][1])
                    for failure in result["failures"]:
                        args = _replay_args(suite, failure)
                        ok, detail = check(*args)
                        if isinstance(ok, list):  # the two families of an identity
                            ok, detail = ok == detail, {"n": args[-1]}
                        assert ok is False
                        want = {k: v for k, v in failure.items() if k not in ("trial", "input")}
                        assert json.loads(json.dumps(detail)) == want
                        assert checks._failure_input(args) == {"input": failure["input"]}
                        replayed += 1
    assert replayed == 63


def _grade_times_minus_one_to_the_grade(substitute):
    def mutant(f, families, bounds):
        box = product(*(range(b + 1) for b in bounds))
        return [p * (-1) ** sum(g) for p, g in zip(substitute(f, families, bounds), box)]
    return mutant


def _transposed(upper_triangle):
    def mutant(comps, zero):
        return [list(column) for column in zip(*upper_triangle(comps, zero))]
    return mutant


# (module, attribute, wrapper): four mutants of the jet engine and of the
# twisted layout, and the trials of seed 42 on which each suite fails under
# every one of them
SIDE_MUTANTS = {
    "grade_times_two_to_the_grade": (jets, "_substitute", _grade_times_two_to_the_grade),
    "grade_times_minus_one_to_the_grade": (jets, "_substitute",
                                           _grade_times_minus_one_to_the_grade),
    "top_grade_zero": (jets, "_substitute", _top_grade_zero),
    "upper_triangle_transposed": (hsmodules, "upper_triangle", _transposed),
}
FAILING_TRIALS = {"sym_theorem": [2, 7, 10, 19],
                  "cotangent_theorem": [0, 2, 4, 9, 10, 12, 13, 16]}


@pytest.mark.parametrize("mutant", SIDE_MUTANTS)
def test_sym_and_cotangent_verdicts_under_mutants(mutant):
    """Each mutant makes the Sym and cotangent checks fail on exactly the
    same trials: the verdicts, whatever shape their details take."""
    module, attr, wrap = SIDE_MUTANTS[mutant]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, attr, wrap(getattr(module, attr)))
        report = run_suite(seed=42, trials=20, suites=list(FAILING_TRIALS))
    assert {name: [f["trial"] for f in r["failures"]]
            for name, r in report["suites"].items()} == FAILING_TRIALS


def test_cotangent_row_count_mismatch_is_reported(monkeypatch):
    """Sides with different numbers of rows fail before any entry is
    compared, with the level and the reason only."""
    sides = checks._cotangent_sides

    def drop_a_row(A, n):
        jet_jac, block = sides(A, n)
        return ModulePresentation(jet_jac.over, jet_jac.rank, jet_jac.relation_matrix[1:]), block

    monkeypatch.setattr(checks, "_cotangent_sides", drop_a_row)
    assert cotangent_theorem_check(CUSP, 1) == (False, {"n": 1, "reason": "row count mismatch"})


def test_induced_grading_failure_is_reported(monkeypatch):
    """Under an engine whose x^(1) takes the name of the next base variable,
    y, of degree 2, d_1(x^2) = 2 x^(0) x^(1) reads degree 3, not 2."""
    family = jets._family

    def misnamed(v, levels):
        jets_of_v = family(v, levels)
        if v.name != "x":
            return jets_of_v
        return (jets_of_v[0], JetVar("y", v.index, 1)) + jets_of_v[2:]

    A = AlgebraPresentation(["x", "y"], [X ** 2], {"x": 1, "y": 2})
    assert checks._induced_check(A, 1) == (True, None)
    monkeypatch.setattr(jets, "_family", misnamed)
    assert checks._induced_check(A, 1) == (
        False, {"n": 1, "order": 1, "degree": 2, "monomial": "x_0*y_1"})


def test_structural_failure_declares_only_the_drawn_variables(monkeypatch):
    """Under a mutant engine that reverses the jet orders, structural_grading
    fails, and each failure document declares the variables its instance
    was drawn over: the first k of x, y, z, k the suite's first draw."""
    substitute = jets._substitute
    monkeypatch.setattr(jets, "_substitute",
                        lambda f, families, bounds: substitute(f, families, bounds)[::-1])
    draw, check = SUITES["structural_grading"]
    rng = random.Random(5)
    drawn = set()
    for _ in range(40):
        probe = random.Random()
        probe.setstate(rng.getstate())
        k = checks._randint(probe, 1, MAX_VARS)
        args = draw(rng)
        ok, _ = getattr(checks, check)(*args)
        if not ok:
            doc = parse_document(checks._failure_input(args)["input"])
            assert doc.algebra.vars == ["x", "y", "z"][:k]
            assert len(doc.algebra.relations) == 1
            drawn.add(k)
    assert drawn == {1, 2, 3}


def test_random_poly_draws_as_the_monomial_reference():
    """random_poly gives the polynomial, term order included, and leaves
    the stream where the Monomial-based reference does."""
    for seed in range(500):
        for nvars in (1, 2, 3):
            for max_terms in (3, 5):
                ours, ref = random.Random(seed), random.Random(seed)
                names = list("xyz"[:nvars])
                got = random_poly(ours, AlgebraPresentation(names, []).generators, max_terms)
                want = reference_random_poly(ref, names, max_terms)
                assert got.render() == want.render()
                assert list(got.terms.items()) == list(want.terms.items())
                assert ours.getstate() == ref.getstate()


def _drawn_records(args):
    """The algebras, modules and morphisms of a suite's draw."""
    for a in args:
        if isinstance(a, ModulePresentation):
            yield from (a, a.over)
        elif isinstance(a, AlgebraMorphism):
            yield from (a, a.source, a.target)
        elif isinstance(a, AlgebraPresentation):
            yield a


def _built_from(R, n):
    """R, and what the library builds from it at level n: the induced
    morphism of a morphism; the Hasse-Schmidt module of a module; the
    Kaehler modules of an algebra and of its jet presentation, and the
    Hasse-Schmidt module of the former."""
    if isinstance(R, AlgebraMorphism):
        return [R, induced_morphism(R, n)]
    if isinstance(R, ModulePresentation):
        return [R, hs_module_presentation(R, n)]
    return [R, kaehler_presentation(R), *checks._cotangent_sides(R, n)]


def test_drawn_algebras_pass_the_constructor_checks():
    """Every record built unchecked, with ``_built``, is what its checking
    constructor builds from its fields: the drawn algebras, modules and
    morphisms of every suite over Q, the draws' F2 and F3 reductions, and
    the modules and induced morphisms built from all of these."""
    drawn = [(R, seed % 3) for name, (draw, _) in SUITES.items() for seed in range(200)
             for R in _drawn_records(draw(random.Random("%d:%s" % (seed, name))))]
    drawn += [(A, n) for field in (PrimeField(2), PrimeField(3))
              for suite in ("leibniz", "twisted_ring_hom")
              for A, n in _reduced_draws(suite, field)]
    graded = relations = rows = images = 0
    fields = set()
    for R, n in drawn:
        for B in _built_from(R, n):
            assert type(B)(*B._values()) == B
            if isinstance(B, AlgebraPresentation):
                graded += B.grading is not None
                relations += len(B.relations)
                fields.add(B.field)
            elif isinstance(B, AlgebraMorphism):
                images += len(B.images)
            else:
                rows += len(B.relation_matrix)
                fields.add(B.field)
    assert graded and relations and rows and images
    assert fields == {QQ, PrimeField(2), PrimeField(3)}


def test_draw_helpers_follow_the_randint_stream():
    """_randint, _choice and _draw_point return what random.Random returns
    on a twin generator and leave it in the same state."""
    ranges = [(0, 5), (0, 3), (0, 4), (1, 5), (1, 4), (1, MAX_VARS), (1, 2), (0, 2), (0, 6),
              (-2, 2), (-9, 9), (checks.COEFF_LO, checks.COEFF_HI),
              (0, checks.MAX_LEVEL - 1), (0, checks.MAX_LEVEL), (0, checks.MAX_BILEVEL),
              (1, checks.MAX_DEGREE), (0, checks.MAX_DEGREE)]
    ranges += [(n + 1, checks.MAX_LEVEL) for n in range(checks.MAX_LEVEL)]  # width 1 at n = 3
    for seed in range(200):
        ours, twin = random.Random(seed), random.Random(seed)
        for lo, hi in ranges:
            for _ in range(3):
                assert checks._randint(ours, lo, hi) == twin.randint(lo, hi)
                assert ours.getstate() == twin.getstate()
        for seq in ("a", "ab", "abc", [(1, 2)], ((1, 1), (2, 2)), ("x", "y", "z")):
            for _ in range(3):
                assert checks._choice(ours, seq) == twin.choice(seq)
                assert ours.getstate() == twin.getstate()
        for k in range(16):
            assert checks._draw_point(ours, k) == [
                (twin.randint(-9, 9), twin.randint(1, 5)) for _ in range(k)]
            assert ours.getstate() == twin.getstate()


# The seven public theorem checks, each with arguments on which its theorem
# holds; the instances are over the cusp.
X, Y, U = (Poly.var(JetVar(name, i, 0)) for i, name in ((0, "x"), (1, "y"), (0, "u")))
CUSP = AlgebraPresentation(["x", "y"], [Y ** 2 - X ** 3])
CUSP_MODULE = ModulePresentation(CUSP, 2, [[X * Y, Y ** 2 - X]])
NORMALIZATION = AlgebraMorphism(CUSP, AlgebraPresentation(["u"], []),
                                {JetVar("x", 0, 0): U ** 2, JetVar("y", 1, 0): U ** 3})
THEOREM_CHECKS = {
    "bigrade_commute": (bigrade_commute_check, (CUSP, 1, 1)),
    "cotruncation": (cotruncation_subset_check, (CUSP, 1, 2)),
    "cotangent_theorem": (cotangent_theorem_check, (CUSP, 1)),
    "sym_theorem": (sym_theorem_check, (CUSP_MODULE, 2)),
    "base_change": (base_change_check, (NORMALIZATION, CUSP_MODULE, 2)),
    "zigzag": (free_dual_zigzag_check, (3,)),
    "p1_cocycle": (cocycle_check, (1, 2)),
}
FAIL_UNDER_TOP_GRADE_ZERO = ("bigrade_commute", "cotruncation", "cotangent_theorem",
                             "sym_theorem")


@pytest.mark.parametrize("name", THEOREM_CHECKS)
def test_theorem_check_contract(name):
    """Each check returns exactly (True, None) when its theorem holds; under
    the top_grade_zero engine the jet checks return (False, detail), detail
    is a JSON document without the instance, and the input the checker
    writes from the arguments replays the cusp."""
    check, args = THEOREM_CHECKS[name]
    result = check(*args)
    assert type(result) is tuple and result[0] is True and result == (True, None)
    if name not in FAIL_UNDER_TOP_GRADE_ZERO:
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jets, "_substitute", _top_grade_zero(jets._substitute))
        ok, detail = check(*args)
    assert ok is False and type(detail) is dict
    json.dumps(detail)
    assert not {"ok", "report", "trial", "input"} & set(detail)
    doc = parse_document(checks._failure_input(args)["input"])
    assert doc.algebra.vars == CUSP.vars
    assert doc.algebra.relations == CUSP.relations


FREE_LINE = AlgebraPresentation(["x"], [])
FREE_LINE_MODULE = ModulePresentation(FREE_LINE, 1, [])
NEGATIVE_LEVEL_CALLS = {
    "hs_components": lambda: hs_components(Y ** 2 - X ** 3, -1),
    "hs_components_box": lambda: hs_components(Y ** 2 - X ** 3, 1, -1),
    "jet_presentation": lambda: jet_presentation(CUSP, -1).relations,
    "hs_module_presentation": lambda: hs_module_presentation(CUSP_MODULE, -1),
    "induced_morphism": lambda: induced_morphism(NORMALIZATION, -1),
    "p1_transition": lambda: p1_transition(1, -1),
    "cocycle_check": lambda: cocycle_check(1, -1),
    "bigrade_commute_check": lambda: bigrade_commute_check(CUSP, 1, -1),
    "cotruncation_subset_check": lambda: cotruncation_subset_check(CUSP, -1, 1),
    "cotangent_theorem_check": lambda: cotangent_theorem_check(CUSP, -1),
    "sym_theorem_check": lambda: sym_theorem_check(CUSP_MODULE, -1),
    "base_change_check": lambda: base_change_check(NORMALIZATION, CUSP_MODULE, -1),
    "free_dual_zigzag_check": lambda: free_dual_zigzag_check(-3),
    # no relation, so no grade box is built for one
    "bigrade_commute_check_free": lambda: bigrade_commute_check(FREE_LINE, -1, 0),
    "sym_theorem_check_free": lambda: sym_theorem_check(FREE_LINE_MODULE, -1),
    "jet_presentation_free": lambda: jet_presentation(FREE_LINE, -1).relations,
    "hs_module_presentation_free": lambda: hs_module_presentation(FREE_LINE_MODULE, -1),
}


@pytest.mark.parametrize("name", NEGATIVE_LEVEL_CALLS)
def test_negative_level_raises_bad_levels(name):
    """A negative level is an error with its own type, never an IndexError
    from an empty grade box or a vacuous verdict."""
    with pytest.raises(BadLevels, match="negative"):
        NEGATIVE_LEVEL_CALLS[name]()


def test_demo_02_reports_a_failing_cotruncation(monkeypatch, capsys):
    """Under the top_grade_zero engine, demo 02 prints FAILED for the
    co-truncation it checks, not ok."""
    monkeypatch.setattr(jets, "_substitute", _top_grade_zero(jets._substitute))
    runpy.run_path(str(Path(__file__).resolve().parents[1] / "demos" / "02_iterated_jets.py"))
    assert "jets at level 1 embed in level 3: FAILED\n" in capsys.readouterr().out


def test_sym_check_takes_each_jet_once(monkeypatch):
    """Within one Sym check no (polynomial, level) is jetted twice: a base
    relation's jets serve both sides, as HS^n M's algebra computed them."""
    calls = []

    def counted(hs):
        def wrapper(f, *levels):
            calls[-1].append((f, levels))
            return hs(f, *levels)
        return wrapper

    for module in (jets, checks):
        monkeypatch.setattr(module, "hs_components", counted(module.hs_components))
    check = checks.sym_theorem_check

    def trial(*args):
        calls.append([])
        return check(*args)

    monkeypatch.setattr(checks, "sym_theorem_check", trial)
    assert run_suite(seed=42, trials=100, suites=["sym_theorem"])["passed"]
    assert len(calls) == 100 and sum(map(len, calls)) > 100
    assert all(len(set(trial)) == len(trial) for trial in calls)


def _sym_with_first_relation(change):
    def altered(M):
        S = hsmodules.sym_presentation(M)
        return AlgebraPresentation(S.vars, change(S.relations[:1]) + S.relations[1:],
                                   S.grading, S.field)
    return altered


def test_sym_check_fails_on_a_dropped_or_altered_base_relation(monkeypatch):
    """A base relation that Sym M loses leaves its jets missing; one that it
    alters is jetted anew, so the altered jets are extra."""
    cusp_jets = sorted(g.render() for g in hs_components(Y ** 2 - X ** 3, 1))
    monkeypatch.setattr(checks, "sym_presentation", _sym_with_first_relation(lambda rs: []))
    assert sym_theorem_check(CUSP_MODULE, 1) == (
        False, {"n": 1, "missing": cusp_jets, "extra": []})
    monkeypatch.setattr(checks, "sym_presentation",
                        _sym_with_first_relation(lambda rs: [2 * f for f in rs]))
    assert sym_theorem_check(CUSP_MODULE, 1) == (
        False, {"n": 1, "missing": cusp_jets,
                "extra": sorted(g.render() for g in hs_components(2 * Y ** 2 - 2 * X ** 3, 1))})


def _reduced_draws(suite, field, trials=20):
    """The first draws of a two-polynomial suite at seed 42, their
    relations reduced into field."""
    draw, _ = SUITES[suite]
    rng = random.Random("42:%s" % suite)
    for _ in range(trials):
        A, n = draw(rng)
        relations = [Poly(field, {m: field.from_ratio(*c.as_integer_ratio())
                                  for m, c in f.terms.items()}) for f in A.relations]
        yield AlgebraPresentation(A.vars, relations, None, field), n


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=lambda f: f.name)
def test_leibniz_sides_over_the_draws_field(field):
    for A, n in _reduced_draws("leibniz", field):
        conv, direct = checks._leibniz_sides(A, n)
        assert conv == direct and {p.field for p in conv + direct} == {field}


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=lambda f: f.name)
def test_twisted_check_over_the_draws_field(monkeypatch, field):
    """Every jet list the check compares, the unit's among them, is over the
    draw's field."""
    fields = []
    build = checks.hs_components

    def recorded(p, n):
        fields.append(p.field)
        return build(p, n)

    monkeypatch.setattr(checks, "hs_components", recorded)
    for A, n in _reduced_draws("twisted_ring_hom", field):
        assert checks._twisted_check(A, n) == (True, None)
    assert set(fields) == {field} and len(fields) == 5 * 20
