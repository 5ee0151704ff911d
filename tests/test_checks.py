import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from jetforge import checks, jets
from jetforge.checks import (MAX_VARS, ORACLE_POINTS, SUITES, points_agree, random_algebra,
                             random_module, random_morphism, random_poly, report_text,
                             run_suite)
from jetforge.cli import main
from jetforge.dsl import document_text, parse_document, print_document
from jetforge.errors import FieldMismatch, UnknownSuite
from jetforge.poly import JetVar, Poly
from jetforge.scalars import QQ, PrimeField
from oracles import naive_points_agree


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
        if random_poly(rng, ("x", "y", "z")[:rng.randint(1, MAX_VARS)]).is_zero():
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
            text = print_document(algebra, module=module, morphism=morphism)
            doc = parse_document(text)
            assert document_text(doc) == text
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
    def broken(rng, orng):
        return False, True, {"input": "ring Q[x]\n"}

    monkeypatch.setitem(checks.SUITES, "broken", broken)
    report = run_suite(seed=3, trials=2, suites=("broken",))
    result = report["suites"]["broken"]
    assert result["failures"] == [{"trial": 0, "input": "ring Q[x]\n"},
                                  {"trial": 1, "input": "ring Q[x]\n"}]
    assert result["oracle_trials"] == 2
    assert result["oracle_disagreements"] == 2
    assert not result["passed"] and not report["passed"]
    assert report_text(report).startswith("broken             FAIL  (2 trials, 2 failures, "
                                          "oracle 0/2 agree, ")
    assert main(["check", "--suite", "broken", "--trials", "1"]) == 1
    assert "broken             FAIL" in capsys.readouterr().out


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
    later = 0
    for seed in range(8):
        for lhs, rhs, agrees in cases:
            ours, ref = random.Random(seed), random.Random(seed)
            start = ours.getstate()
            with monkeypatch.context() as m:
                m.setattr(Poly, "eval", None)  # the oracle evaluates with the kernel only
                got = points_agree(ours, lhs, rhs)
            assert got == naive_points_agree(ref, lhs, rhs) == agrees
            assert ours.getstate() == ref.getstate()
            nvars = len({v for p in lhs + rhs for v in p.vars()})
            drawn = _points_drawn(start, nvars, ours.getstate())
            if not nvars:
                assert drawn == 0
            elif agrees:
                assert drawn == ORACLE_POINTS
            else:
                later += drawn > 1
    assert later >= 4


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
# reports they produce; tests/golden/check_mutants.json holds those reports
# as the code before the tuple monomials produced them, so the failing
# suites' instance streams and failure reports (DSL documents and rendered
# polynomials) stay pinned.
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


def test_structural_failure_declares_only_the_drawn_variables(monkeypatch):
    """Under a mutant engine that reverses the jet orders, structural_grading
    fails, and each failure document declares the variables its instance
    was drawn over: the first k of x, y, z, k the suite's first draw."""
    substitute = jets._substitute
    monkeypatch.setattr(jets, "_substitute",
                        lambda f, families, bounds: substitute(f, families, bounds)[::-1])
    rng = random.Random(5)
    drawn = set()
    for _ in range(40):
        probe = random.Random()
        probe.setstate(rng.getstate())
        k = checks._randint(probe, 1, MAX_VARS)
        ok, _, detail = checks._suite_structural(rng, None)
        if not ok:
            doc = parse_document(detail["input"])
            assert doc.algebra.vars == ["x", "y", "z"][:k]
            assert len(doc.algebra.relations) == 1
            drawn.add(k)
    assert drawn == {1, 2, 3}


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
