import random
from fractions import Fraction

import pytest

from jetforge import checks
from jetforge.checks import (MAX_VARS, ORACLE_POINTS, SUITE_NAMES, CheckConfig,
                             points_agree, random_algebra, random_module, random_poly,
                             run_suite)
from jetforge.cli import main
from jetforge.dsl import parse_document, print_document
from jetforge.errors import FieldMismatch, UnknownSuite
from jetforge.poly import JetVar, Poly
from jetforge.scalars import QQ, PrimeField
from oracles import naive_points_agree


def test_all_suites_pass_smoke():
    report = run_suite(CheckConfig(seed=7, trials=10))
    assert report.passed
    assert set(report.suites) == set(SUITE_NAMES)


def test_determinism():
    cfg = CheckConfig(seed=123, trials=5)
    r1 = run_suite(cfg).to_json_dict()
    r2 = run_suite(CheckConfig(seed=123, trials=5)).to_json_dict()
    for s in SUITE_NAMES:
        r1["suites"][s].pop("seconds")
        r2["suites"][s].pop("seconds")
    assert r1 == r2


def test_single_trial_reproducible():
    cfg = CheckConfig(seed=99, trials=1, suites=("leibniz",))
    r = run_suite(cfg)
    assert r.suites["leibniz"].trials == 1
    assert r.suites["leibniz"].oracle_trials == 1


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        CheckConfig(suites=("nosuch",))


def test_config_bounds_enforced():
    with pytest.raises(ValueError):
        CheckConfig(trials=0)


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
    # instance serializations parse back through the DSL
    rng = random.Random(4)
    for _ in range(20):
        A = random_algebra(rng)
        M = random_module(rng, over=A)
        doc = parse_document(print_document(A, module=M))
        assert doc.algebra.vars == A.vars
        assert doc.algebra.relations == A.relations
        assert doc.module.rank == M.rank


def test_report_json_shape():
    report = run_suite(CheckConfig(seed=2, trials=2, suites=("zigzag", "p1_cocycle")))
    d = report.to_json_dict()
    assert d["passed"] is True
    assert d["suites"]["zigzag"]["trials"] == 2
    assert "leibniz" not in d["suites"]


def test_failing_suite_is_reported(monkeypatch, capsys):
    def broken(rng, orng):
        return False, True, {"input": "ring Q[x]\n"}

    monkeypatch.setitem(checks.SUITES, "broken", broken)
    report = run_suite(CheckConfig(seed=3, trials=2, suites=("broken",)))
    result = report.suites["broken"]
    assert result.failures == [{"trial": 0, "input": "ring Q[x]\n"},
                               {"trial": 1, "input": "ring Q[x]\n"}]
    assert result.oracle_trials == 2
    assert result.oracle_disagreements == 2
    assert not report.passed
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
