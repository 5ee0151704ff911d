import random

import pytest

from jetforge import checks
from jetforge.checks import (SUITE_NAMES, CheckConfig, random_algebra,
                             random_module, random_poly, run_suite)
from jetforge.cli import main
from jetforge.dsl import parse_document, print_document
from jetforge.errors import UnknownSuite


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
    with pytest.raises(ValueError):
        CheckConfig(max_vars=4)
    with pytest.raises(ValueError):
        CheckConfig(max_level=9)


def test_degenerate_instances_occur():
    cfg = CheckConfig(seed=1, trials=1)
    rng = random.Random(0)
    saw_zero_poly = saw_free_algebra = saw_free_module = False
    for _ in range(200):
        if random_poly(rng, ("x", "y", "z")[:rng.randint(1, cfg.max_vars)], cfg).is_zero():
            saw_zero_poly = True
        if not random_algebra(rng, cfg).relations:
            saw_free_algebra = True
        m = random_module(rng, cfg)
        if m.rank and not m.relation_matrix:
            saw_free_module = True
    assert saw_zero_poly and saw_free_algebra and saw_free_module


def test_counterexamples_replay_through_dsl():
    # instance serializations parse back through the DSL
    cfg = CheckConfig(seed=5, trials=1)
    rng = random.Random(4)
    for _ in range(20):
        A = random_algebra(rng, cfg)
        M = random_module(rng, cfg, over=A)
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
    def broken(rng, orng, cfg):
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
