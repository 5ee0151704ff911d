"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion."""
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jetforge.checks import points_agree, random_algebra, random_module, run_suite
from jetforge.cli import main
from jetforge.hsmodules import cotangent_theorem_check, sym_theorem_check
from jetforge.jets import bigrade_commute_check, hs_components
from jetforge.p1 import cocycle_check, global_sections

from oracles import naive_hs_components

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def verdict(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(name, ok):
        # suspend capture so the line always lands in the real output stream
        with capman.global_and_fixture_disabled():
            sys.stdout.write("\nACCEPTANCE %-20s %s\n" % (name, "PASS" if ok else "FAIL"))
            sys.stdout.flush()
        assert ok, "acceptance criterion failed: %s" % name

    return emit


@pytest.fixture(scope="module")
def full_report():
    t0 = time.monotonic()
    report = run_suite(seed=42, trials=100)
    return report, time.monotonic() - t0


def test_criterion_1_all_suites(full_report, verdict):
    report, wall_seconds = full_report
    ok = report["passed"] and wall_seconds < 60.0
    ok = ok and all(s["trials"] == 100 for s in report["suites"].values())
    ok = ok and all(not s["failures"] for s in report["suites"].values())
    verdict("check-suites", ok)


def test_criterion_2_cusp_golden(capsys, verdict):
    code = main(["jet", "--n", "2", str(GOLDEN / "cusp.jf")])
    out = capsys.readouterr().out
    ok = code == 0 and out == (GOLDEN / "cusp_jet2.txt").read_text()
    # independently re-derive the relations with the naive oracle
    from jetforge.dsl import parse_document
    f = parse_document((GOLDEN / "cusp.jf").read_text()).algebra.relations[0]
    fast = hs_components(f, 2)
    naive = naive_hs_components(f, 2)
    ok = ok and fast == naive
    rng = random.Random("acceptance:cusp")
    ok = ok and points_agree(rng, fast, naive)
    verdict("cusp-golden", ok)


def test_criterion_3_cotangent_50(verdict):
    rng = random.Random("acceptance:cotangent")
    ok = True
    for _ in range(50):
        A = random_algebra(rng)
        ok = ok and cotangent_theorem_check(A, rng.randint(0, 3))[0]
    verdict("cotangent-50", ok)


def test_criterion_4_sym_50(verdict):
    rng = random.Random("acceptance:sym")
    ok = True
    for _ in range(50):
        M = random_module(rng)
        ok = ok and sym_theorem_check(M, rng.randint(0, 3))[0]
    verdict("sym-50", ok)


def test_criterion_5_bigrade_50(verdict):
    rng = random.Random("acceptance:bigrade")
    ok = True
    for _ in range(50):
        A = random_algebra(rng)
        ok = ok and bigrade_commute_check(A, rng.randint(0, 2), rng.randint(0, 2))[0]
    verdict("bigrade-50", ok)


def test_criterion_6_p1(verdict):
    ok = all(cocycle_check(d, n) for d in range(-2, 3) for n in range(4))
    for n in range(4):
        secs = global_sections(1, n)
        ok = ok and len(secs) == 2 * (n + 1) and all(regular for _, regular in secs)
    verdict("p1-bundles", ok)


def test_criterion_7_oracle_agreement(full_report, verdict):
    ok = True
    for name in ("leibniz", "jacobian_identity"):
        s = full_report[0]["suites"][name]
        ok = ok and s["oracle_trials"] == s["trials"] == 100 and s["oracle_disagreements"] == 0
    verdict("oracle-agreement", ok)
