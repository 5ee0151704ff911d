"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import random
from pathlib import Path

import pytest

import reference
import run
import verify as verify_module
from tracer import Tracer
from verify import verify
from workloads import FP_PRIMES, check_ops, jets_ops, make_ops, p1_ops

TINY_COMMANDS = (("jet", ("--n", "2")), ("jet2", ("--n", "1", "--m", "1")),
                 ("module", ("--n", "1")), ("omega", ("--n", "1")), ("morphism", ("--n", "2")))
TINY = {
    "jets-Q": lambda seed: jets_ops(seed, (0,), documents=2, commands=TINY_COMMANDS),
    "jets-Fp": lambda seed: jets_ops(seed, FP_PRIMES, documents=4, commands=TINY_COMMANDS),
    "check": lambda seed: check_ops(seed, seeds=1, trials=1),
    "p1-bundles": lambda seed: p1_ops(seed, levels=(0, 2)),
}


def traced_counts(workload, seed):
    jetforge, cli = run.load_jetforge()
    ops = TINY[workload](seed)
    tracer = Tracer(jetforge)
    tracer.install()
    try:
        traced = run.Pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    assert all(rc == 0 for rc in traced.rcs)
    untraced = run.Pass(cli, ops)
    run.calibrate([traced])
    run.calibrate([untraced])
    metrics = run.per_layer(tracer, traced, [untraced], ops)
    units = run.per_layer_units()
    return {k: v for k, v in metrics.items() if units[k] == "count"}


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_is_correct_and_complete(workload, trace):
    result, lines = run.run(workload, 3, 0.01, trace, ops=TINY[workload](3))
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= run.MIN_OPS
    want = run.per_layer_units() if trace else dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert any(line.strip().startswith("failed_frac") for line in lines)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_exactly(workload):
    assert traced_counts(workload, 5) == traced_counts(workload, 5)


def test_predicted_zeros():
    for workload in ("jets-Q", "jets-Fp"):
        counts = traced_counts(workload, 7)
        assert counts["poly.eval_calls"] == 0 and counts["localized.add_calls"] == 0
        assert counts["poly.mul_calls"] > 0 and counts["poly.render_calls"] > 0
    assert traced_counts("jets-Q", 7)["scalars.fp_ops"] == 0
    assert traced_counts("jets-Fp", 7)["scalars.fp_ops"] > 0
    assert traced_counts("p1-bundles", 7)["localized.add_calls"] > 0


def test_calibration_scales_by_the_nearby_reference_speed():
    ref = reference.REF_CHUNK_S
    assert reference.scales([2 * ref] * 5) == pytest.approx([0.5] * 5)
    slow_then_fast = reference.scales([2 * ref] * 30 + [ref] * 30, half_window=2)
    assert slow_then_fast[0] == pytest.approx(0.5) and slow_then_fast[-1] == pytest.approx(1.0)
    assert 0.5 < slow_then_fast[30] < 1.0


def test_generation_is_seeded():
    for workload in run.WORKLOADS:
        same = [(op.argv, op.stdin) for op in make_ops(workload, 11)]
        assert same == [(op.argv, op.stdin) for op in make_ops(workload, 11)]
        assert same != [(op.argv, op.stdin) for op in make_ops(workload, 12)]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_verifier_rejects_a_corrupted_output(workload, monkeypatch):
    monkeypatch.setattr(verify_module, "SAMPLED_LINES", 10**6)
    _, cli = run.load_jetforge()
    for op in TINY[workload](9):
        rc, out, _ = run.run_op(cli, op)
        assert verify(op, rc, out, random.Random(1)) is None
        assert verify(op, 1, out, random.Random(1)) is not None
        lines = out.splitlines()
        lines[min(2, len(lines) - 1)] += " + 1"  # off by one in every field
        assert verify(op, rc, "\n".join(lines) + "\n", random.Random(1)) is not None, op.argv


def test_recorded_digests_match_the_generated_workload():
    _, cli = run.load_jetforge()
    ops = make_ops("jets-Q", 0)
    recorded = run.recorded_digests("jets-Q", 0)
    assert recorded is not None and len(recorded) == len(ops)
    assert run.failures(ops, [run.Pass(cli, ops)], "jets-Q", 0, recorded) == [None] * len(ops)
