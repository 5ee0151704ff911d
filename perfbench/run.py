"""jetforge benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload jets-Q --seed 1 --seconds 15 --trace 0

Every op is one ``jetforge.cli.main`` call made in this process, with the
input document on stdin and stdout captured.  A pass runs every op of the
workload once; passes repeat until ``--seconds`` have been spent.
A fixed reference chunk is timed after every op, and every timing is
reported in calibrated seconds, scaled by the reference's speed around it
(see reference.py): the shared hosts this runs on change speed by up to
2.6x for seconds to minutes at a time.  ``wall_s`` and ``cpu_s`` are
medians over passes of the per-pass totals; op latencies are pooled over
passes.  Outputs are verified after the timed phase, independently of
jetforge (see verify.py), and compared with the digests recorded from
jetforge's output in ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time on untraced passes, then runs one traced pass (see tracer.py) and
prints the per-layer metrics.  The last line of stdout is one JSON object.
See perfbench/README.md for the metric definitions.
"""

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reference
from verify import canonical, verify
from workloads import SUITES, WORKLOADS, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

MIN_PASSES = 2
MIN_OPS = 100
SETUP_PROBES = 9
DIGEST_HEX = 8

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

COUNT_METRICS = (
    ("poly.mul_calls", ("poly.Poly.__mul__",)),
    ("poly.add_calls", ("poly.Poly.__add__",)),
    ("poly.monomial_mul_calls", ("poly.Monomial.mul",)),
    ("poly.eval_calls", ("poly.Poly.eval",)),
    ("poly.render_calls", ("poly.Poly.render",)),
    ("scalars.coerce_calls", ("scalars.Rationals.coerce", "scalars.PrimeField.coerce")),
    ("scalars.fp_ops", ("scalars.Fp.",)),
    ("series.mul_calls", ("series.TruncSeries.__mul__", "series.BiSeries.__mul__")),
    ("series.invert_calls", ("series.series_invert",)),
    ("localized.add_calls", ("localized.LocalPoly.__add__",)),
    ("localized.mul_calls", ("localized.LocalPoly.__mul__",)),
    ("jets.components_calls", ("jets.hs_components", "jets.hs_components_2d",
                               "jets.jet_again")),
    ("hsmodules.matmul_calls", ("hsmodules.TwistedMatrix.matmul",)),
    ("dsl.parse_calls", ("dsl.parse_document",)),
)
SELF_TIME_METRICS = (
    ("poly.mul_self_s", ("poly.Poly.__mul__",)),
    ("poly.add_self_s", ("poly.Poly.__add__",)),
    ("poly.eval_self_s", ("poly.Poly.eval",)),
    ("poly.render_self_s", ("poly.Poly.render",)),
    ("scalars.fp_self_s", ("scalars.Fp.",)),
    ("series.mul_self_s", ("series.TruncSeries.__mul__", "series.BiSeries.__mul__")),
    ("series.invert_self_s", ("series.series_invert",)),
    ("localized.add_self_s", ("localized.LocalPoly.__add__",)),
    ("localized.self_s", ("localized.",)),
    ("jets.self_s", ("jets.",)),
    ("hsmodules.self_s", ("hsmodules.",)),
    ("p1.self_s", ("p1.",)),
    ("cli.self_s", ("cli.",)),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {name: "count" for name, _ in COUNT_METRICS}
    units.update({"poly.term_products": "count", "poly.terms_out": "count",
                  "poly.mul_yield": "ratio", "poly.peak_terms": "count",
                  "dsl.parse_s": "s", "trace.overhead_frac": "ratio"})
    units.update({name: "s" for name, _ in SELF_TIME_METRICS})
    units.update({"checks.suite_s.%s" % s: "s" for s in SUITES})
    return units


# -- running ops ---------------------------------------------------------------


def cpu_now():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_op(cli, op):
    """One subcommand invocation: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # an op that raises is a failed op, not a crash
        rc = "%s: %s" % (type(e).__name__, e)
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), time.perf_counter() - start


class Pass:
    """Every op once, each followed by one timed reference chunk.  Raw
    per-op times are kept; `calibrate` adds the calibrated ones."""

    def __init__(self, cli, ops, tracer=None):
        gc.collect()
        self.raw_latencies, self.raw_cpu, self.chunks, self.rcs, outs = [], [], [], [], []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            cpu_start = cpu_now()
            rc, out, seconds = run_op(cli, op)
            self.raw_cpu.append(cpu_now() - cpu_start)
            self.chunks.append(reference.timed_chunk())
            self.rcs.append(rc)
            outs.append(out)
            self.raw_latencies.append(seconds)
        self.raw_wall = sum(self.raw_latencies)
        self.outputs = outs
        self.digests = [hashlib.sha256(canonical(op, out).encode()).hexdigest()
                        for op, out in zip(ops, outs)]


def calibrate(passes):
    """Scale each op's times by the reference speed around it, over the
    chunk sequence of `passes` run back to back."""
    scale = reference.scales([t for p in passes for t in p.chunks])
    at = 0
    for p in passes:
        here, at = scale[at:at + len(p.chunks)], at + len(p.chunks)
        p.latencies = [t * f for t, f in zip(p.raw_latencies, here)]
        p.cpu = sum(t * f for t, f in zip(p.raw_cpu, here))
        p.wall = sum(p.latencies)
        p.scale = statistics.fmean(here)


def timed_passes(cli, ops, budget):
    """Untraced passes until `budget` seconds are spent (at least enough
    passes for MIN_PASSES and MIN_OPS); only the first keeps its outputs."""
    need = max(MIN_PASSES, math.ceil(MIN_OPS / len(ops)))
    start = time.perf_counter()
    deadline = start + budget
    passes = []
    while len(passes) < need or time.perf_counter() + (
            time.perf_counter() - start) / len(passes) / 2 < deadline:
        passes.append(Pass(cli, ops))
        if len(passes) > 1:
            passes[-1].outputs = None
    calibrate(passes)
    return passes


def measure_setup(workload, seed, probes=SETUP_PROBES):
    """Median (raw, calibrated) seconds to import jetforge.cli and parse the
    workload's documents in a fresh interpreter; the first probe only warms
    caches."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)]
    raw, calibrated = [], []
    for _ in range(probes + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        r, c = done.stdout.strip().splitlines()[-1].split()
        raw.append(float(r))
        calibrated.append(float(c))
    return statistics.median(raw[1:]), statistics.median(calibrated[1:])


# -- verification -------------------------------------------------------------


def recorded_digests(workload, seed):
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    row = table.get(workload, {}).get(str(seed))
    return row.split() if row else None


def failures(ops, passes, workload, seed, recorded):
    """Per-op failure reasons, None where the op is right.  The first
    pass's outputs are verified; later passes must repeat them exactly."""
    first = passes[0]
    rng = random.Random("verify:%s:%d" % (workload, seed))
    reasons = [verify(op, rc, out, rng) for op, rc, out in zip(ops, first.rcs, first.outputs)]
    for i, digest in enumerate(first.digests):
        if reasons[i]:
            continue
        if recorded is not None and (i >= len(recorded) or digest[:DIGEST_HEX] != recorded[i]):
            reasons[i] = "output digest differs from the recorded one"
        elif any(p.rcs[i] != first.rcs[i] or p.digests[i] != digest for p in passes):
            reasons[i] = "output differs between passes"
    return reasons


# -- metrics ------------------------------------------------------------------


def end_to_end(passes, setup_s, peak_rss_kb):
    lat = [s for p in passes for s in p.latencies]
    cuts = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": cuts[8] * 1000,
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": setup_s,
    }


def _sum(table, prefixes):
    return sum(v for name, v in table.items() if name.startswith(prefixes))


def per_layer(tracer, traced, passes, ops):
    """Per-layer metrics of the traced pass; span times are scaled by the
    traced pass's mean calibration factor."""
    calls, self_s = tracer.by_name(tracer.calls), tracer.by_name(tracer.self_s)
    metrics = {name: _sum(calls, prefixes) for name, prefixes in COUNT_METRICS}
    metrics.update({name: _sum(self_s, prefixes) * traced.scale
                    for name, prefixes in SELF_TIME_METRICS})
    metrics["poly.term_products"] = tracer.term_products
    metrics["poly.terms_out"] = tracer.terms_out
    metrics["poly.mul_yield"] = tracer.terms_out / max(tracer.term_products, 1)
    metrics["poly.peak_terms"] = tracer.peak_terms
    metrics["dsl.parse_s"] = _sum(tracer.by_name(tracer.total_s),
                                  ("dsl.parse_document",)) * traced.scale
    metrics["trace.overhead_frac"] = traced.wall / statistics.median(p.wall for p in passes) - 1
    for suite in SUITES:
        metrics["checks.suite_s.%s" % suite] = sum(
            statistics.median(p.latencies[i] for p in passes)
            for i, op in enumerate(ops) if op.meta.get("suite") == suite)
    return metrics


# -- main ---------------------------------------------------------------------


def load_jetforge():
    if not (SRC / "jetforge" / "cli.py").is_file():
        raise SystemExit("perfbench: jetforge sources not found under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import jetforge
    import jetforge.cli

    if Path(jetforge.__file__).resolve().parent != SRC / "jetforge":
        raise SystemExit("perfbench: imported jetforge from %s, not %s" % (jetforge.__file__, SRC))
    return jetforge, jetforge.cli


def run(workload, seed, seconds, trace, ops=None):
    """Run one workload; returns (result dict, printable report lines).

    Passing `ops` replaces the generated workload (the smoke test runs tiny
    ones); recorded digests then do not apply.
    """
    jetforge, cli = load_jetforge()
    recorded = recorded_digests(workload, seed) if ops is None else None
    ops = ops if ops is not None else make_ops(workload, seed)
    setup_raw_s, setup_s = (None, None) if trace else measure_setup(workload, seed)
    passes = timed_passes(cli, ops, seconds / 2 if trace else seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    all_passes = list(passes)
    if trace:
        from tracer import Tracer

        tracer = Tracer(jetforge)
        tracer.install()
        try:
            traced = Pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        calibrate([traced])
        all_passes.append(traced)
        metrics = per_layer(tracer, traced, passes, ops)
        units = per_layer_units()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("spans-%s-%d.txt.gz" % (workload, seed)))
    else:
        metrics = end_to_end(passes, setup_s, peak_rss_kb)
        units = dict(END_TO_END)
    reasons = failures(ops, all_passes, workload, seed, recorded)
    attempted = len(ops) * len(all_passes)
    failed = sum(1 for r in reasons if r) * len(all_passes)

    lines = [
        "workload %s, seed %d, %d ops x %d passes%s" % (
            workload, seed, len(ops), len(all_passes), " (last one traced)" if trace else ""),
        "python %s, nproc %d, %s" % (
            platform.python_version(), len(os.sched_getaffinity(0)), platform.platform()),
    ]
    for name, value in metrics.items():
        lines.append("  %-32s %14.6f %s" % (name, value, units[name]))
    if not trace:
        lat = [s * 1000 for p in passes for s in p.latencies]
        lines.append("  op_p90_ms sample: %d op latencies, %d above the 90th percentile"
                     % (len(lat), sum(ms > metrics["op_p90_ms"] for ms in lat)))
        lines.append("  uncalibrated: wall_s %.6f, op_p50_ms %.6f, setup_s %.6f" % (
            statistics.median(p.raw_wall for p in passes),
            statistics.median(s for p in passes for s in p.raw_latencies) * 1000, setup_raw_s))
    lines.append("  calibration factor (reference chunk %.3f ms / measured): %s" % (
        reference.REF_CHUNK_S * 1000,
        " ".join("%.3f" % p.scale for p in all_passes)))
    lines.append("  %-32s %14.6f ratio  (%d of %d ops attempted)"
                 % ("failed_frac", failed / attempted, failed, attempted))
    lines.append("  recorded digests for this seed: %s" % (
        "checked" if recorded else "none in digests.json"))
    for op, reason in zip(ops, reasons):
        if reason:
            lines.append("  FAILED %s: %s" % (" ".join(op.argv), reason))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
