"""Benchmark of the multiprover toolkit: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: repetition, seesaw_oracle, protocol, encode (see README.md in
this directory). Load model: closed loop, one client; each item starts when
the previous one has finished. An item is one top-level public call plus
its correctness check.

``--trace 0`` measures the end-to-end metrics with no tracing: set-up time
(median over fresh processes), items per second, median and p90 item
latency, and peak resident memory. ``--trace 1`` runs a fixed number of
items twice, untraced and then traced, and reports per-layer call counts,
self times and counters, the tracing overhead, and the coverage checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print every metric with its unit, ``failed_ratio``, the input fingerprint,
the environment record and the per-item diagnostics. A full record (and,
when traced, the spans) is written under ``perfbench/out/``.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

# Only the standard library at module level: a set-up probe must not import
# numpy before its clock starts, so numpy, workloads and tracer load lazily.
import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "multiprover"

MIN_ITEMS = 100  # p90 is the highest percentile with >= 10 items beyond it
SETUP_REPS = 6
MAX_UNCOVERED = 0.05

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer functions whose call count and self time the traced run reports.
TRACED_FUNCTIONS = (
    "optimize.seesaw_max",
    "optimize.brute_force_max",
    "separable.witness_evidence",
    "separable.densify",
    "repetition.pair_instance",
    "repetition.repetition_witness",
    "linalg.permute_subsystems",
    "repetition.verify_perfect_repetition",
    "bellqma.estimate_acceptance",
    "bellqma.arthur_verify",
    "bellqma.stage1_distribution",
    "bellqma.step4_frequency_test",
    "bellqma.accept_probability",
    "bellqma.honest_message",
    "bellqma.message_from_distributions",
    "bellqma.alternating_message",
    "encoding.encode_state",
    "encoding.encoding_error_squared_exact",
    "encoding.preparation_plan",
    "encoding.apply_plan",
    "encoding.decode_state",
    "encoding.description_to_hex",
    "encoding.description_from_hex",
    "cli.main",
    "cli.build_parser",
    "linalg.operator_from_dict",
    "linalg.state_from_dict",
    "separable.separable_from_dict",
    "bellqma.protocol_from_dict",
    "bench.check",
)
COUNTERS = {
    "optimize.seesaw_max.iterations": "count",
    "optimize.brute_force_max.samples": "count",
    "optimize.brute_force_max.macs": "MAC_computed",
    "separable.witness_evidence.samples": "count",
    "separable.witness_evidence.macs": "MAC_computed",
    "bellqma.rejected.step3": "count",
    "bellqma.rejected.step4": "count",
    "bellqma.rejected.step5": "count",
    "bellqma.accepted": "count",
    "encoding.components": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for fn in TRACED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update(COUNTERS)
    units["optimize.seesaw_max.converged_ratio"] = "1"
    units["repetition.perfect_ratio"] = "1"
    units["trace.items"] = "count"
    units["trace.overhead_ratio"] = "1"
    units["trace.uncovered_ratio"] = "1"
    return units


# -- environment --------------------------------------------------------------


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# -- library import and set-up --------------------------------------------------


def import_library():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    mp = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    where = Path(mp.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"{PACKAGE} was imported from {where}, not from {SRC}")
    return mp


def probe_setup(workload_name: str) -> float:
    """Time import plus set-up in this (fresh) process; inputs come on stdin."""
    text = sys.stdin.read()
    t0 = time.perf_counter()
    mp = import_library()
    t1 = time.perf_counter()
    import workloads  # the benchmark's own module, not timed

    w = workloads.get(workload_name)
    t2 = time.perf_counter()
    w.setup(mp, json.loads(text))
    t3 = time.perf_counter()
    return (t1 - t0) + (t3 - t2)


def setup_samples(workload_name: str, text: str, reps: int) -> list[float]:
    samples = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload_name],
            input=text,
            capture_output=True,
            text=True,
            timeout=170,
            cwd=ROOT,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-2000:]}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# -- item loop ----------------------------------------------------------------


class Diagnostics:
    """Worst values of the per-item diagnostics; never gated."""

    def __init__(self):
        self.ranges: dict[str, list[float]] = {}
        self.errors: list[str] = []

    def add(self, diag: dict) -> None:
        for key, value in diag.items():
            if key == "error":
                if len(self.errors) < 5:
                    self.errors.append(value)
                continue
            lo_hi = self.ranges.setdefault(key, [value, value])
            lo_hi[0] = min(lo_hi[0], value)
            lo_hi[1] = max(lo_hi[1], value)

    def to_dict(self) -> dict:
        out = {k: {"min": v[0], "max": v[1]} for k, v in sorted(self.ranges.items())}
        if self.errors:
            out["errors"] = self.errors
        return out


def run_items(w, mp, env, *, count=None, seconds=0.0, min_items=0, check=None, tracer=None, diags=None):
    """Closed loop over items 0, 1, ...; returns (latencies, failed, wall).

    With ``count`` the loop runs exactly that many items. Otherwise it runs
    until ``seconds`` have passed and at least ``min_items`` are done, and
    then to the end of the workload's cycle, so every run holds whole
    cycles of the same mix. A failed check or an exception counts as a
    failed item; the loop goes on.
    """
    check = check or contextlib.nullcontext
    clock = time.perf_counter
    latencies: list[float] = []
    failed = 0
    t0 = clock()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= min_items and i % w.CYCLE == 0 and clock() - t0 >= seconds:
            break
        if tracer is not None:
            tracer.item_id = i
        start = clock()
        try:
            ok, diag = w.item(mp, env, i, check)
        except Exception as exc:  # counted, never fatal
            ok, diag = False, {"error": f"item {i}: {type(exc).__name__}: {exc}"}
        latencies.append(clock() - start)
        failed += not ok
        if diags is not None:
            diags.add(diag)
        i += 1
    return latencies, failed, clock() - t0


def trace_items(w, seconds: float) -> int:
    """Items in each half of a traced run: fixed by --seconds, not by speed."""
    n = int(w.RATE * seconds / 2) // w.CYCLE * w.CYCLE
    return max(n, w.CYCLE)


# -- the two kinds of run -----------------------------------------------------


def end_to_end(w, inputs, text, seconds):
    # Set-up is sampled before and after the timed loop, so that one slow
    # spell of a shared machine does not decide the median.
    after = SETUP_REPS // 2
    setup = setup_samples(w.name, text, SETUP_REPS - after)
    mp = import_library()
    env = w.setup(mp, inputs)
    diags = Diagnostics()
    run_items(w, mp, env, count=1)  # warm-up, not counted
    lat, failed, wall = run_items(w, mp, env, seconds=seconds, min_items=MIN_ITEMS, diags=diags)
    setup += setup_samples(w.name, text, after)
    ms = sorted(x * 1e3 for x in lat)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(lat) / wall,
        "item_p50_ms": statistics.median(ms),
        "item_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "items": len(lat),
        "failed_ratio": failed / len(lat),
        "setup_samples_s": setup,
        "diagnostics": diags.to_dict(),
    }
    return len(lat), failed, metrics, END_TO_END, extra, failed == 0


def traced(w, inputs, seconds, seed):
    import numpy as np
    from tracer import Tracer, layer_hooks

    mp = import_library()
    env = w.setup(mp, inputs)
    run_items(w, mp, env, count=1)  # warm-up, not counted
    n = trace_items(w, seconds)
    diags = Diagnostics()
    _, failed_plain, wall_plain = run_items(w, mp, env, count=n, diags=diags)

    tracer = Tracer()
    tracer.install(PACKAGE, layer_hooks(PACKAGE))
    try:
        env = w.setup(mp, inputs)  # traced as item -1
        mark = len(tracer.start)
        _, failed_traced, wall_traced = run_items(
            w, mp, env, count=n, check=lambda: tracer.span("bench.check"), tracer=tracer, diags=diags
        )
        covered = float(tracer.self_times()[mark:].sum())
        bypassed = tracer.bypassed_calls(lambda: w.item(mp, env, 0, contextlib.nullcontext))
    finally:
        tracer.uninstall()

    totals = tracer.totals()
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"], metrics[f"{fn}.self_s"] = totals.get(fn, (0, 0.0))
    for key in COUNTERS:
        metrics[key] = tracer.counters.get(key, 0)

    def share(counter: str, fn: str) -> float:
        calls = metrics[f"{fn}.calls"]
        return tracer.counters.get(counter, 0) / calls if calls else 0.0

    metrics["optimize.seesaw_max.converged_ratio"] = share("optimize.seesaw_max.converged", "optimize.seesaw_max")
    metrics["repetition.perfect_ratio"] = share("repetition.perfect", "repetition.verify_perfect_repetition")
    uncovered = 1.0 - covered / wall_traced
    metrics["trace.items"] = n
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0
    metrics["trace.uncovered_ratio"] = uncovered

    np.savez_compressed(
        OUT / f"spans-{w.name}-seed{seed}.npz", names=np.array(tracer.names), **tracer.arrays()
    )
    failed = failed_plain + failed_traced
    extra = {
        "items": 2 * n,
        "failed_ratio": failed / (2 * n),
        "bypassed_calls": bypassed,
        "diagnostics": diags.to_dict(),
        "layers": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(totals.items())},
    }
    correct = failed == 0 and not bypassed and uncovered <= MAX_UNCOVERED
    return 2 * n, failed, metrics, per_layer_units(), extra, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(probe_setup(args.workload)))
        return 0

    import workloads

    OUT.mkdir(exist_ok=True)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.get(args.workload)
    try:
        inputs = w.generate(args.seed, ROOT)
    except OSError as exc:
        print(f"error: cannot build the inputs: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(inputs)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": workloads.fingerprint(inputs),
        "env": environment(),
    }
    try:
        if args.trace:
            attempted, failed, metrics, units, extra, correct = traced(w, inputs, args.seconds, args.seed)
        else:
            attempted, failed, metrics, units, extra, correct = end_to_end(w, inputs, text, args.seconds)
    finally:
        if "files" in inputs:
            shutil.rmtree(ROOT / inputs["files"], ignore_errors=True)
    record.update(extra)
    record["metrics"] = metrics

    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"# {w.name} seed={args.seed} trace={args.trace} items={record['items']}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_ratio':44s} {record['failed_ratio']:>16.6g} 1")
    print("record " + json.dumps({k: v for k, v in record.items() if k not in ("layers", "metrics")}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
