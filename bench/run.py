#!/usr/bin/env python3
"""poissonlab benchmark.

    python3 bench/run.py --workload interior_corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process as a closed loop with one client: each
operation starts when the previous one returns.  The run times the set-up
in fresh processes, warms up with one operation, then makes whole passes over
the workload's fixed operation list until ``--seconds`` of pass time have
elapsed.  Times are scaled to a reference host speed with the kernel in
``calib.py``, measured between operations.  All correctness gates run
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes untraced
passes for half the time, then as many passes with every layer wrapped by
the tracer, and reports the per-layer metrics; the tracer is removed before
the gates run.  The last line of standard output is one JSON object; the
exit code is 0 only if every gate passed.  ``--workload all`` runs each
workload in its own fresh process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("interior_corpus", "solve_ladder", "cli_suite")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 1.0

# One BLAS thread for the benchmark and its set-up probes.  On 2 cores the
# threaded dot products of the Krylov loops make a warm 128x128 solve about
# twice as slow and noisier (0.17-0.19 s against 0.082-0.090 s with one
# thread), and the machine is shared.
BLAS_THREADS = "1"

E2E = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s", "op_p50_ms": "ms",
       "op_p90_ms": "ms"}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def manifest(args, wl) -> dict:
    import numpy
    import poissonlab
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "poissonlab": poissonlab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params,
    }


def measure_setup(name: str, seed: int, probes: int) -> list:
    """(set-up seconds, reference kernel seconds) of ``probes`` fresh
    processes, one after another."""
    outdir = OUT / name / f"seed{seed}-setup"
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(BENCH / "cold.py"), name, str(seed),
                               str(outdir)], cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(tuple(float(v) for v in proc.stdout.split()[-2:]))
    return times


def run_pass(wl, k: int, kernel, tracer=None):
    """One timed pass: ([(label, seconds, scaled seconds)], kernel times,
    outputs, errors).

    The reference kernel runs at the start, after every CALIBRATE_EVERY_S of
    operations and at the end, outside the operations' timing; each
    operation is scaled by the kernel times on its two sides."""
    ops = wl.ops(k)
    timed, outs, errors = [], [], []
    cals = [kernel.measure()]
    since = 0.0
    for i, (label, fn) in enumerate(ops):
        if tracer is not None:
            tracer.begin(label)
        a = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            errors.append((i, f"{label}: {type(exc).__name__}: {exc}"))
        else:
            outs.append((i, label, out))
        dt = time.perf_counter() - a
        timed.append((label, dt, len(cals) - 1))
        since += dt
        if since >= CALIBRATE_EVERY_S or i == len(ops) - 1:
            cals.append(kernel.measure())
            since = 0.0
    lat = [(label, dt, kernel.scale(dt, cals[j], cals[j + 1])) for label, dt, j in timed]
    return lat, cals, outs, errors, timed


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from calib import REF_KERNEL_S, Kernel
    from workloads import median, quantile

    outdir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, outdir, args.smoke)
    wl.prepare()
    info = manifest(args, wl)
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed,
                                                      1 if args.smoke else SETUP_PROBES)
    kernel = Kernel()
    failed_ops, run_failures = {}, []
    try:
        wl.setup_op()()  # warm-up, untimed
    except Exception as exc:
        run_failures.append(f"warm-up: {type(exc).__name__}: {exc}")

    walls, scaled, lat, cals, pass_labels, timeline = [], [], [], [], [], []
    attempted = 0

    def one_pass(tracer=None):
        nonlocal attempted
        k = len(walls)
        pass_lat, pass_cals, outs, errors, timed = run_pass(wl, k, kernel, tracer)
        timeline.append({"ops": timed, "cals": pass_cals})
        if tracer is not None:
            tracer.restore()
        walls.append(sum(t for _, t, _ in pass_lat))
        scaled.append(sum(t for _, _, t in pass_lat))
        pass_labels[:] = [label for label, _, _ in pass_lat]
        lat.extend(pass_lat)
        cals.extend(pass_cals)
        attempted += len(pass_lat)
        for i, msg in errors + wl.check(k, outs):
            failed_ops.setdefault((k, i), msg)

    budget = args.seconds / 2 if args.trace else args.seconds
    while not walls or sum(walls) < budget:
        one_pass()
    untraced = len(walls)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.make_tracer()
        for _ in range(untraced):
            one_pass(tracer.install())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for k, i, msg in wl.finish():
        if i is None:
            run_failures.append(msg)
        else:
            failed_ops.setdefault((k, i), msg)
    failed = len(failed_ops) + len(run_failures)
    notes = wl.notes + wl.repeat_notes()

    by_label: dict = {}
    for label, _, t in lat:
        by_label.setdefault(label, []).append(t)
    op_s = {label: median(ts) for label, ts in by_label.items()}
    # one pass built from each operation's median: steadier than the median
    # of whole passes, which a single slow stretch of the host can shift
    pass_s = sum(op_s[label] for label in pass_labels)
    if args.trace:
        passes = len(walls) - untraced
        overhead = (sum(scaled[untraced:]) - sum(scaled[:untraced])) / passes
        metrics = layers.per_layer_metrics(tracer, passes, overhead)
        units = layers.PER_LAYER
        tracer.write(outdir / "spans.json")
    else:
        metrics = {
            "setup_s": median(kernel.scale(t, c, c) for t, c in setup_times),
            "peak_rss_mb": peak_rss_mb,
            "pass_s": pass_s,
            "op_p50_ms": 1e3 * quantile(op_s.values(), 0.5),
            "op_p90_ms": 1e3 * quantile(op_s.values(), 0.9),
        }
        units = E2E
    views = workload_views(args.workload, op_s, pass_s, failed, attempted)
    views["wall_pass_s"] = (median(walls), "s")
    views["host_slowdown"] = (median(cals) / REF_KERNEL_S, "1")
    if setup_times:
        views["wall_setup_s"] = (median(t for t, _ in setup_times), "s")

    for note in notes:
        print("note: " + note)
    for (k, i), msg in sorted(failed_ops.items()):
        print(f"FAIL pass {k} op {i}: {msg}")
    for msg in run_failures:
        print(f"FAIL run: {msg}")
    for name, (value, unit) in views.items():
        print(f"view {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    correct = failed == 0
    with open(outdir / "result.json", "w") as fh:
        json.dump({"manifest": info, "metrics": metrics, "views": views, "passes": walls,
                   "timeline": timeline,
                   "untraced_passes": untraced, "setup_samples": setup_times,
                   "op_median_s": op_s, "records": wl.records, "notes": notes,
                   "failures": [f"pass {k} op {i}: {m}" for (k, i), m in failed_ops.items()]
                   + run_failures}, fh, indent=1, sort_keys=True, default=float)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}), flush=True)
    return 0 if correct else 1


def workload_views(name, op_s, pass_s, failed, attempted) -> dict:
    """The workload's own end-to-end figures, printed next to the metrics."""
    from workloads import CORPUS_CASES, RUNGS, quantile
    views = {"fail_share": (failed / attempted, "1")}
    if name == "interior_corpus":
        views["cases_per_s"] = (CORPUS_CASES / pass_s, "1/s")
        views["case_p50_ms"] = (1e3 * quantile(op_s.values(), 0.5), "ms")
        views["case_p90_ms"] = (1e3 * quantile(op_s.values(), 0.9), "ms")
    elif name == "solve_ladder":
        views.update({f"tts_s.{label}": (op_s[label], "s") for label, *_ in RUNGS
                      if label in op_s})
    else:
        views["suite_s"] = (pass_s, "s")
    return views


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small operation lists and one set-up probe, for the self-tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "poissonlab" / "__init__.py").is_file():
        print(f"error: no poissonlab sources at {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
