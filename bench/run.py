"""Benchmark for the superposition package.

    python3 bench/run.py --workload roof_search --seed 1 --seconds 30 --trace 0

Runs one workload's fixed batch of items (see workloads.py) in this process,
one item at a time, with BLAS pinned to one thread.  The batch repeats while
another one fits in --seconds; wall_s is the median batch time.  Timings
are scaled to a reference machine speed, measured between items (see
reference_s).  Every item's output is checked.  With --trace 0 the last
stdout line reports the bounded end-to-end metrics; with --trace 1 the run calls each item untraced
and then traced, once, and reports per-layer metrics.  The lines before it give
each item's outcome and a JSON report with all eight end-to-end metrics,
the machine fingerprint and every failure.  See README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("roof_search", "cli_campaign", "block_barrier")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# The machine's speed drifts by a third and more within seconds, in CPU time
# as much as in wall time.  A fixed loop of small-matrix numpy calls, timed
# before every item and every set-up probe, tracks that speed.  Each timing is
# scaled to the speed at which one pass of the loop takes REF_NOMINAL_S, using
# the mean of the passes just before and just after it.  The loop uses no
# package code, so a change to the package cannot move it.
REF_NOMINAL_S = 0.0015
REF_STEPS = 40
REF_REPEATS = 3
_REF_A = np.arange(16.0).reshape(4, 4) / 10.0
REF_H = _REF_A + _REF_A.T + 1j * (_REF_A - _REF_A.T)

# Items cheaper than this are called repeatedly within a batch (run_item).
ITEM_MIN_S = 0.02
ITEM_MAX_CALLS = 15

UNITS = {
    "wall_s": "s", "item_ms_p50": "ms", "item_ms_tail": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "1", "max_ref_err": "1", "roof_gap_mean": "1",
}
# The bounded metrics of BENCHMARK.json.  The other three are accuracy
# figures of the seed's inputs: they are 0 or undefined on some workloads.
END_TO_END = ("wall_s", "item_ms_p50", "item_ms_tail", "setup_s", "peak_rss_mb")

# Self times that all three workloads exercise, per function and per layer.
# The others would read 0.0 on every run of some workload; the report line
# has them all.
SELF_S_KEYS = ("kernel.eigh", "kernel.eigvalsh", "kernel.inv")
SELF_S_LAYERS = ("kernel", "qstate", "solvers")


def per_layer_names() -> list:
    names = []
    for key in tracing.traced_keys():
        names.append(f"{key}.calls")
        if key in SELF_S_KEYS:
            names.append(f"{key}.self_s")
        if tracing.counts_evals(key):
            names.append(f"{key}.evals")
    names += [f"{layer}.self_s" for layer in SELF_S_LAYERS]
    return names + ["measures.nonconverged", "solvers.min_dominating_diagonal.errors",
                    "harness.run_axiom_campaign.errors", "kernel.inv.errors",
                    "kernel.solve.errors", "trace.overhead_s", "trace.spans"]


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def reference_s() -> float:
    """Seconds of one pass of the reference loop, the fastest of REF_REPEATS
    (a pass that is interrupted only gets slower)."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        M = REF_H
        for _ in range(REF_STEPS):
            w, v = np.linalg.eigh(M)
            M = (v * np.abs(w)) @ v.conj().T / (1.0 + abs(w[0])) + REF_H
            np.linalg.svd(M)
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two reference passes into
    seconds at the reference speed."""
    return 2.0 * REF_NOMINAL_S / (before + after)


def load_workloads():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def build_inputs(workload: str, seed: int) -> list:
    return load_workloads().build(workload, seed, OUT / "inputs" / workload)


def measure_setup(workload: str, seed: int) -> tuple:
    """(scaled, raw) seconds from process start to imported package and
    built inputs, in fresh processes."""
    scaled, raw = [], []
    before = reference_s()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        after = reference_s()
        scaled.append(raw[-1] * scale(before, after))
        before = after
    return scaled, raw


def run_item(item, min_s=0.0):
    """(output, error, seconds) of one call.

    With min_s, a cheap item is called again until its calls have taken
    min_s or ITEM_MAX_CALLS calls were made, and seconds is their median:
    a single call of a fraction of a millisecond mostly measures the timer
    interrupts and cache misses that happen to fall into it.
    """
    times = []
    while True:
        t0 = time.perf_counter()
        try:
            out, err = item.call(), None
        except Exception as exc:  # the item failed; recorded as its outcome
            out, err = None, exc
        times.append(time.perf_counter() - t0)
        if err is not None or sum(times) >= min_s or len(times) >= ITEM_MAX_CALLS:
            return out, err, statistics.median(times)


def run_batch(items):
    """Run every item (cheap ones repeatedly, see run_item), with a reference
    pass before each item and after the last.

    Returns (wall seconds, [(output, error, seconds)], raw wall seconds).
    Item seconds are scaled to the reference speed; the wall is their sum.
    """
    results, raw = [], 0.0
    before = reference_s()
    for item in items:
        out, err, secs = run_item(item, ITEM_MIN_S)
        after = reference_s()
        results.append((out, err, secs * scale(before, after)))
        raw += secs
        before = after
    return sum(secs for _, _, secs in results), results, raw


def run_paired(items, tracer):
    """Run each item untraced and then at once traced.

    The machine's speed drifts over tens of seconds; running the two calls
    back to back puts the same drift on both, so their difference is the
    tracing overhead.  Returns (untraced results, traced results).
    """
    plain, traced = [], []
    for i, item in enumerate(items):
        plain.append(run_item(item))
        with tracer:
            tracer.item = i
            traced.append(run_item(item))
            tracer.item = -1
    return plain, traced


def check_batch(items, results, reference=None) -> list:
    """Each item's Outcome; with a reference batch, values must repeat exactly."""
    Outcome = load_workloads().Outcome
    outcomes = []
    for i, (item, (out, err, _)) in enumerate(zip(items, results)):
        if err is not None:
            oc = Outcome(False, detail=f"raised {type(err).__name__}: {err}")
        else:
            try:
                oc = item.check(out)
            except Exception as exc:  # a malformed output fails its check
                oc = Outcome(False, detail=f"check raised {type(exc).__name__}: {exc}")
        if reference is not None and oc.ok and oc.value != reference[i].value:
            oc = Outcome(False, value=oc.value, detail="value differs from the first batch")
        outcomes.append(oc)
    return outcomes


def tail(latencies):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(walls, latencies, outcomes, setup_times) -> dict:
    ref_errs = [oc.ref_err for oc in outcomes if oc.ref_err is not None]
    gaps = [oc.roof_gap for oc in outcomes if oc.roof_gap is not None]
    return {
        "wall_s": statistics.median(walls),
        "item_ms_p50": statistics.median(latencies) * 1e3,
        "item_ms_tail": tail(latencies)[0] * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": sum(not oc.ok for oc in outcomes) / len(outcomes),
        "max_ref_err": max(ref_errs) if ref_errs else None,
        "roof_gap_mean": statistics.fmean(gaps) if gaps else None,
    }


def print_outcomes(items, results, outcomes):
    for item, (_, _, secs), oc in zip(items, results, outcomes):
        fields = [f"{secs * 1e3:10.2f} ms", "ok  " if oc.ok else "FAIL", item.name]
        if isinstance(oc.value, float):
            fields.append(f"value={oc.value:.10g}")
        if oc.ref_err is not None:
            fields.append(f"ref_err={oc.ref_err:.3g}")
        if oc.roof_gap is not None:
            fields.append(f"gap={oc.roof_gap:.3g}")
        if oc.detail:
            fields.append(oc.detail)
        print("item " + "  ".join(fields))


def per_layer(tracer, overhead) -> dict:
    stats = tracer.layer_stats()
    special = {"measures.nonconverged": tracer.nonconverged,
               "trace.overhead_s": overhead, "trace.spans": len(tracer.start)}
    for layer in SELF_S_LAYERS:
        special[f"{layer}.self_s"] = sum(s["self_s"] for key, s in stats.items()
                                         if key.startswith(layer + "."))
    metrics = {}
    for name in per_layer_names():
        key, stat = name.rsplit(".", 1)
        value = special[name] if name in special else stats[key][stat]
        metrics[name] = {"value": value, "unit": "s" if stat.endswith("_s") else "count"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "superposition" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'superposition'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        build_inputs(args.workload, args.seed)
        print(repr(time.perf_counter() - T_START))
        return 0

    setup_times, setup_raw = measure_setup(args.workload, args.seed)
    workloads = load_workloads()
    items = build_inputs(args.workload, args.seed)

    batches = []  # (wall seconds, results, outcomes)
    raw_walls = []
    if args.trace:
        # Per-layer figures are raw seconds: the overhead is a difference of
        # back-to-back calls, and self times are shares of one run.
        tracer = tracing.Tracer()
        plain, traced = run_paired(items, tracer)
        raw_walls.append(sum(secs for _, _, secs in plain))
        batches.append((raw_walls[0], plain, check_batch(items, plain)))
    else:
        t_run = time.perf_counter()
        while True:
            wall, results, raw = run_batch(items)
            raw_walls.append(raw)
            reference = batches[0][2] if batches else None
            batches.append((wall, results, check_batch(items, results, reference)))
            elapsed = time.perf_counter() - t_run
            if elapsed + statistics.median(raw_walls) > args.seconds:
                break
    print_outcomes(items, *batches[0][1:])

    walls = [b[0] for b in batches]
    # One latency per item, its median over the batches, so that the tail's
    # percentile does not depend on how many batches fit in the run.
    latencies = [statistics.median(b[1][i][2] for b in batches) for i in range(len(items))]
    named = [(item.name, oc) for b in batches for item, oc in zip(items, b[2])]
    values = end_to_end(walls, latencies, [oc for _, oc in named], setup_times)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "batches": len(batches), "samples": len(latencies),
        "tail_percentile": tail(latencies)[1], "setup_probes_s": setup_times,
        "item_timings_scaled": not args.trace, "reference_nominal_s": REF_NOMINAL_S,
        "raw_wall_s": raw_walls, "raw_setup_probes_s": setup_raw,
        "known_failures": workloads.KNOWN_FAILURES,
        "fingerprint": fingerprint(),
    }

    if args.trace:
        outcomes = check_batch(items, traced, reference=batches[0][2])
        named += [(item.name, oc) for item, oc in zip(items, outcomes)]
        traced_wall = sum(secs for _, _, secs in traced)
        overhead = traced_wall - walls[0]
        metrics = per_layer(tracer, overhead)
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{args.workload}.npz"
        tracer.save(spans, [item.name for item in items])
        report["trace"] = {
            "untraced_wall_s": walls[0], "traced_wall_s": traced_wall,
            "overhead_s": overhead, "spans_file": str(spans.relative_to(ROOT)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": {k: s for k, s in tracer.layer_stats().items() if s["calls"]},
        }
    else:
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}

    failed = [(name, oc) for name, oc in named if not oc.ok]
    unexpected = sorted({name for name, _ in failed if not workloads.known_failure(name)})
    report["failures"] = sorted({f"{name}: {oc.detail}" for name, oc in failed})
    report["unexpected_failures"] = unexpected
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not unexpected, "attempted": len(named),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
