"""The multitri benchmark: seeded workloads against the public API, timed per module.

    python3 perfbench/run.py --workload flip_walk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout.  Every timed repetition runs in a
fresh interpreter (`perfbench/worker.py`), so set-up cost, peak memory and
the absence of warm caches are per repetition.  Repetitions continue until
`--seconds` have passed, with at least three; set-up alone is timed nine
more times, in workers killed once they are ready.  Times are scaled to the
reference speed of `perfbench/reference.py`, which the workers sample while
they work; the unscaled medians are printed on the line before the result.
With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` repetitions alternate untraced and traced, and it reports the
per-layer metrics taken from the traced ones.  The lines before it give the
environment, the request counts and the error rate.  The exit code is 0
whenever a result is printed, also when an oracle failed (then "correct" is
false).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracing import CALL_COUNTED, COUNTED, REQUEST_KINDS, SPANNED  # noqa: E402

WORKLOADS = ["census", "flip_walk", "query_mix", "lab"]
DEFAULT_SEED = 1
MIN_REPS = 3
SETUPS = 9  # set-up is short, so it is sampled more often than the load
MIN_TRACE_PAIRS = 2
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
            f"loadavg={load}")


@contextmanager
def worker(workload: str, seed: int, deadline: float, spans: Path | None = None):
    """A fresh interpreter running one repetition; killed and reaped on the way out."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before a repetition of {workload}")
    # -S: the host's site-packages and .pth hooks are not part of multitri.
    command = [sys.executable, "-S", str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed)]
    if spans:
        command += ["--spans", str(spans)]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        yield proc
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def measure_setup(workload: str, seed: int, deadline: float) -> tuple[float, float, list[float]]:
    """Time a worker from its start to READY, then kill it.

    Returns the time until the worker's first statement (process creation
    and interpreter start), the time from there on (imports and input
    generation), and the reference samples the worker took just before and
    just after generating its inputs; their time is in neither part.
    """
    start = time.perf_counter()
    with worker(workload, seed, deadline) as proc:
        ready = proc.stdout.readline().split()
        total_s = time.perf_counter() - start
    if not ready or ready[0] != "READY":
        raise BenchError(f"{workload} set-up exited with {proc.returncode}")
    sampling_s, python_s = float(ready[1]), float(ready[2])
    return total_s - sampling_s - python_s, python_s, [float(x) for x in ready[3:]]


def run_rep(workload: str, seed: int, trace: bool, rep: int, deadline: float) -> dict:
    """One timed repetition in a fresh interpreter."""
    spans = ROOT / ".perfbench" / "spans" / f"{workload}-seed{seed}-rep{rep}.jsonl"
    with worker(workload, seed, deadline, spans if trace else None) as proc:
        ready = proc.stdout.readline()
        out, _ = proc.communicate()
    if not ready.startswith("READY") or proc.returncode != 0:
        raise BenchError(f"{workload} repetition {rep} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(reps: list[dict], setups: list[tuple[float, float, list[float]]],
               scaled: bool = True) -> dict:
    """Medians over repetitions; latency percentiles are taken per repetition first.

    With `scaled` every time is scaled to the reference speed (see
    reference.py): a repetition's times by the samples taken while it ran.
    In set-up, imports and input generation are scaled by the median of the
    samples of all set-ups of the run (one set-up is too short to be scaled
    by its own); process creation and interpreter start are not scaled,
    since the kernel does not track them.
    """
    def median(value) -> float:
        return statistics.median(value(r) for r in reps)

    setup_scale = reference.scale([x for *_, xs in setups for x in xs]) if scaled else 1.0

    def factor(r: dict) -> float:
        return r["scale"] if scaled else 1.0

    def latencies(r: dict) -> list[float]:
        return r["scaled_latencies_ms" if scaled else "latencies_ms"]

    return {
        "setup_s": (statistics.median(start + python * setup_scale
                                      for start, python, _ in setups), "s"),
        "wall_s": (median(lambda r: r["wall_s"] * factor(r)), "s"),
        "ops_per_s": (median(lambda r: r["done"] / (r["wall_s"] * factor(r))), "1/s"),
        "p50_ms": (median(lambda r: percentile(latencies(r), 0.50)), "ms"),
        "p95_ms": (median(lambda r: percentile(latencies(r), 0.95)), "ms"),
        "peak_rss_mb": (median(lambda r: r["peak_rss_mb"]), "MB"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-repetition means of the traced counts and self times."""
    def mean(key: str, name: str) -> float:
        return sum(r["trace"][key].get(name, 0) for r in traced) / len(traced)

    metrics = {}
    for module, func in COUNTED:
        metrics[f"{module}.{func}.calls"] = (mean("calls", f"{module}.{func}"), "count")
    for module, func in SPANNED:
        metrics[f"{module}.{func}.self_ms"] = (mean("self_ms", f"{module}.{func}"), "ms")
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = (mean("calls", name), "count")
    roots = [f"request.{kind}" for kind in REQUEST_KINDS]
    for root in roots:
        metrics[f"{root}.ms"] = (mean("total_ms", root), "ms")
    metrics["request.self_ms"] = (sum(mean("self_ms", root) for root in roots), "ms")
    wall_ms = sum(r["wall_s"] * 1e3 for r in traced) / len(traced)
    accounted_ms = sum(sum(r["trace"]["self_ms"].values()) for r in traced) / len(traced)
    metrics["trace.wall_ms"] = (wall_ms, "ms")
    metrics["trace.accounted_pct"] = (100 * accounted_ms / wall_ms, "%")
    traced_wall = statistics.median(r["wall_s"] * r["scale"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] * r["scale"] for r in untraced)
    metrics["trace.overhead_pct"] = (100 * (traced_wall - untraced_wall) / untraced_wall, "%")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    untraced, traced = [], []
    while (len(untraced) < (MIN_TRACE_PAIRS if trace else MIN_REPS)
           or time.monotonic() - start < seconds):
        untraced.append(run_rep(workload, seed, False, len(untraced), deadline))
        if trace:
            traced.append(run_rep(workload, seed, True, len(traced), deadline))
    setups = [] if trace else [measure_setup(workload, seed, deadline) for _ in range(SETUPS)]
    reps = untraced + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    consistent = len({r["fingerprint"] for r in reps}) == 1
    samples = len(untraced[0]["latencies_ms"])
    print(f"{workload} seed={seed} trace={int(trace)} repetitions={len(reps)} "
          f"attempted={attempted} failed={failed} error_rate={failed / max(attempted, 1)} "
          f"latency_samples_per_repetition={samples} "
          f"above_p95_per_repetition={samples - math.ceil(0.95 * samples)} "
          f"replies_identical_across_repetitions={consistent}")
    if not trace:
        raw = end_to_end(untraced, setups, scaled=False)
        print("unscaled " + " ".join(f"{name}={value:.6g}" for name, (value, _) in raw.items())
              + " reference_scale=" + " ".join(f"{r['scale']:.3f}" for r in untraced))
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, setups)
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; 7919 is held out, see perfbench/README.md")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multitri" / "__init__.py").is_file():
        print(f"no multitri source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print(environment(), flush=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        print(f"{name} {json.dumps(result)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
