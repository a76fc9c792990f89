"""One timed repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload flip_walk --seed 1 [--spans FILE]

The worker builds its inputs from the seed, prints READY, runs the
workload's fixed load as a closed loop with one client, checks every reply
against an oracle, and prints one JSON line with its measurements.  Around
its input generation and every 0.1 s of the load it times the reference
kernel of `reference.py`, so that its times can be scaled to the reference
speed.  With --spans it traces the timed phase and writes the spans to FILE
at exit.  `perfbench/run.py` starts it, times its set-up from the outside
and aggregates the repetitions.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # imports and input generation are timed from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import multitri as mt  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

if not Path(mt.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"multitri imported from {mt.__file__}, not from {SRC}")


# ---------------------------------------------------------------- oracles
# Closed forms computed here, independently of the library.

def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def polygon_count(n: int, k: int) -> int:
    """k-triangulations of the n-gon: the Hankel determinant det[C_{n-i-j}]."""
    rows = [[Fraction(catalan(n - i - j)) for j in range(1, k + 1)] for i in range(1, k + 1)]
    det = Fraction(1)
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c])
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, k):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return int(det)


def cylinder_count(n: int, k: int) -> int:
    """k-triangulations of the half-cylinder C_n: C(2n-2, n-1)^k."""
    return math.comb(2 * n - 2, n - 1) ** k


def count_law(n: int, k: int = 2) -> tuple[int, int, int]:
    """(stars, relevant classes, classes) of every k-triangulation of C_n."""
    return (n - 1, k * (n - 1), k * (2 * n - 1))


# ---------------------------------------------------------------- client

GAUGE_INTERVAL_S = 0.1  # time between two reference samples during the load
SETUP_SAMPLES = 3  # reference samples just before and just after set-up


class Client:
    """The single closed-loop client: times each request and tallies verdicts.

    Requests are timed on the gauge's clock, which leaves out the reference
    samples taken while they run; each is scaled to the reference speed by
    the samples taken around it (see reference.py).
    """

    def __init__(self, tracer: Tracer | None, gauge: reference.Gauge):
        self.tracer = tracer
        self.gauge = gauge
        self.windows: list[tuple[float, float]] = []
        self.attempted = self.failed = self.done = 0

    @property
    def latencies_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end in self.windows]

    def scaled_latencies_ms(self) -> list[float]:
        return [(end - start) * 1e3 * self.gauge.scale(start, end) for start, end in self.windows]

    def call(self, kind: str, fn, *args):
        """Run one request; returns (True, result) or (False, None) if it raised."""
        span = self.tracer.request(len(self.windows), kind) if self.tracer else nullcontext()
        start = self.gauge.clock()
        try:
            with span:
                result = fn(*args)
        except Exception as exc:  # a failed request is counted, not fatal
            self.windows.append((start, self.gauge.clock()))
            print(f"request {kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return False, None
        self.windows.append((start, self.gauge.clock()))
        return True, result

    def settle(self, ok: bool, ops: int = 1, what: str = "") -> None:
        """Record the verdict on `ops` operations of the last request."""
        self.attempted += ops
        if ok:
            self.done += ops
        else:
            self.failed += ops
            print(f"wrong result: {what}", file=sys.stderr)


# ---------------------------------------------------------------- census

CENSUS = [
    ("polygon", 10, 1),
    ("polygon", 9, 2),
    ("polygon", 11, 3),
    ("cylinder", 4, 2),
    ("cylinder", 3, 3),
    ("cylinder", 6, 1),
    ("shift_invariant", 3, 2),  # (n, k): the 2kn-gon at k, invariant under rotation by n
]


def census_setup(seed: int):
    return list(CENSUS)


def _census_ok(kind: str, n: int, k: int, found) -> bool:
    if kind == "polygon":
        expected, size = polygon_count(n, k), k * (2 * n - 2 * k - 1)
        sets = [t.edges for t in found]
    elif kind == "cylinder":
        expected, size = cylinder_count(n, k), k * (2 * n - 1)
        sets = [t.classes for t in found]
    else:
        m = 2 * k * n
        expected, size = cylinder_count(n, k), k * (2 * m - 2 * k - 1)
        sets = [t.edges for t in found]
        for edges in sets:
            shifted = {tuple(sorted(((e.a + n) % m, (e.b + n) % m))) for e in edges}
            if shifted != {(e.a, e.b) for e in edges}:
                return False
    return (len(found) == expected and len(set(sets)) == expected
            and all(len(s) == size for s in sets))


def census_run(instances, client: Client) -> str:
    counts = []
    for kind, n, k in instances:
        if kind == "polygon":
            ok, found = client.call("enumerate", mt.enumerate_polygon, mt.polygon(n, k))
            expected = polygon_count(n, k)
        elif kind == "cylinder":
            ok, found = client.call("enumerate", mt.enumerate_cylinder, mt.cylinder(n, k))
            expected = cylinder_count(n, k)
        else:
            ok, found = client.call(
                "enumerate", mt.enumerate_shift_invariant, mt.polygon(2 * k * n, k), n)
            expected = cylinder_count(n, k)
        ok = ok and _census_ok(kind, n, k, found)
        client.settle(ok, expected, f"{kind} n={n} k={k}")
        counts.append(len(found) if found is not None else -1)
    return json.dumps(counts)


# ---------------------------------------------------------------- flip_walk

FLIP_REQUESTS = {3: 150, 4: 50}  # requests per repetition on C_3 and C_4, k=2


def flip_walk_setup(seed: int):
    pools = {n: mt.enumerate_cylinder(mt.cylinder(n, 2)) for n in FLIP_REQUESTS}
    members = {n: {t.class_set() for t in pool} for n, pool in pools.items()}
    rng = random.Random(f"flip_walk:{seed}")
    starts = {n: rng.choice(pool) for n, pool in pools.items()}
    schedule = [n for n, count in FLIP_REQUESTS.items() for _ in range(count)]
    rng.shuffle(schedule)
    return members, starts, schedule, f"flip_walk:{seed}:classes"


def flip_walk_run(state, client: Client) -> str:
    members, starts, schedule, class_seed = state
    rng = random.Random(class_seed)
    current = dict(starts)
    trail = hashlib.sha256()
    for n in schedule:
        before = current[n]
        removed = rng.choice(before.relevant_classes())
        ok, reply = client.call("flip", mt.orbit_flip, before, removed)
        if ok:
            after, added = reply
            old, new = before.class_set(), after.class_set()
            ok = new in members[n] and old - new == {removed} and new - old == {added}
        client.settle(ok, 1, f"orbit_flip on C_{n} removing {removed}")
        if ok:
            current[n] = after
            trail.update(f"{n}:{added!r};".encode())
    return trail.hexdigest()


# ---------------------------------------------------------------- query_mix

QUERY_KINDS = {"render": 150, "count": 150, "validate": 150, "periodic": 150}
QUERY_CYLINDERS = (3, 4)
QUERY_POLYGON = (9, 2)


def _chevron(t):
    return mt.chevron_from_staircase(mt.staircase_from_triangulation(mt.phi(t).inner))


def render_request(text: str):
    t = mt.parse_triangulation(json.loads(text))
    chevron = _chevron(t)
    return chevron, mt.trace_pipes(chevron), mt.render_svg(chevron)


def count_request(text: str):
    return mt.count_report(mt.parse_triangulation(json.loads(text)))


def validate_request(text: str):
    t = mt.parse_triangulation(json.loads(text))
    if isinstance(t, mt.CylinderTriangulation):
        mt.validate_cylinder_triangulation(t)
    else:
        mt.validate_polygon_triangulation(t)


def periodic_request(text: str):
    t = mt.parse_triangulation(json.loads(text))
    return mt.is_n_periodic(_chevron(t), t.surface.n)


QUERY_HANDLERS = {
    "render": render_request,
    "count": count_request,
    "validate": validate_request,
    "periodic": periodic_request,
}


def query_mix_setup(seed: int):
    pools = {n: mt.enumerate_cylinder(mt.cylinder(n, 2)) for n in QUERY_CYLINDERS}
    pools["polygon"] = mt.enumerate_polygon(mt.polygon(*QUERY_POLYGON))
    rng = random.Random(f"query_mix:{seed}")
    requests = []
    for kind, count in QUERY_KINDS.items():
        sources = list(QUERY_CYLINDERS) + (["polygon"] if kind == "validate" else [])
        for i in range(count):
            source = sources[i % len(sources)]
            text = json.dumps(mt.serialize_triangulation(rng.choice(pools[source])))
            requests.append((kind, source, text))
    rng.shuffle(requests)
    return requests


def _render_ok(reply, n: int) -> tuple[bool, str]:
    chevron, trace, svg = reply
    pipes = chevron.m - 4
    ok = (chevron.m == 4 * n and len(trace.paths) == pipes
          and len(trace.crossings) == math.comb(pipes, 2)
          and all(len(cells) == 1 for cells in trace.crossings.values())
          and svg.count("<rect ") == len(chevron.tiles))
    return ok, svg


def query_mix_run(requests, client: Client) -> str:
    digest = hashlib.sha256()
    for kind, source, text in requests:
        ok, reply = client.call(kind, QUERY_HANDLERS[kind], text)
        if ok and kind == "render":
            ok, svg = _render_ok(reply, source)
            digest.update(svg.encode())
        elif ok and kind == "count":
            ok = tuple(reply) == count_law(source)
        elif ok and kind == "periodic":
            ok = reply is True
        client.settle(ok, 1, f"{kind} on {source}")
    return digest.hexdigest()


# ---------------------------------------------------------------- lab

LAB = [("run_all_checks", 2, 3), ("run_all_checks", 2, 2), ("analyze_complex", 4, 2)]


def lab_setup(seed: int):
    return list(LAB)


def _bundle_ok(bundle: dict, n: int, k: int) -> bool:
    reports = bundle["reports"]
    count = cylinder_count(n, k)
    ok = (reports["counts"]["triangulations"] == count
          and reports["bijection"]["cylinder_count"] == count
          and reports["bijection"]["periodic_polygon_count"] == count)
    if k == 2:  # controls inside proved territory must hold
        ok = ok and all(report["holds"] for report in reports.values())
    return ok


def _complex_ok(report, n: int, k: int) -> bool:
    facets, dimension = cylinder_count(n, k), k * (n - 1)
    return (report.facet_count == facets and report.facet_dimension == dimension
            and report.is_pure and report.is_weak_pseudomanifold
            and report.ridge_link_histogram == {2: facets * dimension // 2})


def lab_run(jobs, client: Client) -> str:
    verdicts = []
    for name, n, k in jobs:
        ok, reply = client.call("report", getattr(mt, name), n, k)
        if ok and name == "run_all_checks":
            text = json.dumps(reply, sort_keys=True)
            ok = _bundle_ok(json.loads(text), n, k)
            verdicts.append({key: r.get("holds") for key, r in reply["reports"].items()})
        elif ok:
            ok = _complex_ok(reply, n, k)
            verdicts.append(mt.complex_report_json(reply))
        client.settle(ok, 1, f"{name}({n}, {k})")
    return json.dumps(verdicts, sort_keys=True)


WORKLOADS = {
    "census": (census_setup, census_run),
    "flip_walk": (flip_walk_setup, flip_walk_run),
    "query_mix": (query_mix_setup, query_mix_run),
    "lab": (lab_setup, lab_run),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path, help="trace, writing the spans here at exit")
    args = parser.parse_args(argv)

    setup, run = WORKLOADS[args.workload]
    start = time.perf_counter()
    samples = [reference.sample() for _ in range(SETUP_SAMPLES)]
    sampling_s = time.perf_counter() - start
    state = setup(args.seed)
    start = time.perf_counter()
    samples += [reference.sample() for _ in range(SETUP_SAMPLES)]
    end = time.perf_counter()
    sampling_s += end - start
    # The parent times set-up from outside.  It subtracts the sampling time
    # and scales the imports and input generation, which are interpreter work.
    print("READY", sampling_s, end - STARTED - sampling_s, *samples, flush=True)

    gauge = reference.Gauge(GAUGE_INTERVAL_S)
    tracer = Tracer(gauge.clock) if args.spans else None
    if tracer:
        tracer.install()
    client = Client(tracer, gauge)
    with gauge:
        start = gauge.clock()
        fingerprint = run(state, client)
        wall_s = gauge.clock() - start
    latencies_ms, scaled_ms = client.latencies_ms, client.scaled_latencies_ms()

    result = {
        "wall_s": wall_s,
        "attempted": client.attempted,
        "failed": client.failed,
        "done": client.done,
        "latencies_ms": latencies_ms,
        "scaled_latencies_ms": scaled_ms,
        "scale": sum(scaled_ms) / sum(latencies_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprint": fingerprint,
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
