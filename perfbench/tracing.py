"""In-memory spans around the public multitri functions the benchmark watches.

Each watched function is replaced, in every multitri module that binds it,
by a wrapper that records one span: name, start, end, parent span and
request id.  `surfaces.has_clique` is counted but not spanned: it runs
hundreds of thousands of times per enumeration and a span per call would
swamp what it measures.  Spans stay in memory until `write` at exit.

A span's self time is its duration minus the time covered by its direct
children; a wrapped function's self time therefore includes every callee
that is not itself wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs given a span, in layer order.
SPANNED = [
    ("surfaces", "has_k_plus_1_crossing"),
    ("surfaces", "is_periodic_crossing_free"),
    ("polygon", "enumerate_polygon"),
    ("polygon", "enumerate_shift_invariant"),
    ("polygon", "star_decomposition"),
    ("polygon", "polygon_flip"),
    ("polygon", "validate_polygon_triangulation"),
    ("cylinder", "enumerate_cylinder"),
    ("cylinder", "stars_of"),
    ("cylinder", "validate_cylinder_triangulation"),
    ("bijection", "phi"),
    ("bijection", "count_report"),
    ("pipedreams", "staircase_from_triangulation"),
    ("pipedreams", "chevron_from_staircase"),
    ("pipedreams", "trace_pipes"),
    ("pipedreams", "is_n_periodic"),
    ("flips", "orbit_flip"),
    ("io", "parse_triangulation"),
    ("io", "render_svg"),
    ("conjectures", "stars_containing_angle"),
    ("conjectures", "check_star_decomposition_k"),
    ("conjectures", "check_bijection_k"),
    ("conjectures", "check_counts_k"),
    ("conjectures", "check_translation_lemma"),
    ("complexes", "analyze_complex"),
]

COUNTED = [("surfaces", "has_clique")]

# Functions whose call count is reported besides their self time.
CALL_COUNTED = [
    "polygon.star_decomposition",
    "bijection.phi",
    "flips.orbit_flip",
    "cylinder.stars_of",
    "bijection.count_report",
    "cylinder.validate_cylinder_triangulation",
    "surfaces.is_periodic_crossing_free",
    "surfaces.has_k_plus_1_crossing",
    "conjectures.stars_containing_angle",
]

# Root span kinds, one per request of some workload.
REQUEST_KINDS = ["enumerate", "flip", "render", "count", "validate", "periodic", "report"]


def _rebind(original, replacement) -> int:
    """Point every multitri module binding of `original` at `replacement`."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name != "multitri" and not name.startswith("multitri."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


class Tracer:
    """Span recorder for one worker process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Each span: [name, start, end, parent index or -1, request id].
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._request = -1

    def install(self) -> None:
        """Wrap every watched function of the imported multitri package."""
        for targets, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, func in targets:
                original = getattr(sys.modules[f"multitri.{module}"], func)
                if not _rebind(original, wrap(f"{module}.{func}", original)):
                    raise RuntimeError(f"{module}.{func} is bound nowhere")

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self._request])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def _spanned(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _counted(self, name, original):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    @contextmanager
    def request(self, request_id: int, kind: str):
        """The root span of one request; spans opened inside carry its id."""
        self._request = request_id
        index = self._open(f"request.{kind}")
        try:
            yield
        finally:
            self._close(index)
            self._request = -1

    def summary(self) -> dict:
        """Per-name call counts, self and total milliseconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        total_ms: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_ms[name] += (end - start - inner) * 1e3
            total_ms[name] += (end - start) * 1e3
        calls.update(self.counts)
        return {"calls": dict(calls), "self_ms": dict(self_ms), "total_ms": dict(total_ms)}

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request}) + "\n")

