"""Command-line frontend; commands raise on failure, and `main` picks the exit code.

Exit codes: 0 success, 1 structural/assertion failure (stderr: the error name and
witness), 2 usage or malformed input (stderr: `error: ...`), 3 enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bijection import _count_law, count_report, phi
from .complexes import analyze_complex, complex_report_json
from .conjectures import run_all_checks
from .cylinder import CylinderTriangulation, enumerate_cylinder
from .errors import MultitriError, StructureViolation, TooLarge
from .flips import build_flip_graph, flip_graph_dot, flip_graph_json, orbit_flip
from .io import (
    parse_triangulation,
    pipedream_json,
    render_ascii,
    render_svg,
    serialize_triangulation,
)
from .pipedreams import (
    chevron_from_staircase,
    is_n_periodic,
    permutation_target,
    staircase_from_triangulation,
    trace_pipes,
)
from .polygon import enumerate_polygon, validate_polygon_triangulation
from .surfaces import Edge, cylinder, edge_class_of, polygon


def _load_input(path: str):
    with open(path) as handle:
        return parse_triangulation(json.load(handle))


def cmd_enumerate(args) -> None:
    build, search = {
        "polygon": (polygon, enumerate_polygon),
        "cylinder": (cylinder, enumerate_cylinder),
    }[args.surface]
    found = search(build(args.n, args.k))
    if args.format == "count":
        text = f"{len(found)}\n"
    else:
        text = json.dumps([serialize_triangulation(t) for t in found]) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _verify_counts(n: int) -> None:
    reports = [count_report(t) for t in enumerate_cylinder(cylinder(n, 2))]
    print(f"{len(reports)} triangulations, every report "
          f"(stars, relevant, total) = {tuple(_count_law(n, 2))}")
    print(json.dumps({
        "suite": "counts", "n": n, "k": 2,
        "triangulations": len(reports), "ok": True,
    }))


def _verify_regularity(n: int) -> None:
    graph = build_flip_graph(n)
    want = 2 * (n - 1)
    bad = [i for i, d in enumerate(graph.degrees) if d != want]
    if bad:
        raise StructureViolation(
            f"vertex {bad[0]} has degree {graph.degrees[bad[0]]}, expected {want}")
    print(f"all degrees = {want}")
    print(json.dumps({
        "suite": "regularity", "n": n, "k": 2,
        "vertices": len(graph.vertices), "degree": want,
        "components": graph.component_count, "ok": True,
    }))


def _verify_pseudomanifold(n: int, k: int) -> None:
    report = analyze_complex(n, k)
    if not (report.is_pure and report.is_weak_pseudomanifold):
        raise StructureViolation(f"complex not pure/pseudomanifold: {report}")
    print("every ridge in 2 facets")
    print(json.dumps({"suite": "pseudomanifold", "ok": True} | complex_report_json(report)))


def _verify_pipedreams(n: int) -> None:
    m = 4 * n
    target, pairs = permutation_target(m, 2), (m - 4) * (m - 5) // 2
    triangulations = enumerate_cylinder(cylinder(n, 2))
    for idx, t in enumerate(triangulations):
        staircase = staircase_from_triangulation(phi(t).inner)
        trace = trace_pipes(staircase)
        if trace.permutation != target:
            raise StructureViolation(f"triangulation {idx}: permutation {trace.permutation}")
        if any(len(cells) > 1 for cells in trace.crossings.values()):
            raise StructureViolation(f"triangulation {idx}: staircase not reduced")
        chevron = chevron_from_staircase(staircase)
        crossings = trace_pipes(chevron).crossings
        if len(crossings) != pairs or any(len(cells) != 1 for cells in crossings.values()):
            raise StructureViolation(
                f"triangulation {idx}: chevron pipes do not cross once each")
        if not is_n_periodic(chevron, n):
            raise StructureViolation(f"triangulation {idx}: chevron not periodic")
    print(f"{len(triangulations)} staircases reduced with the expected permutation; "
          "chevron pipes pairwise cross once")
    print(json.dumps({"suite": "pipedreams", "n": n, "k": 2,
                      "triangulations": len(triangulations), "ok": True}))


def _verify_conjectures(n: int, k: int) -> None:
    bundle = run_all_checks(n, k)
    for name, report in bundle["reports"].items():
        verdict = report.get("skipped") or ("holds" if report.get("holds") else "FAILS")
        print(f"{name}: {verdict}")
    print(json.dumps(bundle))


def cmd_verify(args) -> None:
    if args.suite == "conjectures":
        _verify_conjectures(args.n, args.k)
    elif args.suite == "pseudomanifold":
        _verify_pseudomanifold(args.n, args.k)
    elif args.k != 2:
        raise ValueError(f"suite {args.suite} drives the k=2 theorems; got k={args.k}")
    elif args.suite == "counts":
        _verify_counts(args.n)
    elif args.suite == "regularity":
        _verify_regularity(args.n)
    elif args.n < 2:
        raise ValueError(f"suite pipedreams needs n >= 2, since the 4n-gon needs more than "
                         f"4 vertices for a chevron; got n={args.n}")
    else:
        _verify_pipedreams(args.n)


def cmd_pipedream(args) -> None:
    t = _load_input(args.input)
    if isinstance(t, CylinderTriangulation):
        t = phi(t).inner
    else:
        validate_polygon_triangulation(t)
    dream = staircase_from_triangulation(t)
    if args.shape == "chevron":
        dream = chevron_from_staircase(dream)
    if args.format == "ascii":
        text = render_ascii(dream)
    elif args.format == "svg":
        text = render_svg(dream)
    else:
        text = json.dumps(pipedream_json(dream)) + "\n"
    sys.stdout.write(text)


def cmd_flip(args) -> None:
    t = _load_input(args.input)
    if not isinstance(t, CylinderTriangulation):
        raise ValueError("flip expects a cylinder triangulation")
    try:
        a, b = (int(part) for part in args.edge.split(","))
    except ValueError:
        raise ValueError(f"--edge wants 'a,b' integers, got {args.edge!r}") from None
    e = edge_class_of(Edge(a, b), t.surface.n)
    flipped, f = orbit_flip(t, e)
    sys.stdout.write(json.dumps(serialize_triangulation(flipped)) + "\n")
    print(f"flipped {e.rep.a},{e.rep.b} to {f.rep.a},{f.rep.b}", file=sys.stderr)


def cmd_flipgraph(args) -> None:
    graph = build_flip_graph(args.n)
    if args.format == "dot":
        sys.stdout.write(flip_graph_dot(graph))
    else:
        sys.stdout.write(json.dumps(flip_graph_json(graph)) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multitri",
        description="k-triangulations of polygons and the half-cylinder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all k-triangulations")
    p.add_argument("--surface", choices=["polygon", "cylinder"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["json", "count"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem or conjecture suite")
    p.add_argument(
        "--suite",
        choices=["counts", "regularity", "pseudomanifold", "pipedreams", "conjectures"],
        required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipedream", help="render a triangulation's pipe dream")
    p.add_argument("--input", required=True)
    p.add_argument("--shape", choices=["staircase", "chevron"], default="staircase")
    p.add_argument("--format", choices=["ascii", "svg", "json"], default="ascii")
    p.set_defaults(func=cmd_pipedream)

    p = sub.add_parser("flip", help="orbit-flip one class of a cylinder triangulation")
    p.add_argument("--input", required=True)
    p.add_argument("--edge", required=True, metavar="a,b")
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("flip-graph", help="build the orbit-flip graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_flipgraph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except TooLarge as exc:
        print(f"TooLarge: {exc}", file=sys.stderr)
        return 3
    except MultitriError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
