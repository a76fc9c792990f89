"""JSON schema strictness, renderers, and the command-line frontend."""

from __future__ import annotations

import json
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from multitri import bijection, cli, parse_triangulation, serialize_triangulation
from multitri.cli import main
from multitri.complexes import analyze_complex
from multitri.flips import build_flip_graph
from multitri.cylinder import CylinderTriangulation
from multitri.io import grid_lines, pipedream_json, render_svg
from multitri.pipedreams import permutation_target, staircase_from_triangulation, trace_pipes
from multitri.polygon import PolygonTriangulation

from conftest import GOLDEN_CHEVRON, GOLDEN_STAIRCASE


def test_serialize_parse_roundtrip_polygon(worked_12gon):
    obj = serialize_triangulation(worked_12gon)
    back = parse_triangulation(obj)
    assert isinstance(back, PolygonTriangulation)
    assert back.edges == worked_12gon.edges


def test_serialize_parse_roundtrip_cylinder(worked_c3):
    obj = serialize_triangulation(worked_c3)
    back = parse_triangulation(obj)
    assert isinstance(back, CylinderTriangulation)
    assert back.classes == worked_c3.classes
    # serialization is json-clean
    json.loads(json.dumps(obj))


@pytest.mark.parametrize("mangle, message", [
    (lambda o: o | {"extra": 1}, "unknown fields"),
    (lambda o: {f: v for f, v in o.items() if f != "edges"}, "missing fields"),
    (lambda o: o | {"surface": "torus"}, "surface must be"),
    (lambda o: o | {"n": "3"}, "must be an integer"),
    (lambda o: o | {"k": True}, "must be an integer"),
    (lambda o: o | {"n": 0}, "must be positive"),
    (lambda o: o | {"edges": {"a": 1}}, "must be a list"),
    (lambda o: o | {"edges": [[1, 2, 3]]}, "integer pair"),
    (lambda o: o | {"edges": [[False, 2]]}, "integer pair"),
    (lambda o: o | {"edges": [[5, 2]]}, "a < b"),
    (lambda o: o | {"edges": [[2, 2]]}, "a < b"),
    (lambda o: o | {"edges": o["edges"] + o["edges"][:1]}, "duplicate"),
])
def test_parse_rejections(worked_c3, mangle, message):
    obj = mangle(serialize_triangulation(worked_c3))
    with pytest.raises(ValueError, match=message):
        parse_triangulation(obj)


def test_parse_rejects_noncanonical_cylinder_rep(worked_c3):
    # class reps must start in the fundamental window 0 <= a < n
    obj = serialize_triangulation(worked_c3)
    obj["edges"] = [[4, 7] if pair == [1, 4] else pair for pair in obj["edges"]]
    with pytest.raises(ValueError, match="canonical"):
        parse_triangulation(obj)


def test_parse_rejects_polygon_edge_out_of_range(worked_12gon):
    obj = serialize_triangulation(worked_12gon)
    obj["edges"] = obj["edges"] + [[0, 12]]
    with pytest.raises(ValueError, match="outside vertex range"):
        parse_triangulation(obj)


def test_grid_lines_empty():
    assert grid_lines({}) == []


# The polygons with n <= k among n = 3..8, k = 1..5: every edge is forced,
# so the staircase has no cells.
NO_CELLS = [(n, k) for n in range(3, 9) for k in range(1, 6) if n <= k]


@pytest.mark.parametrize("n,k", NO_CELLS)
def test_cli_pipedream_draws_a_dream_with_no_cells(tmp_path, capsys, n, k):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"surface": "polygon", "n": n, "k": k, "edges": [
        [a, b] for a in range(n) for b in range(a + 1, n)]}))
    assert main(["pipedream", "--input", str(path), "--format", "ascii"]) == 0
    assert capsys.readouterr().out == f"shape=staircase n={n} k={k} row0=0 col0=0\n"
    assert main(["pipedream", "--input", str(path), "--format", "svg"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    assert (root.get("width"), root.get("height")) == ("0", "0")
    assert len(root) == 0


def test_svg_well_formed(worked_12gon):
    text = render_svg(staircase_from_triangulation(worked_12gon))
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    rects = root.findall(f"{ns}rect")
    paths = root.findall(f"{ns}path")
    assert len(rects) == 55
    assert paths and all(p.get("d").startswith("M ") for p in paths)


def test_pipedream_json_tiles(worked_12gon):
    obj = pipedream_json(staircase_from_triangulation(worked_12gon))
    assert obj["shape"] == "staircase" and obj["n"] == 12 and obj["k"] == 2
    assert len(obj["tiles"]) == 55
    assert obj["tiles"][0] == [12, 1, "bump"]
    json.loads(json.dumps(obj))


# --- CLI ---


def test_cli_enumerate_count(capsys):
    assert main(["enumerate", "--surface", "polygon", "--n", "8", "--k", "2",
                 "--format", "count"]) == 0
    assert capsys.readouterr().out == "84\n"
    assert main(["enumerate", "--surface", "cylinder", "--n", "2", "--k", "2",
                 "--format", "count"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_cli_enumerate_json_roundtrips(capsys):
    assert main(["enumerate", "--surface", "cylinder", "--n", "2", "--k", "2"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert len(found) == 4
    for obj in found:
        assert isinstance(parse_triangulation(obj), CylinderTriangulation)


def test_cli_enumerate_out_file(tmp_path, capsys):
    target = tmp_path / "five.json"
    assert main(["enumerate", "--surface", "polygon", "--n", "5", "--k", "1",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert len(json.loads(target.read_text())) == 5


def test_cli_enumerate_budget(capsys):
    assert main(["enumerate", "--surface", "polygon", "--n", "40", "--k", "2"]) == 3
    assert "TooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [
    "counts", "regularity", "pseudomanifold", "pipedreams", "conjectures"])
def test_cli_verify_suites_pass(capsys, suite):
    assert main(["verify", "--suite", suite, "--n", "2", "--k", "2"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out.strip().splitlines()[-1])
    assert report.get("ok", True) or "reports" in report


def test_cli_verify_k_gate(capsys):
    assert main(["verify", "--suite", "counts", "--n", "2", "--k", "3"]) == 2
    assert "k=2" in capsys.readouterr().err


def _write_input(tmp_path, t):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(serialize_triangulation(t)))
    return str(path)


def test_cli_pipedream_golden_ascii(tmp_path, capsys, worked_12gon):
    path = _write_input(tmp_path, worked_12gon)
    assert main(["pipedream", "--input", path]) == 0
    assert capsys.readouterr().out == GOLDEN_STAIRCASE
    assert main(["pipedream", "--input", path, "--shape", "chevron"]) == 0
    assert capsys.readouterr().out == GOLDEN_CHEVRON


def test_cli_pipedream_from_cylinder(tmp_path, capsys, worked_c3):
    # cylinder input goes through the bijection first
    path = _write_input(tmp_path, worked_c3)
    assert main(["pipedream", "--input", path]) == 0
    assert capsys.readouterr().out == GOLDEN_STAIRCASE


def test_cli_pipedream_svg_and_json(tmp_path, capsys, worked_12gon):
    path = _write_input(tmp_path, worked_12gon)
    assert main(["pipedream", "--input", path, "--format", "svg"]) == 0
    ET.fromstring(capsys.readouterr().out)
    assert main(["pipedream", "--input", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["shape"] == "staircase"


def test_cli_pipedream_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"surface": "polygon"}')
    assert main(["pipedream", "--input", str(path)]) == 2
    assert "missing fields" in capsys.readouterr().err


@pytest.mark.parametrize("obj, message", [
    ({"surface": "polygon", "n": 9, "k": 2, "edges": [[0, 4]]}, "edges of length <= 2 missing"),
    ({"surface": "polygon", "n": 2000, "k": 1, "edges": []}, "edges of length <= 1 missing"),
    # The first 2-triangulation of the 9-gon with [0,3] swapped for [2,6]:
    # every short edge and the right edge count, but a 3-crossing.
    ({"surface": "polygon", "n": 9, "k": 2, "edges": [
        [0, 1], [0, 2], [0, 4], [0, 5], [0, 6], [0, 7], [0, 8], [1, 2], [1, 3],
        [1, 4], [1, 5], [1, 6], [1, 7], [1, 8], [2, 3], [2, 4], [2, 6], [3, 4],
        [3, 5], [4, 5], [4, 6], [5, 6], [5, 7], [6, 7], [6, 8], [7, 8]]},
     "contains a 3-crossing"),
], ids=["obj0", "obj1", "obj2"])
def test_cli_pipedream_rejects_invalid_polygon(tmp_path, capsys, obj, message):
    """Polygon input is validated before rendering, as cylinder input is
    by the bijection; the 2000-gon used to render for seconds and exit 0."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main(["pipedream", "--input", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"StructureViolation: {message}" in captured.err


def test_cli_missing_edge_message_is_bounded(tmp_path, capsys):
    """The message lists the first few missing short edges and counts the
    rest, so it stays small whatever the size of the polygon."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"surface": "polygon", "n": 2000, "k": 1, "edges": []}))
    assert main(["pipedream", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "edges of length <= 1 missing: [[0,1], [0,1999], [1,2], [2,3], [3,4]] and 1995 more" in err
    assert len(err.encode()) < 1024


def test_cli_missing_edge_check_is_bounded_by_input_size(tmp_path, capsys):
    """A 52-byte input naming a million-gon is rejected without building its
    n*k short edges."""
    path = tmp_path / "input.json"
    path.write_text('{"surface":"polygon","n":1000000,"k":1,"edges":[]}')
    start = time.perf_counter()
    assert main(["pipedream", "--input", str(path)]) == 1
    assert time.perf_counter() - start < 2
    assert "and 999995 more" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--surface", "cylinder", "--n", "2", "--k", "8"],
    ["verify", "--suite", "pseudomanifold", "--n", "2", "--k", "8"]])
def test_cli_cylinder_beyond_the_budget_table_is_refused_at_once(capsys, argv):
    """For a k outside the table only C_1, which has no relevant class, is
    admitted; C_2 at k=8 has 256 triangulations and is refused unsearched."""
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 2
    assert "budget is n <= 1 for k=8, got n=2" in capsys.readouterr().err


def test_cli_lab_admits_c1_beyond_the_budget_table(capsys):
    assert main(["verify", "--suite", "conjectures", "--n", "1", "--k", "8"]) == 0
    bundle = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert bundle["reports"]["counts"]["triangulations"] == 1
    assert bundle["reports"]["bijection"]["holds"]


def test_cli_lab_skips_the_bijection_of_c1_at_k1(capsys):
    """C_1 at k=1 wraps onto a 2-gon, so there is no polygon side to compare."""
    assert main(["verify", "--suite", "conjectures", "--n", "1", "--k", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "bijection: C_1 at k=1 wraps onto a 2-gon" in out
    reports = json.loads(out[-1])["reports"]
    assert reports["bijection"]["skipped"] == "C_1 at k=1 wraps onto a 2-gon"
    assert reports["counts"]["holds"] and reports["star_decomposition"]["holds"]


def test_cli_flip(tmp_path, capsys, t_left):
    path = _write_input(tmp_path, t_left)
    assert main(["flip", "--input", path, "--edge", "1,6"]) == 0
    captured = capsys.readouterr()
    flipped = parse_triangulation(json.loads(captured.out))
    reps = {(c.rep.a, c.rep.b) for c in flipped.relevant_classes()}
    assert reps == {(0, 3), (0, 4), (0, 6), (1, 4)}
    assert "flipped 1,6 to 0,4" in captured.err


def test_cli_flip_rejects_absent_class(tmp_path, capsys, t_left):
    path = _write_input(tmp_path, t_left)
    assert main(["flip", "--input", path, "--edge", "0,4"]) == 1
    assert "NotInTriangulation" in capsys.readouterr().err


def test_cli_flip_bad_edge_syntax(tmp_path, capsys, t_left):
    path = _write_input(tmp_path, t_left)
    assert main(["flip", "--input", path, "--edge", "0;4"]) == 2
    assert "a,b" in capsys.readouterr().err


def test_cli_flip_graph_formats(capsys):
    assert main(["flip-graph", "--n", "2"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph flips {") and dot.rstrip().endswith("}")
    assert main(["flip-graph", "--n", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["vertex_count"] == 4 and obj["component_count"] == 1


def test_cli_flip_graph_budget(capsys):
    assert main(["flip-graph", "--n", "6"]) == 3
    assert "TooLarge" in capsys.readouterr().err


def test_cli_usage_errors(tmp_path, capsys, worked_12gon):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    polygon_path = tmp_path / "polygon.json"
    polygon_path.write_text(json.dumps(serialize_triangulation(worked_12gon)))
    array_path = tmp_path / "array.json"
    array_path.write_text("[]")
    for argv, message in [
        (["flip", "--input", str(polygon_path), "--edge", "0,3"],
         "flip expects a cylinder triangulation"),
        (["pipedream", "--input", str(array_path)], "triangulation JSON must be an object"),
        (["enumerate", "--surface", "cylinder", "--n", "0", "--k", "2"], "need n >= 1 and k >= 1"),
        (["enumerate", "--surface", "polygon", "--n", "6", "--k", "0"], "need n >= 1 and k >= 1"),
        (["enumerate", "--surface", "polygon", "--n", "2", "--k", "1"],
         "polygon needs at least 3 vertices"),
    ]:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err


def _break_regularity(monkeypatch):
    graph = build_flip_graph(2)
    monkeypatch.setattr(cli, "build_flip_graph", lambda n: replace(graph, degrees=(2, 2, 1, 2)))
    return "vertex 2 has degree 1, expected 2"


def _break_pseudomanifold(monkeypatch):
    report = replace(analyze_complex(2, 2), is_weak_pseudomanifold=False)
    monkeypatch.setattr(cli, "analyze_complex", lambda n, k: report)
    return f"complex not pure/pseudomanifold: {report}"


def _break_permutation(monkeypatch):
    monkeypatch.setattr(cli, "permutation_target", lambda m, k: [])
    return f"triangulation 0: permutation {permutation_target(8, 2)}"


def _break_trace(shape, crossings):
    def trace(dream):
        result = trace_pipes(dream)
        return replace(result, crossings=crossings(result)) if dream.shape == shape else result
    return trace


def _break_staircase(monkeypatch):
    doubled = _break_trace("staircase", lambda r: r.crossings | {(0, 1): ((1, 1), (2, 2))})
    monkeypatch.setattr(cli, "trace_pipes", doubled)
    return "triangulation 0: staircase not reduced"


def _break_chevron(monkeypatch):
    monkeypatch.setattr(cli, "trace_pipes", _break_trace("chevron", lambda r: {}))
    return "triangulation 0: chevron pipes do not cross once each"


def _break_periodicity(monkeypatch):
    monkeypatch.setattr(cli, "is_n_periodic", lambda dream, n: False)
    return "triangulation 0: chevron not periodic"


@pytest.mark.parametrize("suite,breaker", [
    ("regularity", _break_regularity),
    ("pseudomanifold", _break_pseudomanifold),
    ("pipedreams", _break_permutation),
    ("pipedreams", _break_staircase),
    ("pipedreams", _break_chevron),
    ("pipedreams", _break_periodicity),
])
def test_cli_theorem_suite_failures_exit_1_with_the_error_name(
        capsys, monkeypatch, suite, breaker):
    witness = breaker(monkeypatch)
    assert main(["verify", "--suite", suite, "--n", "2", "--k", "2"]) == 1
    assert capsys.readouterr() == ("", f"StructureViolation: {witness}\n")


@pytest.mark.parametrize("argv,message", [
    (["--suite", "counts", "--n", "2", "--k", "3"],
     "suite counts drives the k=2 theorems; got k=3"),
    (["--suite", "pipedreams", "--n", "1", "--k", "2"],
     "suite pipedreams needs n >= 2, since the 4n-gon needs more than 4 vertices "
     "for a chevron; got n=1"),
])
def test_cli_verify_usage_gates_print_error(capsys, argv, message):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["ascii", "svg", "json"])
def test_cli_pipedream_refuses_c1_at_k1_before_the_tables(tmp_path, capsys, monkeypatch, fmt):
    """The one triangulation of C_1 at k=1 wraps onto a 2-gon, which has no
    pipe dream; `phi` says so before it builds a table."""
    def refuse(*args):
        raise AssertionError("tables built for C_1 at k=1")

    monkeypatch.setattr(bijection, "_wrap_table", refuse)
    path = tmp_path / "c1.json"
    path.write_text('{"surface": "cylinder", "n": 1, "k": 1, "edges": [[0, 1]]}')
    assert main(["pipedream", "--input", str(path), "--format", fmt]) == 2
    assert capsys.readouterr() == ("", "error: C_1 at k=1 wraps onto a 2-gon\n")
