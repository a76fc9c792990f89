"""Thirteen acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS/FAIL`` line (run with
``pytest -s tests/test_acceptance.py`` to see the checklist) and then
asserts the same verdict.  Where a criterion carries a time bound, the
bound is part of the verdict.
"""

from __future__ import annotations

import itertools
import json
import time

import multitri as mt
from multitri.bijection import count_report
from multitri.complexes import analyze_complex
from multitri.conjectures import run_all_checks
from multitri.cylinder import (
    check_maximal_lifting,
    enumerate_cylinder,
    find_angles,
    relevant_class_candidates,
    star_of_angle,
    unique_spanning_class,
)
from multitri.flips import build_flip_graph, orbit_flip
from multitri.io import grid_lines, render_ascii
from multitri.pipedreams import (
    BUMP,
    CROSS,
    JELBOW,
    STAIRCASE,
    PipeDream,
    chevron_from_staircase,
    chevron_stages,
    is_n_periodic,
    permutation_target,
    staircase_from_triangulation,
    trace_pipes,
)
from multitri.polygon import (
    enumerate_polygon,
    enumerate_shift_invariant,
    expected_edge_count,
    is_shift_invariant,
    polygon_flip,
    star_decomposition,
)
from multitri.surfaces import cyclic_length, cylinder, polygon

from conftest import GOLDEN_CHEVRON, GOLDEN_STAGES, GOLDEN_STAIRCASE

POLYGON_FAMILIES = (
    [(n, 1) for n in range(5, 11)]
    + [(n, 2) for n in range(5, 10)]
    + [(n, 3) for n in range(7, 10)]
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_acceptance_01_polygon_edge_count():
    t0 = time.perf_counter()
    total = 0
    bad = []
    for n, k in POLYGON_FAMILIES:
        want = expected_edge_count(n, k)
        for t in enumerate_polygon(polygon(n, k)):
            total += 1
            if len(t.edges) != want:
                bad.append((n, k, len(t.edges)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    _verdict(
        1, ok,
        f"{total} triangulations over {len(POLYGON_FAMILIES)} (n,k) families, "
        f"{len(bad)} wrong edge counts, {elapsed:.1f}s < 60s")


def test_acceptance_02_polygon_star_count():
    t0 = time.perf_counter()
    total = 0
    bad = []
    for n, k in POLYGON_FAMILIES:
        for t in enumerate_polygon(polygon(n, k)):
            total += 1
            if len(star_decomposition(t)) != n - 2 * k:
                bad.append((n, k))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    _verdict(
        2, ok,
        f"{total} triangulations decompose into n-2k stars, "
        f"{len(bad)} exceptions, {elapsed:.1f}s < 60s")


def test_acceptance_03_staircase_bijection_octagon():
    m, k = 8, 2
    t0 = time.perf_counter()
    target = permutation_target(m, k)

    from_tri = set()
    reduced = matched = 0
    triangulations = enumerate_polygon(polygon(m, k))
    for t in triangulations:
        p = staircase_from_triangulation(t)
        trace = trace_pipes(p)
        if trace.permutation == target:
            matched += 1
        if all(len(cells) == 1 for cells in trace.crossings.values()):
            reduced += 1
        from_tri.add(frozenset(p.tiles.items()))

    # independent direct count: fill every free box of the staircase
    # shape both ways and keep the reduced fillings with the target
    # boundary permutation
    fixed = {}
    boxes = []
    for r in range(m, k, -1):
        fixed[r, r - k] = JELBOW
        for c in range(1, r - k):
            boxes.append((r, c))
    direct = set()
    for bits in itertools.product((BUMP, CROSS), repeat=len(boxes)):
        tiles = dict(fixed)
        tiles.update(zip(boxes, bits))
        trace = trace_pipes(PipeDream(STAIRCASE, tiles, m, k))
        if trace.permutation != target:
            continue
        if any(len(cells) > 1 for cells in trace.crossings.values()):
            continue
        direct.add(frozenset(tiles.items()))

    elapsed = time.perf_counter() - t0
    ok = (
        matched == reduced == len(triangulations) == 84
        and len(direct) == 84
        and direct == from_tri
        and elapsed < 120
    )
    _verdict(
        3, ok,
        f"84 staircases reduced with the target permutation, direct "
        f"enumeration of 2^{len(boxes)} fillings found {len(direct)}, "
        f"sets equal: {direct == from_tri}, {elapsed:.1f}s < 120s")


def test_acceptance_04_cylinder_count_reports():
    t0 = time.perf_counter()
    sizes = {}
    bad = 0
    for n in range(1, 6):
        found = enumerate_cylinder(cylinder(n, 2))
        sizes[n] = len(found)
        want = (n - 1, 2 * (n - 1), 2 * (2 * n - 1))
        bad += sum(1 for t in found if tuple(count_report(t)) != want)
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 600
    _verdict(
        4, ok,
        f"counts {sizes}, every (stars, relevant, total) report on target, "
        f"{bad} exceptions, {elapsed:.1f}s < 600s")


def test_acceptance_05_unique_spanning_class(cylinder_k2_triangulations):
    bad = 0
    total = 0
    for n in range(1, 6):
        for t in cylinder_k2_triangulations[n]:
            total += 1
            spanning = [c for c in t.classes if c.rep.length == 2 * n]
            if len(spanning) != 1 or unique_spanning_class(t) != spanning[0]:
                bad += 1
    _verdict(5, bad == 0,
             f"{total} triangulations, each with exactly one length-2n class, "
             f"{bad} exceptions")


def test_acceptance_06_star_decomposition_theorem():
    checked = held = 0
    for n in range(1, 5):
        for t in enumerate_cylinder(cylinder(n, 2)):
            for angle in find_angles(t):
                if not angle.relevant:
                    continue
                checked += 1
                star = star_of_angle(t, angle)
                if len(star.edges) == 5 and all(
                    t.contains_edge(e) for e in star.edges
                ):
                    held += 1
    _verdict(6, checked == held and checked > 0,
             f"{held}/{checked} eligible angles yield a contained 2-star")


def test_acceptance_07_maximal_lifting():
    addable = violations = 0
    total = 0
    for n in range(1, 5):
        for t in enumerate_cylinder(cylinder(n, 2)):
            total += 1
            report = check_maximal_lifting(t)
            addable += len(report["addable"])
            violations += len(report["violations"])
    _verdict(7, addable == 0 and violations == 0,
             f"{total} triangulations, {addable} addable classes, "
             f"{violations} violations")


def test_acceptance_08_bijection_phi():
    results = []
    ok = True
    for n in range(1, 4):
        cyl = enumerate_cylinder(cylinder(n, 2))
        invariant = enumerate_shift_invariant(polygon(4 * n, 2), n)
        images = set()
        for t in cyl:
            p = mt.phi(t)
            images.add(p.inner.edge_set())
            if mt.phi_inverse(p).class_set() != t.class_set():
                ok = False
        target = {t.edge_set() for t in invariant}
        if not (len(cyl) == len(invariant) == len(images) and images == target):
            ok = False
        results.append(f"n={n}: {len(cyl)}={len(invariant)}")
    _verdict(8, ok, "counts match and phi inverts: " + ", ".join(results))


def _chevron_universe():
    """All shift-3-invariant 12-gon instances plus, for each, one
    symmetry-breaking flip neighbour."""
    invariant = enumerate_shift_invariant(polygon(12, 2), 3)
    witnesses = []
    for t in invariant:
        for e in t.edges:
            if 2 < cyclic_length(e, 12) < 12:
                flipped, _ = polygon_flip(t, e)
                if not is_shift_invariant(flipped, 3):
                    witnesses.append(flipped)
                    break
    return invariant, witnesses


def test_acceptance_09_chevron_goldens_and_crossings(worked_12gon):
    staircase = staircase_from_triangulation(worked_12gon)
    stage_ok = render_ascii(staircase) == GOLDEN_STAIRCASE
    stages = chevron_stages(staircase)
    for name, want in GOLDEN_STAGES.items():
        stage_ok = stage_ok and grid_lines(stages[name]) == want
    chevron = chevron_from_staircase(staircase)
    stage_ok = stage_ok and render_ascii(chevron) == GOLDEN_CHEVRON

    invariant, witnesses = _chevron_universe()
    pairs_ok = 0
    instances = invariant + witnesses
    for t in instances:
        trace = trace_pipes(chevron_from_staircase(staircase_from_triangulation(t)))
        if len(trace.crossings) == 28 and all(
            len(cells) == 1 for cells in trace.crossings.values()
        ):
            pairs_ok += 1
    ok = stage_ok and pairs_ok == len(instances)
    _verdict(9, ok,
             f"goldens bit-exact: {stage_ok}; {pairs_ok}/{len(instances)} "
             "chevrons have every pipe pair crossing exactly once")


def test_acceptance_10_periodicity_equivalence():
    invariant, witnesses = _chevron_universe()
    agree = 0
    instances = invariant + witnesses
    for t in instances:
        chevron = chevron_from_staircase(staircase_from_triangulation(t))
        if is_shift_invariant(t, 3) == is_n_periodic(chevron, 3):
            agree += 1
    _verdict(10, agree == len(instances) and len(invariant) == 36,
             f"shift-invariance matches chevron periodicity on "
             f"{agree}/{len(instances)} instances ({len(invariant)} periodic, "
             f"{len(witnesses)} witnesses)")


def test_acceptance_11_flip_unique_and_involutive():
    flips = 0
    ok = True
    for n in range(1, 5):
        found = enumerate_cylinder(cylinder(n, 2))
        members = {t.class_set() for t in found}
        candidates = relevant_class_candidates(n, 2)
        for t in found:
            for e in t.relevant_classes():
                flipped, f = orbit_flip(t, e)
                back, e2 = orbit_flip(flipped, f)
                if back.class_set() != t.class_set() or e2 != e:
                    ok = False
                base = t.class_set() - {e}
                alternatives = [
                    g for g in candidates
                    if g != e and g not in base and (base | {g}) in members
                ]
                if alternatives != [f]:
                    ok = False
                flips += 1
    _verdict(11, ok and flips > 0,
             f"{flips} flips each unique among all replacement classes "
             "and involutive")


def test_acceptance_12_flip_graph_and_complex():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (2, 3, 4):
        graph = build_flip_graph(n)
        degree = 2 * (n - 1)
        if any(d != degree for d in graph.degrees):
            ok = False
        report = analyze_complex(n, 2)
        if not report.is_pure or set(report.ridge_link_histogram) != {2}:
            ok = False
        details.append(f"n={n}: {len(graph.vertices)} vertices degree {degree}, "
                       f"ridges {report.ridge_link_histogram}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    _verdict(12, ok, "; ".join(details) + f", {elapsed:.1f}s < 600s")


def test_acceptance_13_conjecture_lab():
    crashes = 0
    control_ok = True
    for n in (2, 3):
        bundle = run_all_checks(n, 2)
        if not all(r.get("holds") for r in bundle["reports"].values()):
            control_ok = False
    try:
        artifact = run_all_checks(2, 3)
        json.dumps(artifact)
    except Exception:
        crashes = 1
        artifact = {}
    verdicts = {name: r.get("holds", r.get("skipped"))
                for name, r in artifact.get("reports", {}).items()}
    # conjecture verdicts are reported, never asserted
    _verdict(13, control_ok and crashes == 0,
             f"k=2 controls hold at 100%; k=3 n=2 artifact verdicts "
             f"{verdicts} with {crashes} crashes")
