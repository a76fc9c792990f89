"""The public names of the package, and the standard-library-only imports
of its modules.

Simplifications keep every name in `multitri.__all__`; a name that goes
missing or appears fails here, and the literal below is updated only by a
change that means to alter the public API.
"""

from __future__ import annotations

import ast
import pathlib
import sys

import multitri

PUBLIC_NAMES = [
    "Angle", "BUMP", "CHEVRON", "CROSS", "ComplexReport", "CountReport",
    "CylinderTriangulation", "Edge", "EdgeClass", "EdgeTooLong", "FELBOW",
    "FlipGraph", "JELBOW", "KStar", "LengthPrecondition", "MalformedShape",
    "MultitriError", "NotInTriangulation", "NotPeriodic", "NotRelevant",
    "PeriodicPolygonTriangulation", "PipeDream", "PipePath",
    "PolygonTriangulation", "STAIRCASE", "ShapeMismatch",
    "StructureViolation", "SurfaceDesc", "TooLarge", "TraceResult",
    "all_edges", "analyze_complex", "bijection", "boundary_ports",
    "build_flip_graph", "canonical_star", "cell_edge", "check_bijection_k",
    "check_counts_k", "check_maximal_lifting", "check_star_decomposition_k",
    "check_translation_lemma", "chevron_from_staircase", "chevron_stages",
    "class_of_polygon_edge", "common_bisector", "complex_report_json",
    "complexes", "conjectures", "count_report", "crosses", "cyclic_length",
    "cyclically_ordered", "cylinder", "edge_class_of",
    "edges_from_pipedream", "enumerate_cylinder", "enumerate_polygon",
    "enumerate_shift_invariant", "errors", "expected_class_count",
    "expected_edge_count", "find_angles", "find_multi_representative_stars",
    "find_single_translate_replacement", "flip_graph_dot",
    "flip_graph_json", "flips", "grid_lines", "has_k_plus_1_crossing", "io",
    "is_n_periodic", "is_periodic_crossing_free", "is_reflection_symmetric",
    "is_shift_invariant", "make_star", "minimize_witness", "orbit_flip",
    "orbit_of_class", "parse_triangulation", "permutation_target", "phi",
    "phi_inverse", "pipedream_json", "pipedreams", "polygon",
    "polygon_flip", "relevant_candidates", "relevant_class_candidates",
    "render_ascii", "render_svg", "run_all_checks",
    "serialize_triangulation", "short_classes", "short_edges",
    "staircase_from_triangulation", "star_decomposition", "star_of_angle",
    "stars_containing_angle", "stars_of", "surfaces", "trace_pipes",
    "unique_spanning_class", "validate_cylinder_triangulation",
    "validate_polygon_triangulation", "window_translations",
]


def test_public_names_unchanged():
    assert sorted(multitri.__all__) == PUBLIC_NAMES


def test_modules_import_only_the_standard_library():
    for path in sorted(pathlib.Path(multitri.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"
