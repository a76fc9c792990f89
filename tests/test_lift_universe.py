"""The cached crossing universe against a per-call windowed oracle.

`windowed_crossing_free` is the straightforward construction: lift every
class to translates in [-radius, radius], build the crossing graph of the
long edges and look for a k-clique around each representative.  With a
radius of 2k+1 and with double that, it must agree with
`is_periodic_crossing_free`, which shows the window is wide enough.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from conftest import SHIFT_INVARIANT_COUNTS
from multitri import (
    CylinderTriangulation,
    Edge,
    EdgeClass,
    EdgeTooLong,
    StructureViolation,
    check_maximal_lifting,
    check_translation_lemma,
    cylinder,
    edge_class_of,
    enumerate_cylinder,
    enumerate_polygon,
    enumerate_shift_invariant,
    find_single_translate_replacement,
    is_periodic_crossing_free,
    polygon,
    relevant_class_candidates,
    short_classes,
    validate_cylinder_triangulation,
)
from multitri.polygon import ENUMERATION_BUDGET as POLYGON_BUDGET
from multitri.surfaces import _CACHE_SIZE, cover_crosses, has_clique, lift_universe


def windowed_crossing_free(classes, k: int, n: int, radius: int) -> bool:
    """Oracle: is the lift, truncated to translates within `radius`, free of
    (k+1)-crossings through a representative?"""
    window = sorted({c.translate(t) for c in classes for t in range(-radius, radius + 1)})
    longs = [e for e in window if e.length > k]
    adj = [0] * len(longs)
    for i, e in enumerate(longs):
        for j in range(i + 1, len(longs)):
            if cover_crosses(e, longs[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return not any(
        0 <= e.a < n and has_clique(adj, k, within=adj[i]) for i, e in enumerate(longs))


def one_class_neighbours(t: CylinderTriangulation):
    """t itself, t plus each absent relevant class (in candidate order), and
    t minus each of its classes."""
    n, k = t.surface.n, t.surface.k
    classes = t.class_set()
    yield t
    for c in relevant_class_candidates(n, k):
        if c not in classes:
            yield CylinderTriangulation(t.surface, tuple(sorted(classes | {c})))
    for c in t.classes:
        yield CylinderTriangulation(t.surface, tuple(sorted(classes - {c})))


DIFFERENTIAL_SIZES = [(n, 2) for n in (1, 2, 3)] + [(n, 3) for n in (1, 2)] + [
    (n, 1) for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("n,k", DIFFERENTIAL_SIZES)
def test_crossing_free_matches_windowed_oracle(n, k):
    radius = 2 * k + 1
    seen = {True: 0, False: 0}
    for t in enumerate_cylinder(cylinder(n, k)):
        for probe in one_class_neighbours(t):
            got = is_periodic_crossing_free(probe.classes, k, n)
            assert got == windowed_crossing_free(probe.classes, k, n, radius), probe
            assert got == windowed_crossing_free(probe.classes, k, n, 2 * radius), probe
            seen[got] += 1
    assert seen[True] > 0
    assert seen[False] > 0 or n == 1


def test_class_longer_than_kn_raises():
    too_long = EdgeClass(Edge(0, 7), 3)
    with pytest.raises(EdgeTooLong):
        is_periodic_crossing_free([too_long], 2, 3)
    with pytest.raises(EdgeTooLong):
        lift_universe(3, 2).indices([edge_class_of(Edge(1, 4), 3), too_long])


def test_class_of_another_period_raises():
    with pytest.raises(StructureViolation, match="period 4, surface has 3"):
        is_periodic_crossing_free([edge_class_of(Edge(0, 4), 4)], 2, 3)


def test_universe_cache_is_bounded():
    try:
        for n in range(1, _CACHE_SIZE + 4):
            lift_universe(n, 1)
            info = lift_universe.cache_info()
            assert info.maxsize == _CACHE_SIZE
            assert info.currsize <= _CACHE_SIZE
    finally:
        lift_universe.cache_clear()


def test_universe_bit_order_is_edge_order():
    u = lift_universe(3, 2)
    assert u.edges == sorted(u.edges)
    assert lift_universe(3, 2) is u
    for i, c in enumerate(u.classes):
        members = [u.edges[p] for p in range(len(u.edges)) if u.translates[i] >> p & 1]
        assert members == [c.translate(t) for t in range(-2, 3)]
        assert u.through_rep[i] == u.adj[u.edges.index(c.rep)]


def _window_reads() -> list:
    """The lab's translation reads at C_2 and C_3 and three enumerations,
    on universes built afresh."""
    lift_universe.cache_clear()
    reads = [check_translation_lemma(n, 2) for n in (2, 3)]
    for n, k in ((3, 2), (4, 2), (3, 3)):
        reads.append(enumerate_cylinder(cylinder(n, k)))
    for n in (2, 3):
        for t in enumerate_cylinder(cylinder(n, 2)):
            for extra in relevant_class_candidates(n, 2):
                if extra not in t.class_set():
                    classes = list(t.classes) + [extra]
                    reads.append([find_single_translate_replacement(classes, c, n, 2)
                                  for c in classes if c.is_relevant(2)])
    return reads


def test_outputs_do_not_depend_on_the_window(monkeypatch):
    """A wider window, [-(2k+1), 2k+1], gives the same translation reports,
    enumerations and replacement triples at every (extended set, relevant
    class) pair of C_2 and C_3.  `multitri.cylinder` is the surface
    constructor, so the module is reached through `sys.modules`."""
    narrow = _window_reads()
    wide = lambda k: range(-(2 * k + 1), 2 * k + 2)
    for module in ("multitri.surfaces", "multitri.cylinder"):
        monkeypatch.setattr(sys.modules[module], "window_translations", wide)
    try:
        assert _window_reads() == narrow
        assert len(lift_universe(4, 2).edges) == 264  # the wide window took hold
    finally:
        lift_universe.cache_clear()


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


# sha256 of the JSON list of class representatives of every triangulation,
# in output order, for every cylinder instance within the enumeration
# budget; (6, 1), (3, 2), (4, 2), (2, 3) and (3, 3) were frozen from the
# per-call windowed implementation, the others at the [-(2k+1), 2k+1] window.
ENUMERATION_DIGESTS = {
    (1, 1): (1, "84ff3ba1744224ede8e0ecf1e8cdd3029c0ff8000c319d78ca0d7fceed183155"),
    (2, 1): (2, "6e4935b66c56cafc554780270b76329e61f4d913f5e8cd8a520bded87d3d3680"),
    (3, 1): (6, "be882ec872ffff2f8b7704a6f3cc29aa0e1512f36dea5125453a5cf182d21b81"),
    (4, 1): (20, "aaf9e0759843a8575054e52a21b401ab9811ad3a4e1b14a7aa8e8d233be58c7b"),
    (5, 1): (70, "963914f6397b58953191f2327cfa18daccdc0f6a3f4f141f77ff7e98d9e28391"),
    (6, 1): (252, "d8a89fcba58bab6dd7e56ab805ed0ca97ded9d3a71ff3ad6cc9200d0f75db70e"),
    (1, 2): (1, "fc98f8639876b4f83e2e8104580965edf55e202377e2cdbdb4987feea4849af2"),
    (2, 2): (4, "43e827e459f3d479001dc7d16f8cac6a791a9b657891f1dfff5eaec8f83a9bdf"),
    (3, 2): (36, "7c6df75b38605e5cf07f5bc943a5aecfc77d93eca8ada9bcda0f4d9fb8dcfc42"),
    (4, 2): (400, "c56309b53cdc90527bdfcfc01ad47105fd7d7c15074af6565b3750336cdb25aa"),
    (5, 2): (4900, "ee75a63c55d2c27d15efd8ce949e55a46195d984d83506ff44324c157573fca7"),
    (1, 3): (1, "818ab27285986c039052b5ed4a21c935f24435123483aecb82748be800ef6fcc"),
    (2, 3): (8, "7427f3a228a02dc2a3de68a4465d2663149eb72fa603d347cb12f8d2219691e7"),
    (3, 3): (216, "fab2082f162f529b71e88730cb934f153328a3fc617bc867154b5b2164478422"),
}


@pytest.mark.parametrize("n,k", sorted(ENUMERATION_DIGESTS))
def test_enumeration_output_frozen(request, n, k):
    """The k=2 lists come from the session fixture, which enumerates C_5 once."""
    found = (request.getfixturevalue("cylinder_k2_triangulations")[n] if k == 2
             else enumerate_cylinder(cylinder(n, k)))
    reps = [[[c.rep.a, c.rep.b] for c in t.classes] for t in found]
    assert (len(found), _digest(reps)) == ENUMERATION_DIGESTS[n, k]


# sha256 of the JSON list of the edges of every triangulation, in output
# order, for every polygon instance within the enumeration budget, frozen
# while the search still returned its results sorted.  The largest, the
# 12-gon at k=3, is left out: its 81,796-triangulation JSON alone takes
# seconds to hash.
POLYGON_DIGESTS = {
    (3, 1): (1, "d1bd5014984f5b36bea299063a1039578751c6c9e292da451850bb2564bb0976"),
    (4, 1): (2, "f70679894c5b5b73a43e18b241202ca2e5ddc664cc3dba504ac0b941eae97061"),
    (5, 1): (5, "495744fb49c13c4761d0d59087908f67d0bd4adfd5718e4f0d64fcee4f78bb2c"),
    (6, 1): (14, "fc0b69e5fb8986522e0326e4675cfa132cbc955c9b343a222223c30503c80db9"),
    (7, 1): (42, "56d282f47ff3ebaccb9494b5cbaada7bd1bccdd6121f0f69c05a580d2914a20d"),
    (8, 1): (132, "8a7ee0f0126b265337ce7bc5aede745a1299103dda38e9f5e786c53c74adfe89"),
    (9, 1): (429, "f5fcf2c0cd7a6835c7768ab7b60245b88f52cd5cb5ff4010c799590ba65301a2"),
    (10, 1): (1430, "c4ea5bf929e52d07f2a1cf67b93496d02d1612a292b27e844b31025e268e85f4"),
    (11, 1): (4862, "d915199cd1f960abf27b23104cb5225e2c54fa4d38d446324eec316a3342f95e"),
    (12, 1): (16796, "b461bb6ce4ed7996f900ea75515ac67ed09de5886f4f7dd56bdd58a9e02def3f"),
    (3, 2): (1, "d1bd5014984f5b36bea299063a1039578751c6c9e292da451850bb2564bb0976"),
    (4, 2): (1, "aee9a563bc04b979a87246b15a98280a21000c15cc314bcc58d4186690d3c060"),
    (5, 2): (1, "71f43686bc5f78f3c51db13224a9affbbe3574feef6360d676dcf14550eb4dbe"),
    (6, 2): (3, "e6103b2dd492e4bfc5d14b3b57a7b36e6b43c70055b8ff3328391328ea0d4ed2"),
    (7, 2): (14, "8f16c765b25384e9da2eb03ed6384716b454a10ab25e2fba8f233a9d9dac8bd0"),
    (8, 2): (84, "94b9fc3a280d3f75224b1a7a5f2dbf719b7e6830b75ebdd250b36032ea4b69a9"),
    (9, 2): (594, "1c47b409606beb64d4b3ffc937feac6531f7c37a38db669695553c27a72e3019"),
    (10, 2): (4719, "2e2b255ba4bd3cbffc4cd82628393fffad1760fdc8d3d4c69f31a83c779a1038"),
    (3, 3): (1, "d1bd5014984f5b36bea299063a1039578751c6c9e292da451850bb2564bb0976"),
    (4, 3): (1, "aee9a563bc04b979a87246b15a98280a21000c15cc314bcc58d4186690d3c060"),
    (5, 3): (1, "71f43686bc5f78f3c51db13224a9affbbe3574feef6360d676dcf14550eb4dbe"),
    (6, 3): (1, "924183af921dab7ed1f6be71144babb6ec702fb43e7a239b531eb2550b7f5e1e"),
    (7, 3): (1, "835ee0367e0693d9ec22884f84ba534491ff0e27950c45f173cb3662c23899c8"),
    (8, 3): (4, "cde4d412d43df2135016c9c84a294e4a1d5590097b64b73416cee324e651601a"),
    (9, 3): (30, "4a07bf38505a00c5aeef906029e046d894b7a9de639ba11c7690495150c33d2a"),
    (10, 3): (330, "8e2fb67c15924f8a76d3e1cf6c13f0e4e2203e3553c38a55a3e9f6cbc6cf9f26"),
    (11, 3): (4719, "69710771a93305ea3ee72d481f98e8bd41d1978e14cc8a44cf89ad0467969875"),
}

# The same for every (m, k, shift) of SHIFT_INVARIANT_COUNTS.
SHIFT_INVARIANT_DIGESTS = {
    (8, 1, 4): (20, "ea154b48d732bcf03b76a3cc0edcad7982018ce4a9ac07920e4ba557acef859f"),
    (8, 2, 2): (4, "f65d495e31e3cc60f0b3d2756226d98d359421b32ab379ffb2b6b0a65d7ebb17"),
    (8, 2, 4): (20, "5e9545da9d51ee7cf22bba4c05ce95b8da5fa13c9a38f523ab7d95228e457102"),
    (9, 1, 3): (6, "d57b629b514a38880a2b471759e6545aa6461a0b6e01470696147164d52783ad"),
    (9, 2, 3): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (10, 1, 5): (70, "369adcad8fc238028092b32e8796e77a046c7bac52bd2922dbee2b77108381c2"),
    (10, 2, 5): (175, "82ab08cbaa058ef219092f2db2f5c74ce72ba1938603ade3ea6698fbc363a130"),
    (12, 1, 4): (20, "624e7c54b72d045db187cbfb8134f28daf927979b126f9bc362b910268580762"),
    (12, 1, 6): (252, "3483f6f008f47aee0ef04c8ae95589a6cabeeec23ed4cde5ac8c2239b4c3592b"),
    (12, 2, 3): (36, "d999701fc867cd0b6f64dcf9124002b6d52a892990d4f2f538235a1272772d35"),
    (12, 2, 4): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (12, 3, 2): (8, "10082c2f45a15818b96c81712930f5fc260b4fd30e3534e763560640649dd4fa"),
    (12, 3, 4): (40, "b6d48c0492a7a4d595c55e8067f43da4f9e728bc81cd7482084a6a61165794b6"),
}


def _edge_digest(found) -> tuple[int, str]:
    return len(found), _digest([[list(e) for e in t.edges] for t in found])


def test_digests_cover_every_instance_but_the_largest():
    assert set(POLYGON_DIGESTS) == {(n, k) for k, top in POLYGON_BUDGET.items()
                                    for n in range(3, top + 1)} - {(12, 3)}
    assert set(SHIFT_INVARIANT_DIGESTS) == set(SHIFT_INVARIANT_COUNTS)


@pytest.mark.parametrize("n,k", sorted(POLYGON_DIGESTS))
def test_polygon_enumeration_output_frozen(n, k):
    assert _edge_digest(enumerate_polygon(polygon(n, k))) == POLYGON_DIGESTS[n, k]


@pytest.mark.parametrize("m,k,shift", sorted(SHIFT_INVARIANT_DIGESTS))
def test_shift_invariant_enumeration_output_frozen(m, k, shift):
    found = enumerate_shift_invariant(polygon(m, k), shift)
    assert _edge_digest(found) == SHIFT_INVARIANT_DIGESTS[m, k, shift]


# sha256 of the JSON list of validation outcomes ("ok" or "Type: message")
# over every C_n triangulation at k=2 and its one-class neighbours, frozen
# from the per-call windowed implementation.
VALIDATION_DIGESTS = {
    1: (3, "1b7a5f1651292e632aedfa45df59876c9b8779e10d296aae2525a2fb024caf07"),
    2: (36, "bb8d3070c73b7fe53042a3f581ea21535baa157f9e44aa40db596595ee1a6f9a"),
    3: (684, "979a275e8c225a1a4659e4e7268704cf3325be0277fddb9efac0bc19b1ef03fb"),
    4: (13200, "3dc835296011b74e38fce66b5b0ff2fb964e0c81d314bc86f99708ddcbb32413"),
}


def _validation_outcome(t) -> str:
    try:
        validate_cylinder_triangulation(t)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("n", sorted(VALIDATION_DIGESTS))
def test_validation_outcomes_frozen(n):
    outcomes = [
        _validation_outcome(probe)
        for t in enumerate_cylinder(cylinder(n, 2))
        for probe in one_class_neighbours(t)
    ]
    assert (len(outcomes), _digest(outcomes)) == VALIDATION_DIGESTS[n]


# sha256 of the JSON list of [report, outcome] pairs over every C_n
# triangulation at order k and its one-class neighbours: the whole
# `check_maximal_lifting` report, classes as [a, b] representatives, and the
# validation outcome.  Unlike VALIDATION_DIGESTS it pins the order of
# `addable` and the `checked` count.
LIFTING_DIGESTS = {
    (1, 1): (2, "c8ad650eacab9dbc13cac7dc139ea649badd975233dbfa544eefec502fbdada8"),
    (2, 1): (10, "2220ebb51cc8d2f42dfe6da5e49557f25f53aeeaceeb761d719a8153c60b56d7"),
    (3, 1): (60, "1e445a5df21e27d24fa988ec2cc10bab16c676d542267ccbb1229399ecca96cb"),
    (4, 1): (340, "f0945149974e469bb46b797317361baedd63dc11de76f075f8838f798476639b"),
    (5, 1): (1820, "c1948b97239a002ace0d350b68942198899f7d4669bbc4c3ac052fb17fb4814a"),
    (1, 2): (3, "45659bf9521bf8b1b8e2c8eda00f5dfc723c000ac7fa829336c1a0d8b4eceb26"),
    (2, 2): (36, "6078f2dce5b13bd1cf2cd1fbf412f8083518912d643832545aadafdff4fc9468"),
    (3, 2): (684, "c504af4244ef06d1686e2a1506eb2fc8f8d9fea76399d1c9f90f6746b27b4c63"),
    (4, 2): (13200, "1e7453fb1e201c5dc27b9fbba6f4f12dd16b1590523696119089b1352f350c5d"),
    (1, 3): (4, "876ecd4f35af4c4f69165697a76f4bfee96d125aab02a8d8fd67a0db6cbc714a"),
    (2, 3): (104, "922439712d53d9cb501e791925dae430846e031e1ef6995d07cf701106224485"),
    (3, 3): (6048, "bb5252e3089e76b25fe9c3285746597e708084ac67b7262dcae42811bf3709c9"),
}


def _lifting_record(t) -> list:
    report = {key: [list(c.rep) for c in value] if key in ("addable", "violations") else value
              for key, value in check_maximal_lifting(t).items()}
    return [report, _validation_outcome(t)]


@pytest.mark.parametrize("n,k", sorted(LIFTING_DIGESTS))
def test_lifting_reports_and_outcomes_frozen(request, n, k):
    found = (request.getfixturevalue("cylinder_k2_triangulations")[n] if k == 2
             else enumerate_cylinder(cylinder(n, k)))
    records = [_lifting_record(probe) for t in found for probe in one_class_neighbours(t)]
    assert (len(records), _digest(records)) == LIFTING_DIGESTS[n, k]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maximal_lifting_matches_windowed_oracle(n):
    radius = 5
    for t in enumerate_cylinder(cylinder(n, 2)):
        for probe in one_class_neighbours(t):
            classes = probe.class_set()
            free = windowed_crossing_free(classes, 2, n, radius)
            addable = [
                c for c in short_classes(n, 2) + relevant_class_candidates(n, 2)
                if free and c not in classes
                and windowed_crossing_free(classes | {c}, 2, n, radius)
            ]
            report = check_maximal_lifting(probe)
            assert (report["crossing_free"], report["addable"]) == (free, addable), probe
            assert report["ok"] == (free and not addable)


def test_maximal_lifting_rejects_crossing_lift():
    t = enumerate_cylinder(cylinder(3, 2))[0]
    crossing = CylinderTriangulation(
        t.surface, tuple(sorted(t.class_set() | {edge_class_of(Edge(1, 4), 3)})))
    with pytest.raises(StructureViolation, match="3-crossing"):
        validate_cylinder_triangulation(crossing)
    report = check_maximal_lifting(crossing)
    assert report["crossing_free"] is False
    assert report["addable"] == []
    assert report["ok"] is False
