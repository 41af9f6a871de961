from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings

from surfclass import (
    BoundExceeded,
    Disconnected,
    ParseError,
    SurfaceType,
    catalog_get,
    catalog_list,
    chord_canonical,
    chord_isomorphic,
    chord_text,
    chord_to_rotation,
    classify_embedding,
    code_to_permutation,
    enumerate_chords,
    parse_chord_code,
    parse_rotation,
    permutation_to_code,
    rotation_system,
    rs_orientable,
    serialize_rotation,
    trace_faces,
)
from surfclass.errors import InvariantError
from surfclass.rotation import FaceTrace
from test_classes_and_colouring import ROTATIONS, signed_rotation_systems

S2 = SurfaceType(True, 0, 0, 2)
T2 = SurfaceType(True, 1, 0, 0)
F2 = SurfaceType(True, 2, 0, -2)
RP2 = SurfaceType(False, 1, 0, 1)
KL = SurfaceType(False, 2, 0, 0)


# ---------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------


def test_parse_single_vertex_loop():
    rs = parse_rotation("{1,1} ; u=-")
    assert rs.vertex_count() == 1
    assert rs.rotations == (("1", "1"),)
    assert rs.sign_map() == {"1": -1}


def test_parse_bare_single_characters_form_one_vertex():
    rs = parse_rotation("{1,2,2,1}")
    assert rs.rotations == (("1", "2", "2", "1"),)


def test_parse_multi_character_tokens_split_into_vertices():
    rs = parse_rotation("{12, 12}")
    assert rs.rotations == (("1", "2"), ("1", "2"))


def test_parse_braced_groups_are_explicit_vertices():
    rs = parse_rotation("{{1},{1}}")
    assert rs.rotations == (("1",), ("1",))
    rs = parse_rotation("{1,1,2},{2,3,3}")
    assert rs.rotations == (("1", "1", "2"), ("2", "3", "3"))


def test_parse_comma_labels_inside_braces_stay_whole():
    rs = parse_rotation("{{ab,cd,ab},{cd}}")
    assert rs.rotations == (("ab", "cd", "ab"), ("cd",))


def test_parse_signs_accept_compact_and_spaced_forms():
    assert parse_rotation("{1212}, u={--}").sign_map() == {"1": -1, "2": -1}
    assert parse_rotation("{1212}, u={- +}").sign_map() == {"1": -1, "2": 1}
    assert parse_rotation("{1212}, u=-+").sign_map() == {"1": -1, "2": 1}


def test_parse_rejects_odd_edge_occurrences():
    with pytest.raises(ParseError):
        parse_rotation("{1,2},{1}")
    with pytest.raises(ParseError):
        parse_rotation("{1}")


def test_parse_rejects_bad_signs():
    with pytest.raises(ParseError):
        parse_rotation("{1,1}, u=*")
    with pytest.raises(ParseError):
        parse_rotation("{1,1}, u={-,-}")


def test_serialize_round_trip():
    for text in ("{1,1}", "{12, 12}", "{1212}, u={- +}", "{{ab,cd},{ab,cd}}"):
        rs = parse_rotation(text)
        assert parse_rotation(serialize_rotation(rs)) == rs


def test_serialize_omits_all_plus_sign_vector():
    assert "u=" not in serialize_rotation(parse_rotation("{1212}"))
    assert "u=" in serialize_rotation(parse_rotation("{1212}, u={-+}"))


def test_rotation_system_validates_occurrences():
    with pytest.raises(ParseError):
        rotation_system([("1", "1"), ("1",)])
    with pytest.raises(ParseError):
        rotation_system([("1", "1")], {"9": -1})
    with pytest.raises(ParseError):
        rotation_system([("1", "1")], {"1": 7})


# ---------------------------------------------------------------------
# face tracing and classification
# ---------------------------------------------------------------------


def test_trace_faces_counts():
    # plain loop: 2 faces; interleaved pair: 1 face
    assert trace_faces(parse_rotation("{1,1}")).faces == 2
    assert trace_faces(parse_rotation("{1212}")).faces == 1


def test_trace_faces_walk_lengths_sum_to_twice_edges():
    for text in ("{1,1}", "{1212}", "{12, 12}", "{123, 132}", "{1122}, u={--}"):
        rs = parse_rotation(text)
        tr = trace_faces(rs)
        assert sum(len(wk) for wk in tr.walks) == 2 * rs.edge_count()
        assert len(tr.walks) == tr.faces


def test_trace_faces_edgeless_graph():
    rs = rotation_system([(), ()])
    assert trace_faces(rs).faces == 2


def ref_trace_faces(rs):
    """trace_faces before the dart table: every orbit walked, then each
    paired with its mirror orbit."""
    darts = [(v, p) for v, vertex in enumerate(rs.rotations) for p in range(len(vertex))]
    if not darts:
        return FaceTrace(len(rs.rotations), tuple(() for _ in rs.rotations))
    sign = rs.sign_map()
    by_label = {}
    for d in darts:
        by_label.setdefault(rs.rotations[d[0]][d[1]], []).append(d)
    partner = {}
    for pair in by_label.values():
        a, b = pair
        partner[a], partner[b] = b, a

    def rho(d, step):
        v, p = d
        return (v, (p + step) % len(rs.rotations[v]))

    def label(d):
        return rs.rotations[d[0]][d[1]]

    def step(flag):
        v, p, s = flag
        s2 = s * sign[label((v, p))]
        nxt = rho(partner[(v, p)], s2)
        return (nxt[0], nxt[1], s2)

    def mirror(flag):
        v, p, s = flag
        d = rho((v, p), -s)
        return (d[0], d[1], -s)

    all_flags = sorted((v, p, s) for v, p in darts for s in (1, -1))
    orbit_of = {}
    orbits = []
    for flag in all_flags:
        if flag in orbit_of:
            continue
        orbit = []
        cur = flag
        while cur not in orbit_of:
            orbit_of[cur] = len(orbits)
            orbit.append(cur)
            cur = step(cur)
        if cur != flag:
            raise InvariantError(f"face walk from flag {flag} closes at {cur}")
        orbits.append(orbit)
    if len(orbit_of) != len(all_flags):
        raise InvariantError(f"face walks cover {len(orbit_of)} of {len(all_flags)} flags")
    walks = []
    paired = set()
    for i, orbit in enumerate(orbits):
        if i in paired:
            continue
        j = orbit_of[mirror(orbit[0])]
        if j == i or j in paired or len(orbits[j]) != len(orbit):
            raise InvariantError(f"face walk {i} has no mirror walk of its length")
        paired.add(i)
        paired.add(j)
        walks.append(tuple(label((v, p)) for v, p, _ in orbit))
    if sum(map(len, walks)) != 2 * rs.edge_count():
        raise InvariantError("face walks do not traverse every edge twice")
    return FaceTrace(len(walks), tuple(walks))


CATALOG_ROTATIONS = {
    **ROTATIONS,
    **{
        name: chord_to_rotation(catalog_get(name).payload)
        for name in catalog_list()
        if catalog_get(name).kind == "chord"
    },
}


@pytest.mark.parametrize("name", sorted(CATALOG_ROTATIONS))
def test_trace_faces_matches_reference_on_catalog(name):
    rs = CATALOG_ROTATIONS[name]
    assert trace_faces(rs) == ref_trace_faces(rs)


@settings(max_examples=300, deadline=None)
@given(signed_rotation_systems())
def test_trace_faces_matches_reference_on_drawn_systems(rs):
    assert trace_faces(rs) == ref_trace_faces(rs)


def test_trace_faces_matches_reference_on_a_large_system():
    rng = random.Random(15)
    rotations = [[] for _ in range(2000)]
    signs = {}
    for e in range(6000):
        for _ in range(2):
            vertex = rotations[rng.randrange(2000)]
            vertex.insert(rng.randint(0, len(vertex)), f"e{e}")
        signs[f"e{e}"] = rng.choice((1, -1))
    rs = rotation_system(rotations, signs)
    assert trace_faces(rs) == ref_trace_faces(rs)


def test_rs_orientable():
    assert rs_orientable(parse_rotation("{1212}"))
    assert not rs_orientable(parse_rotation("{11}, u=-"))
    assert not rs_orientable(parse_rotation("{12, 12}, u={-+}"))


def test_rs_orientable_balanced_signs_cancel():
    # both ends of a non-loop edge can be switched consistently
    assert rs_orientable(parse_rotation("{12, 12}, u={--}"))


def test_classify_requires_connected():
    with pytest.raises(Disconnected):
        classify_embedding(parse_rotation("{1,1},{2,2}"))


def test_classification_table():
    cases = [
        ("{11}", S2), ("{{1},{1}}", S2), ("{12, 12}", S2), ("{1122}", S2),
        ("{1, 12, 2}", S2), ("{1, 122}", S2), ("{123, 132}", S2),
        ("{12, 13, 23}", S2), ("{1123, 23}", S2), ("{12, 132, 3}", S2),
        ("{123321}", S2), ("{1, 12, 23, 3}", S2), ("{11232, 3}", S2),
        ("{112, 23, 3}", S2), ("{112, 233}", S2), ("{1213, 2, 3}", S2),
        ("{112233}", S2), ("{123, 1, 2, 3}", S2), ("{11223, 3}", S2),
        ("{1123, 2, 3}", S2),
        ("{1212}", T2), ("{123123}", T2), ("{123, 123}", T2),
        ("{123132}", T2), ("{1213, 23}", T2), ("{112323}", T2),
        ("{12123, 3}", T2),
        ("{12341234}", F2), ("{12312434}", F2), ("{12132434}", F2),
        ("{12123434}", F2),
        ("{11}, u={-}", RP2), ("{1212}, u={--}", RP2), ("{12, 12}, u={-+}", RP2),
        ("{1122}, u={+-}", RP2), ("{112, 2}, u={-+}", RP2),
        ("{1212}, u={-+}", KL), ("{1122}, u={--}", KL),
    ]
    for text, want in cases:
        assert classify_embedding(parse_rotation(text)) == want, text


# ---------------------------------------------------------------------
# chord diagrams
# ---------------------------------------------------------------------


def test_parse_chord_code_forms():
    assert parse_chord_code("1212") == ("1", "2", "1", "2")
    assert parse_chord_code("{1122}") == ("1", "1", "2", "2")
    assert parse_chord_code("ab,cd,ab,cd") == ("ab", "cd", "ab", "cd")
    with pytest.raises(ParseError):
        parse_chord_code("112")


def test_chord_text_round_trip():
    for s in ("1212", "123321"):
        assert chord_text(parse_chord_code(s)) == s


def test_chord_to_rotation_is_one_vertex_unsigned():
    rs = chord_to_rotation(parse_chord_code("1212"))
    assert rs.vertex_count() == 1
    assert all(s == 1 for _, s in rs.signs)
    assert classify_embedding(rs) == T2


def test_chord_canonical_is_idempotent_and_invariant():
    code = parse_chord_code("12312434")
    canon = chord_canonical(code)
    assert chord_canonical(canon) == canon
    # rotating or reflecting the code does not change the class
    rot = code[3:] + code[:3]
    assert chord_canonical(rot) == canon
    assert chord_canonical(code[::-1]) == canon


def test_chord_isomorphic():
    assert chord_isomorphic(parse_chord_code("1212"), parse_chord_code("2121"))
    assert not chord_isomorphic(parse_chord_code("1212"), parse_chord_code("1122"))


def test_permutation_round_trip():
    pairs = ((1, 6), (2, 8), (3, 7), (4, 5))
    code = permutation_to_code(pairs)
    assert code_to_permutation(code) == pairs


def test_permutation_to_code_validates():
    with pytest.raises(ValueError):
        permutation_to_code([(1, 1), (2, 3)])
    with pytest.raises(ValueError):
        permutation_to_code([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        permutation_to_code([(1, 9)])


def ref_permutation_to_code(pairs):
    """The labelling loop of permutation_to_code before it reused the
    first-occurrence relabelling (pairs already valid)."""
    mate = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    labels, out = {}, []
    for pos in range(1, len(mate) + 1):
        key = min(pos, mate[pos])
        if key not in labels:
            labels[key] = len(labels) + 1
        out.append(str(labels[key]))
    return tuple(out)


def _involutions(points):
    # every fixed-point-free involution of the points, as pairs in drawn order
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, mate in enumerate(rest):
        for tail in _involutions(rest[:k] + rest[k + 1 :]):
            yield [(mate, first)] + tail[::-1]


def test_permutation_to_code_matches_the_labelling_loop():
    for n in range(5):
        for pairs in _involutions(list(range(1, 2 * n + 1))):
            assert permutation_to_code(pairs) == ref_permutation_to_code(pairs)


def test_permutation_to_code_messages():
    for pairs, message in (
        ([(1, 1), (2, 3)], "fixed point 1 in chord permutation"),
        ([(1, 2), (2, 3)], "point 2 paired twice"),
        ([(1, 9)], "points must be exactly 1..2"),
    ):
        with pytest.raises(ValueError) as exc:
            permutation_to_code(pairs)
        assert str(exc.value) == message


def test_two_involutions_same_diagram():
    a1 = permutation_to_code([(1, 6), (2, 8), (3, 7), (4, 5)])
    a2 = permutation_to_code([(1, 7), (2, 6), (3, 4), (5, 8)])
    assert chord_canonical(a1) == chord_canonical(a2)


def test_enumerate_counts():
    assert [len(enumerate_chords(n)) for n in range(6)] == [1, 1, 2, 5, 17, 79]


def test_enumerate_returns_sorted_canonical_codes():
    codes = enumerate_chords(3)
    assert codes == sorted(codes, key=lambda c: tuple(int(x) for x in c))
    assert all(chord_canonical(c) == c for c in codes)


def test_enumerate_genus_filter():
    genus1 = enumerate_chords(3, genus_filter=1)
    assert len(genus1) == 3
    for c in genus1:
        assert classify_embedding(chord_to_rotation(c)).genus == 1


def reference_enumerate_chords(n: int, genus_filter: int | None = None) -> list[tuple[str, ...]]:
    """Enumeration before orderly generation: canonicalise every matching."""
    out = list(_reference_classes(n))
    if genus_filter is not None:
        out = [c for c in out if classify_embedding(chord_to_rotation(c)).genus == genus_filter]
    return out


@functools.cache
def _reference_classes(n: int) -> tuple[tuple[str, ...], ...]:
    if n == 0:
        return ((),)
    size = 2 * n
    seen: set[tuple[str, ...]] = set()
    code: list[str | None] = [None] * size

    def fill(next_label: int) -> None:
        try:
            i = code.index(None)
        except ValueError:
            seen.add(chord_canonical(tuple(code)))  # type: ignore[arg-type]
            return
        code[i] = str(next_label)
        for j in range(i + 1, size):
            if code[j] is None:
                code[j] = str(next_label)
                fill(next_label + 1)
                code[j] = None
        code[i] = None

    fill(1)
    return tuple(sorted(seen, key=lambda c: tuple(map(int, c))))


@pytest.mark.parametrize("n", range(7))
def test_enumerate_equals_reference(n):
    # genera 0..3 cover every class with n <= 6 chords, so equal filtered
    # lists mean the genus read from the faces of the one-vertex map agrees
    # with classify_embedding on every class
    for g in (None, -1, 0, 1, 2, 3, 4):
        assert enumerate_chords(n, genus_filter=g) == reference_enumerate_chords(n, g), g


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_chords(9)
    with pytest.raises(ValueError):
        enumerate_chords(-1)


# ---------------------------------------------------------------------
# error branches and messages
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "rotations, message",
    [
        ([("2", "3", "3", "1")], "edge 1 appears 1 times (need 2)"),
        ([("9", "10")], "edge 9 appears 1 times (need 2)"),
        ([("a", "a", "a"), ("b",)], "edge a appears 3 times (need 2)"),
    ],
)
def test_rotation_system_names_the_least_unpaired_edge(rotations, message):
    with pytest.raises(ParseError) as exc:
        rotation_system(rotations)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("1233", "chord label '1' appears 1 times (need 2)"),
        ("b,a,a,a", "chord label 'a' appears 3 times (need 2)"),
        ("9,10,9", "chord label '10' appears 1 times (need 2)"),
        ("10,9", "chord label '9' appears 1 times (need 2)"),
    ],
)
def test_parse_chord_code_names_the_least_unpaired_label(text, message):
    with pytest.raises(ParseError) as exc:
        parse_chord_code(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", ["{1,1}}{", "{{1,1}", "{1,1},{2,2"])
def test_parse_rotation_rejects_unbalanced_braces(text):
    with pytest.raises(ParseError, match="^unbalanced braces in rotation system$"):
        parse_rotation(text)


def test_parse_rotation_rejects_an_empty_braced_group():
    with pytest.raises(ParseError, match="^empty vertex group in rotation system$"):
        parse_rotation("{{},{1,1}}")


def test_a_rotation_system_without_vertices_is_disconnected():
    empty = rotation_system([])
    with pytest.raises(Disconnected, match="^rotation system has no vertices$"):
        rs_orientable(empty)
    with pytest.raises(Disconnected, match="^rotation system has no vertices$"):
        classify_embedding(empty)


def test_code_to_permutation_of_the_empty_code():
    assert code_to_permutation(()) == ()


def test_code_to_permutation_rejects_an_unpaired_label():
    with pytest.raises(ParseError, match=r"^chord label '2' appears 1 times \(need 2\)$"):
        code_to_permutation(("1", "2", "1"))
