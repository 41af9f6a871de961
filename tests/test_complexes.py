from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import (
    CWComplex2,
    MalformedFace,
    NotRegular,
    ParseError,
    SimplicialComplex,
    UnsupportedDimension,
    close,
    component_subcomplexes,
    cw_complex,
    euler_characteristic,
    induced_subcomplex,
    parse_complex,
    parse_cw2,
    parse_simplicial,
    relabel,
    skeleton1,
    to_json_obj,
    to_text,
    vertex_link3,
)
from surfclass.complexes import _parse_json_obj, norm_edge


def test_close_generates_all_faces():
    cx = close([("0", "1", "2")])
    assert cx.vertex_set() == {"0", "1", "2"}
    assert cx.edge_set() == {("0", "1"), ("0", "2"), ("1", "2")}
    assert cx.triangles() == (("0", "1", "2"),)
    assert cx.tetrahedra() == ()


def test_close_is_idempotent():
    cx = close([("a", "b", "c", "d"), ("x", "y")])
    assert close(cx.simplices) == cx


def test_close_counts_triangle_plus_disjoint_edge():
    # oracle: every nonempty subset of each generator is a face
    cx = close([("0", "1", "2"), ("3", "4")])
    expect = set()
    for gen in [("0", "1", "2"), ("3", "4")]:
        for r in range(1, len(gen) + 1):
            expect.update(tuple(sorted(s)) for s in itertools.combinations(gen, r))
    assert set(cx.simplices) == expect
    assert len(cx.vertex_set()) == 5
    assert len(cx.edge_set()) == 4
    assert len(cx.triangles()) == 1


def test_simplices_are_stored_sorted_and_deduplicated():
    cx = close([("2", "1"), ("1", "2")])
    assert cx.edge_set() == {("1", "2")}


def test_simplex_rejects_repeats_and_high_dimension():
    with pytest.raises(ParseError):
        close([("a", "a")])
    with pytest.raises(UnsupportedDimension):
        close([("0", "1", "2", "3", "4")])


def test_cw_complex_stores_canonical_cycles():
    cx = cw_complex([("2", "3", "0", "1")])
    assert cx.faces == (("0", "1", "2", "3"),)
    # reversal gives the same stored cycle
    assert cw_complex([("1", "0", "3", "2")]).faces == (("0", "1", "2", "3"),)


def test_cw_complex_derives_edges_and_vertices():
    cx = cw_complex([("0", "1", "2", "3")], extra_edges=[("4", "5")], extra_vertices=["9"])
    assert ("4", "5") in cx.edge_set()
    assert "9" in cx.vertex_set()
    assert cx.edge_set() >= {("0", "1"), ("1", "2"), ("2", "3"), ("0", "3")}


def test_cw_complex_rejects_degenerate_cycles():
    with pytest.raises(MalformedFace):
        cw_complex([("0", "1")])
    with pytest.raises(NotRegular):
        cw_complex([("0", "1", "0", "2")])


def test_parse_simplicial_lines():
    cx = parse_simplicial("0 1 2\n\n# comment\n3 4\n")
    assert cx == close([("0", "1", "2"), ("3", "4")])


def test_parse_simplicial_error_carries_line_number():
    with pytest.raises(ParseError) as ei:
        parse_simplicial("0 1 2\n1 1\n")
    assert "line 2" in str(ei.value)


def test_parse_cw2_lines():
    text = "F: 0 1 2 3\nE: 4 5\nV: 9\n"
    cx = parse_cw2(text)
    assert isinstance(cx, CWComplex2)
    assert cx.faces == (("0", "1", "2", "3"),)
    assert ("4", "5") in cx.edge_set()
    assert "9" in cx.vertex_set()


def test_parse_cw2_rejects_unknown_prefix():
    with pytest.raises(ParseError) as ei:
        parse_cw2("F: 0 1 2\nQ: zzz\n")
    assert "line 2" in str(ei.value)


def test_parse_complex_auto_detection():
    assert isinstance(parse_complex("0 1 2\n"), SimplicialComplex)
    assert isinstance(parse_complex("F: 0 1 2\n"), CWComplex2)
    j = json.dumps({"simplices": [["0", "1"]]})
    assert isinstance(parse_complex(j), SimplicialComplex)


def test_parse_complex_explicit_format_overrides():
    with pytest.raises(ParseError):
        parse_complex("0 1 2\n", fmt="cw2")
    # under scx the prefix is just another vertex label
    cx = parse_complex("F: 0 1 2\n", fmt="scx")
    assert "F:" in cx.vertex_set()


def test_text_round_trip_simplicial():
    cx = close([("0", "1", "2"), ("2", "3"), ("9",)])
    assert parse_complex(to_text(cx)) == cx


def test_text_round_trip_cw():
    cx = cw_complex([("0", "1", "2", "3"), ("0", "1", "4")], extra_edges=[("7", "8")])
    assert parse_complex(to_text(cx)) == cx


def test_json_round_trip():
    for cx in (close([("0", "1", "2")]), cw_complex([("0", "1", "2", "3")])):
        back = parse_complex(json.dumps(to_json_obj(cx)))
        assert back == cx


def test_euler_characteristic_tetra_boundary():
    cx = close([t for t in itertools.combinations("0123", 3)])
    assert euler_characteristic(cx) == 4 - 6 + 4 == 2


def test_euler_characteristic_counts_tetrahedra():
    cx = close([("0", "1", "2", "3")])
    assert euler_characteristic(cx) == 4 - 6 + 4 - 1


def test_skeleton1_drops_higher_cells():
    cx = close([("0", "1", "2")])
    sk = skeleton1(cx)
    assert sk.vertices == cx.vertex_set()
    assert sk.edges == cx.edge_set()


def test_relabel_applies_bijection():
    cx = close([("0", "1", "2")])
    out = relabel(cx, {"0": "a", "1": "b", "2": "c"})
    assert out == close([("a", "b", "c")])


def test_relabel_rejects_collisions():
    cx = close([("0", "1")])
    with pytest.raises(ValueError):
        relabel(cx, {"0": "x", "1": "x"})


def test_induced_subcomplex_keeps_contained_cells():
    cx = close([("0", "1", "2"), ("2", "3", "4")])
    sub = induced_subcomplex(cx, {"0", "1", "2", "3"})
    assert sub.triangles() == (("0", "1", "2"),)
    assert ("2", "3") in sub.edge_set()
    assert "4" not in sub.vertex_set()


# ---------------------------------------------------------------------
# face closure: a complex built directly is checked where it is made
# ---------------------------------------------------------------------

TWO_TRIANGLES = close([("0", "1", "2"), ("0", "2", "3")])

NOT_A_COMPLEX = {
    "bare_triangle": ({("0", "1", "2")}, "simplex 0 1 2 lacks its face 0 1"),
    "two_bare_triangles": ({("0", "1", "2"), ("0", "3", "4")}, "simplex 0 1 2 lacks its face 0 1"),
    "edges_taken_out": (TWO_TRIANGLES.simplices - TWO_TRIANGLES.edge_set(), "simplex 0 1 2 lacks its face 0 1"),
    "missing_vertex": ({("0", "1"), ("1",)}, "simplex 0 1 lacks its face 0"),
    "tetrahedron_missing_a_triangle": (
        close([("0", "1", "2", "3")]).simplices - {("1", "2", "3")}, "simplex 0 1 2 3 lacks its face 1 2 3",
    ),
    "unsorted": ({("1", "0"), ("0",), ("1",)}, "simplex ('1', '0') is not"),
    "int_label": ({(0,), ("1",)}, "simplex (0,) is not"),
    "int_among_str": ({("0", 1), ("0",)}, "simplex ('0', 1) is not"),
    "repeated_label": ({("0", "0")}, "simplex ('0', '0') is not"),
    "empty_simplex": ({()}, "simplex () is not"),
    "five_labels": ({tuple("01234")}, "simplex ('0', '1', '2', '3', '4') is not"),
    "list_not_tuple": ([["0"]], "simplex ['0'] is not"),
}


@pytest.mark.parametrize("name", sorted(NOT_A_COMPLEX))
def test_direct_construction_rejects_what_is_not_a_complex(name):
    simplices, message = NOT_A_COMPLEX[name]
    with pytest.raises(ParseError) as ei:
        SimplicialComplex(simplices)
    assert type(ei.value) is ParseError
    if message.endswith(" is not"):
        message += " a sorted tuple of 1 to 4 distinct labels"
    assert str(ei.value) == message


def test_rejection_names_the_first_bad_simplex_in_any_insertion_order():
    # the set's iteration order depends on the hash seed and on insertion;
    # the message must not
    tops = [("0", "1", "2"), ("0", "3", "4"), ("1", "3"), ("2", "3", "4")]
    forms = [("3",), ("1", "0"), (2,), ("a", "a")]
    for bad, expect in ((tops, "simplex 0 1 2 lacks its face 0 1"), (forms, "simplex ('1', '0')")):
        messages = set()
        for order in itertools.permutations(bad):
            with pytest.raises(ParseError) as ei:
                SimplicialComplex(frozenset(order))
            messages.add(str(ei.value))
        assert len(messages) == 1
        assert messages.pop().startswith(expect)


def test_direct_construction_accepts_closed_sets():
    for cx in (SimplicialComplex(frozenset()), TWO_TRIANGLES, close([("0", "1", "2", "3"), ("4",)])):
        assert SimplicialComplex(frozenset(cx.simplices)) == cx


closed_tops = st.lists(
    st.lists(st.sampled_from(["0", "1", "2", "3", "4", "5"]), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(closed_tops, st.data())
def test_construction_succeeds_exactly_on_face_closed_sets(tops, data):
    cx = close(tops)
    drop = data.draw(st.sets(st.sampled_from(sorted(cx.simplices)), max_size=3))
    simplices = cx.simplices - drop
    closed = close(simplices).simplices == simplices
    try:
        SimplicialComplex(simplices)
        assert closed
    except ParseError:
        assert not closed


@settings(max_examples=100, deadline=None)
@given(closed_tops)
def test_the_package_builders_make_face_closed_complexes(tops):
    # each builder skips the check, so check what it makes
    cx = close(tops)
    made = [parse_complex(to_text(cx)), relabel(cx, {"0": "9", "9": "0"}), induced_subcomplex(cx, {"0", "1", "2", "3"})]
    made += component_subcomplexes(cx) + [vertex_link3(cx, v) for v in sorted(cx.vertex_set())]
    for out in made:
        assert SimplicialComplex(out.simplices) == out


# ---------------------------------------------------------------------
# a CW 2-complex built directly is checked the same way
# ---------------------------------------------------------------------

SQUARE = cw_complex([("0", "1", "2", "3")])
NO_CELLS = frozenset()

NOT_A_CW_COMPLEX = {
    "bare_face": ((NO_CELLS, NO_CELLS, (("0", "1", "2", "3"),)), "face 0 1 2 3 lacks its edge 0 1"),
    "two_bare_faces": ((NO_CELLS, NO_CELLS, (("0", "3", "4"), ("0", "1", "2"))), "face 0 1 2 lacks its edge 0 1"),
    "closing_edge_taken_out": (
        (SQUARE.vertices, SQUARE.edges - {("0", "3")}, SQUARE.faces), "face 0 1 2 3 lacks its edge 0 3",
    ),
    "edge_without_an_end": ((frozenset({"0"}), frozenset({("0", "1")}), ()), "edge 0 1 lacks its vertex 1"),
    "vertices_taken_out": ((NO_CELLS, SQUARE.edges, SQUARE.faces), "edge 0 1 lacks its vertex 0"),
    "int_vertex": ((frozenset({0, "1"}), NO_CELLS, ()), "vertex 0 is not a str label"),
    "unsorted_edge": ((frozenset("01"), frozenset({("1", "0")}), ()), "edge ('1', '0') is not"),
    "loop_edge": ((frozenset("0"), frozenset({("0", "0")}), ()), "edge ('0', '0') is not"),
    "int_in_edge": ((frozenset("0"), frozenset({("0", 1)}), ()), "edge ('0', 1) is not"),
    "three_ends": ((frozenset("012"), frozenset({("0", "1", "2")}), ()), "edge ('0', '1', '2') is not"),
    "two_vertex_face": ((frozenset("01"), frozenset({("0", "1")}), (("0", "1"),)), "face ('0', '1') is not"),
    "repeated_vertex": ((SQUARE.vertices, SQUARE.edges, (("0", "1", "2", "1"),)), "face ('0', '1', '2', '1') is not"),
    "list_face": ((SQUARE.vertices, SQUARE.edges, (["0", "1", "2", "3"],)), "face ['0', '1', '2', '3'] is not"),
}


@pytest.mark.parametrize("name", sorted(NOT_A_CW_COMPLEX))
def test_direct_cw_construction_rejects_what_is_not_a_complex(name):
    cells, message = NOT_A_CW_COMPLEX[name]
    with pytest.raises(ParseError) as ei:
        CWComplex2(*cells)
    assert type(ei.value) is ParseError
    if message.startswith("edge (") and message.endswith(" is not"):
        message += " a sorted pair of distinct str labels"
    elif message.endswith(" is not"):
        message += " a tuple of 3 or more distinct str labels"
    assert str(ei.value) == message


def test_cw_rejection_names_the_first_bad_cell_in_any_insertion_order():
    faces = [("0", "1", "2"), ("0", "3", "4"), ("2", "3", "4")]
    edges = [("0", "1"), ("1", "2"), ("3", "9")]
    messages = set()
    for order in itertools.permutations(faces):
        for edge_order in itertools.permutations(edges):
            with pytest.raises(ParseError) as ei:
                CWComplex2(frozenset("01234"), frozenset(edge_order), order)
            messages.add(str(ei.value))
    assert messages == {"face 0 1 2 lacks its edge 0 2"}


def test_direct_cw_construction_accepts_closed_complexes():
    # faces need only be closed, not in canonical_cycle() form or sorted
    faces = (("b1", "b0", "b3", "b2"), ("a2", "a3", "a0", "a1"))
    base = cw_complex(faces, extra_edges=[("c0", "c1")], extra_vertices=["d"])
    for cx in (SQUARE, base, cw_complex([], extra_vertices=["0"]), parse_cw2("F: 0 1 2\nF: 0 2 3\nE: 4 5\n")):
        assert CWComplex2(cx.vertices, cx.edges, cx.faces) == cx
    assert CWComplex2(base.vertices, base.edges, faces).faces == faces


cw_faces = st.lists(
    st.lists(st.sampled_from(["0", "1", "2", "3", "4", "5"]), min_size=3, max_size=5, unique=True),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(cw_faces, st.data())
def test_cw_construction_succeeds_exactly_on_closed_complexes(faces, data):
    cx = cw_complex(faces, extra_edges=[("4", "6")])
    edges = cx.edges - data.draw(st.sets(st.sampled_from(sorted(cx.edges)), max_size=2))
    vertices = cx.vertices - data.draw(st.sets(st.sampled_from(sorted(cx.vertices)), max_size=2))
    closure = cw_complex(cx.faces, edges, vertices)
    closed = (closure.vertices, closure.edges) == (vertices, edges)
    try:
        CWComplex2(vertices, edges, cx.faces)
        assert closed
    except ParseError:
        assert not closed


@settings(max_examples=100, deadline=None)
@given(cw_faces)
def test_the_package_builders_make_closed_cw_complexes(faces):
    # each builder skips the check, so check what it makes
    cx = cw_complex(faces, extra_edges=[("6", "7")], extra_vertices=["8"])
    made = [parse_complex(to_text(cx)), relabel(cx, {"0": "9", "9": "0"}), induced_subcomplex(cx, {"0", "1", "2", "3"})]
    made += component_subcomplexes(cx)
    for out in made:
        assert CWComplex2(out.vertices, out.edges, out.faces) == out


# ---------------------------------------------------------------------
# a complex built directly stores the containers its fields promise
# ---------------------------------------------------------------------


def test_direct_construction_stores_frozensets_from_any_iterable():
    tet = close([("0", "1", "2", "3")])
    for simplices in ([("0",)], (("0",),), {("0",)}, (s for s in [("0",)])):
        cx = SimplicialComplex(simplices)
        assert type(cx.simplices) is frozenset
        assert cx == close([("0",)]) and hash(cx) == hash(close([("0",)]))
    assert SimplicialComplex(sorted(tet.simplices)) == tet
    assert SimplicialComplex(()) == SimplicialComplex(frozenset())


def test_direct_cw_construction_stores_frozensets_and_a_face_tuple():
    tri = cw_complex([("0", "1", "2")])
    for faces in ([("0", "1", "2")], (("0", "1", "2"),)):
        cx = CWComplex2(set(tri.vertices), list(tri.edges), faces)
        assert (type(cx.vertices), type(cx.edges), type(cx.faces)) == (frozenset, frozenset, tuple)
        assert cx == tri and hash(cx) == hash(tri)


NOT_A_CONTAINER = {
    "int_simplices": (lambda: SimplicialComplex(5), "simplices must be an iterable of cells, got int"),
    "none_simplices": (lambda: SimplicialComplex(None), "simplices must be an iterable of cells, got NoneType"),
    "int_vertices": (lambda: CWComplex2(5, frozenset(), ()), "vertices must be an iterable of cells, got int"),
    "int_edges": (lambda: CWComplex2(frozenset(), 5, ()), "edges must be an iterable of cells, got int"),
    "none_faces": (lambda: CWComplex2(frozenset(), frozenset(), None), "faces must be a list or tuple, got NoneType"),
    # face order fixes the indices every witness names, so a set of faces has none
    "set_of_faces": (
        lambda: CWComplex2(frozenset("012"), frozenset({("0", "1"), ("0", "2"), ("1", "2")}), {("0", "1", "2")}),
        "faces must be a list or tuple, got set",
    ),
    "frozenset_of_faces": (
        lambda: CWComplex2(frozenset(), frozenset(), frozenset()), "faces must be a list or tuple, got frozenset",
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_A_CONTAINER))
def test_direct_construction_rejects_a_container_it_cannot_store(name):
    build, message = NOT_A_CONTAINER[name]
    with pytest.raises(ParseError) as ei:
        build()
    assert type(ei.value) is ParseError
    assert str(ei.value) == message


# ---------------------------------------------------------------------
# error branches
# ---------------------------------------------------------------------


def test_norm_edge_rejects_a_degenerate_edge():
    with pytest.raises(ValueError, match=r"degenerate edge \('a', 'a'\)"):
        norm_edge("a", "a")


def test_empty_simplex_is_a_parse_error():
    with pytest.raises(ParseError, match="^empty simplex$"):
        parse_complex('{"simplices": [[]]}')


@pytest.mark.parametrize("line", ["E: 3", "E: 3 3", "E: 3 4 5"])
def test_cw2_edge_line_needs_two_distinct_endpoints(line):
    with pytest.raises(ParseError, match=f"^line 2: edge needs two distinct endpoints: '{line}'$"):
        parse_complex(f"F: 0 1 2\n{line}\n")


def test_json_parser_rejects_a_document_that_is_not_an_object():
    # parse_complex only hands it text that starts with "{"
    with pytest.raises(ParseError, match="^JSON document must be an object$"):
        _parse_json_obj([["0", "1", "2"]])


@pytest.mark.parametrize("value", ["[]", "3", '"012"'])
def test_json_simplices_must_be_a_nonempty_list(value):
    with pytest.raises(ParseError, match='^"simplices" must be a nonempty list$'):
        parse_complex(f'{{"simplices": {value}}}')


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n"])
def test_cw2_without_lines_is_empty_input(text):
    with pytest.raises(ParseError, match="^empty input: no cells$"):
        parse_complex(text, fmt="cw2")


@pytest.mark.parametrize("text", ['{"faces": []}', '{"edges": [], "vertices": []}'])
def test_json_cw_document_without_cells_is_empty_input(text):
    with pytest.raises(ParseError, match="^empty input: no cells$"):
        parse_complex(text)


def test_parse_complex_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'json'$"):
        parse_complex("0 1 2", fmt="json")


def test_deeply_nested_json_is_a_parse_error():
    text = '{"simplices": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ParseError, match="^bad JSON: nested too deeply$"):
        parse_complex(text)
