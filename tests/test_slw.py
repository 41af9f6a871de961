from __future__ import annotations

import re

import pytest

from surfclass import (
    Disconnected,
    Letter,
    MalformedWord,
    NotIsomorphism,
    NotSurface,
    ParseError,
    SizeMismatch,
    SurfaceType,
    WordList,
    classify_slw,
    classify_surface,
    close,
    cw_complex,
    euler_characteristic,
    extends_to_homeomorphism,
    list_equivalent,
    parse_slw,
    slw_equivalent,
    slw_euler,
    slw_from_complex,
    slw_graph,
    slw_surface_check,
    slw_to_text,
    word_equivalent,
    word_list,
    word_reverse,
)


def w(*tokens: str) -> tuple[Letter, ...]:
    out = []
    for t in tokens:
        if t.endswith("^-1"):
            out.append(Letter(t[:-3], -1))
        else:
            out.append(Letter(t, 1))
    return tuple(out)


def one_vertex(edges: list[str], lists: list[WordList]):
    return slw_graph(["P"], [(e, "P", "P") for e in edges], lists)


SPHERE = one_vertex(["a"], [WordList(0, (w("a"),)), WordList(0, (w("a^-1"),))])
TORUS = one_vertex(["a", "b"], [WordList(0, (w("a", "b", "a^-1", "b^-1"),))])
KLEIN = one_vertex(["a", "b"], [WordList(0, (w("a", "a", "b", "b"),))])


# ---------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------


def test_graph_sorts_edges_and_fills_endpoint_vertices():
    s = slw_graph([], [("b", "Q", "P"), ("a", "P", "P")], [])
    assert s.vertices == frozenset({"P", "Q"})
    assert [e[0] for e in s.edges] == ["a", "b"]


def test_graph_rejects_duplicate_labels():
    with pytest.raises(ParseError):
        slw_graph([], [("a", "P", "P"), ("a", "P", "Q")], [])


def test_words_must_be_closed_walks():
    with pytest.raises(MalformedWord):
        slw_graph([], [("a", "P", "Q")], [WordList(0, (w("a"),))])
    with pytest.raises(MalformedWord):
        slw_graph([], [("a", "P", "P")], [WordList(0, ((),))])
    with pytest.raises(MalformedWord):
        slw_graph([], [("a", "P", "P")], [WordList(0, (w("zz"),))])


def test_parse_round_trip():
    for s in (SPHERE, TORUS, KLEIN):
        assert parse_slw(slw_to_text(s)) == s


def test_parse_reads_inverse_letters_and_negative_n():
    text = "graph:\nv P\ne a P P\ne b P Q\nlist n=-2:\na b b^-1 a^-1\n"
    s = parse_slw(text)
    assert s.lists[0].n == -2
    assert s.lists[0].words[0] == w("a", "b", "b^-1", "a^-1")


def test_parse_requires_graph_header():
    with pytest.raises(ParseError):
        parse_slw("v P\ne a P P\n")


def test_parse_rejects_edge_lines_inside_list_blocks():
    text = "graph:\nv P\ne a P P\nlist n=0:\na\ne b P P\n"
    with pytest.raises(ParseError) as ei:
        parse_slw(text)
    assert "line 6" in str(ei.value)


def test_parse_rejects_bad_letters():
    text = "graph:\ne a P P\nlist n=0:\na^2\n"
    with pytest.raises(ParseError):
        parse_slw(text)


# ---------------------------------------------------------------------
# word and list equivalence
# ---------------------------------------------------------------------


def test_word_equivalence_is_cyclic():
    assert word_equivalent(w("a", "b", "c"), w("c", "a", "b"))
    assert not word_equivalent(w("a", "b", "c"), w("a", "c", "b"))
    assert not word_equivalent(w("a", "b"), w("a", "b", "b"))


def test_word_reverse_negates_and_flips():
    assert word_reverse(w("a", "b^-1")) == w("b", "a^-1")


def test_word_list_sorts_its_words():
    wl = word_list(0, [w("b"), w("a")])
    assert wl.words == (w("a"), w("b"))


def test_list_equivalence_uniform_flip_for_surface_strata():
    ident = {"a": "a", "b": "b"}
    l1 = word_list(0, [w("a"), w("b")])
    assert list_equivalent(l1, word_list(0, [w("b"), w("a")]), ident)
    assert list_equivalent(l1, word_list(0, [w("a^-1"), w("b^-1")]), ident)
    # one reversed word is not a homeomorphism of an oriented stratum
    assert not list_equivalent(l1, word_list(0, [w("a"), w("b^-1")]), ident)
    # genus numbers must match
    assert not list_equivalent(l1, word_list(1, [w("a"), w("b")]), ident)


def test_list_equivalence_checks_sizes_before_the_letter_map():
    # the map names no b, but lists of other n or word count are told apart first
    only_a = {"a": "a"}
    l1 = word_list(0, [w("a"), w("b")])
    assert list_equivalent(l1, word_list(1, [w("a"), w("b")]), only_a) is False
    assert list_equivalent(l1, word_list(0, [w("a")]), only_a) is False


def test_list_equivalence_mixed_flip_for_unidentified_strata():
    ident = {"a": "a", "b": "b"}
    l1 = word_list(-1, [w("a"), w("b")])
    assert list_equivalent(l1, word_list(-1, [w("a"), w("b^-1")]), ident)


def test_slw_equivalent_finds_letter_bijection():
    other = slw_graph(
        ["Q"],
        [("x", "Q", "Q"), ("y", "Q", "Q")],
        [WordList(0, (w("y", "x", "y^-1", "x^-1"),))],
    )
    wit = slw_equivalent(TORUS, other)
    assert wit == {"a": "y", "b": "x"} or wit == {"a": "x", "b": "y"}
    # the witness is a checked isomorphism of the word structure
    assert slw_equivalent(TORUS, other, letter_map=wit) == wit


def test_slw_equivalent_distinguishes_torus_from_klein():
    assert slw_equivalent(TORUS, KLEIN) is None


def test_slw_equivalent_size_mismatch():
    with pytest.raises(SizeMismatch):
        slw_equivalent(TORUS, SPHERE)


def test_slw_equivalent_rejects_non_bijection_maps():
    with pytest.raises(ValueError):
        slw_equivalent(TORUS, TORUS, letter_map={"a": "a", "b": "a"})


def test_extends_to_homeomorphism():
    other = slw_graph(
        ["Q"],
        [("x", "Q", "Q"), ("y", "Q", "Q")],
        [WordList(0, (w("x", "y", "x^-1", "y^-1"),))],
    )
    assert extends_to_homeomorphism(TORUS, other, {"P": "Q"}, {"a": "x", "b": "y"})
    with pytest.raises(NotIsomorphism):
        extends_to_homeomorphism(TORUS, other, {"P": "Q"}, {"a": "x", "b": "x"})


def test_extends_to_homeomorphism_checks_directions():
    s1 = slw_graph([], [("a", "P", "Q")], [WordList(0, (w("a", "a^-1"),))])
    s2 = slw_graph([], [("x", "Q2", "P2")], [WordList(0, (w("x", "x^-1"),))])
    with pytest.raises(NotIsomorphism):
        # maps P->P2, Q->Q2 but the edge runs the other way
        extends_to_homeomorphism(s1, s2, {"P": "P2", "Q": "Q2"}, {"a": "x"})
    assert extends_to_homeomorphism(s1, s2, {"P": "Q2", "Q": "P2"}, {"a": "x"})


# ---------------------------------------------------------------------
# surface conditions and classification
# ---------------------------------------------------------------------


def test_surface_check_on_closed_presentations():
    for s in (SPHERE, TORUS, KLEIN):
        chk = slw_surface_check(s)
        assert chk.edges_ok and chk.vertices_ok


def test_surface_check_flags_uncovered_edges():
    s = one_vertex(["a"], [WordList(0, (w("a"),))])
    chk = slw_surface_check(s)
    assert not chk.edges_ok


def test_surface_check_flags_pinched_vertex():
    s = one_vertex(["a"], [WordList(0, (w("a", "a^-1"),))])
    chk = slw_surface_check(s)
    assert chk.edges_ok
    assert not chk.vertices_ok


def test_euler_of_strata():
    assert slw_euler(SPHERE) == 2
    assert slw_euler(TORUS) == 0
    assert slw_euler(KLEIN) == 0
    # one disk stratum: (V-E) + (2 - 2*0 - 1)
    assert slw_euler(one_vertex(["a"], [WordList(0, (w("a"),))])) == 1
    # unidentified stratum: (V-E) + (2 + n - b)
    assert slw_euler(one_vertex(["a"], [WordList(-1, (w("a"),))])) == 0


def test_classify_closed_fixtures():
    assert classify_slw(SPHERE) == SurfaceType(True, 0, 0, 2)
    assert classify_slw(TORUS) == SurfaceType(True, 1, 0, 0)
    assert classify_slw(KLEIN) == SurfaceType(False, 2, 0, 0)


def test_classify_projective_plane_from_doubled_loop():
    s = one_vertex(["a"], [WordList(0, (w("a", "a"),))])
    assert classify_slw(s) == SurfaceType(False, 1, 0, 1)


def test_classify_disk_and_moebius_strata():
    disk = one_vertex(["a"], [WordList(0, (w("a"),))])
    assert classify_slw(disk) == SurfaceType(True, 0, 1, 1)
    moebius = one_vertex(["a"], [WordList(-1, (w("a"),))])
    assert classify_slw(moebius) == SurfaceType(False, 1, 1, 0)


def test_classify_klein_as_two_crosscaps():
    s = one_vertex(
        ["a"], [WordList(-1, (w("a"),)), WordList(-1, (w("a^-1"),))]
    )
    assert classify_slw(s) == SurfaceType(False, 2, 0, 0)


def test_classify_torus_with_hole_stratum():
    s = one_vertex(["a"], [WordList(1, (w("a"),))])
    assert classify_slw(s) == SurfaceType(True, 1, 1, -1)


def test_classify_rejects_overcovered_edges():
    s = one_vertex(["a"], [WordList(0, (w("a", "a", "a"),))])
    with pytest.raises(NotSurface):
        classify_slw(s)


def test_classify_rejects_pinched_vertex():
    s = one_vertex(["a"], [WordList(0, (w("a", "a^-1"),))])
    with pytest.raises(NotSurface) as ei:
        classify_slw(s)
    assert "corner" in str(ei.value)


def test_classify_rejects_disconnected():
    s = slw_graph(
        ["P", "Q"],
        [("a", "P", "P"), ("b", "Q", "Q")],
        [WordList(0, (w("a", "a"),)), WordList(0, (w("b", "b"),))],
    )
    with pytest.raises(Disconnected):
        classify_slw(s)


# ---------------------------------------------------------------------
# conversion from complexes
# ---------------------------------------------------------------------


def test_slw_from_complex_structure():
    cx = close([("0", "1", "2")])
    s = slw_from_complex(cx)
    assert {e[0] for e in s.edges} == {"0-1", "0-2", "1-2"}
    assert len(s.lists) == 1
    assert s.lists[0].n == 0


def test_slw_conversion_preserves_type_and_euler():
    cases = [
        close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")]),
        close([("0", "1", "2"), ("0", "1", "3")]),
        cw_complex([tuple("0132"), tuple("0145"), tuple("2354")]),
        cw_complex([tuple("0154"), tuple("0231"), tuple("2453")]),
    ]
    for cx in cases:
        s = slw_from_complex(cx)
        assert slw_euler(s) == euler_characteristic(cx)
        assert classify_slw(s) == classify_surface(cx)[0]


# ---------------------------------------------------------------------
# error branches
# ---------------------------------------------------------------------


def test_graph_rejects_an_exponent_other_than_one():
    with pytest.raises(MalformedWord, match="^letter 'a' has exponent 2$"):
        slw_graph([], [("a", "P", "P")], [WordList(0, ((Letter("a", 2),),))])


@pytest.mark.parametrize("token", ["^-1", "a^2^-1"])
def test_parse_rejects_a_malformed_inverse_letter(token):
    text = f"graph:\ne a P P\nlist n=0:\n{token}\n"
    with pytest.raises(MalformedWord, match=rf"^line 4: bad letter '{re.escape(token)}'$"):
        parse_slw(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("graph:\nv\n", "v"),
        ("graph:\nv P Q\n", "v P Q"),
        ("graph:\ne a P P\nlist n=0:\na\nv P\n", "v P"),
    ],
)
def test_parse_rejects_misplaced_or_malformed_vertex_lines(text, line):
    with pytest.raises(ParseError, match=f"misplaced or malformed vertex line '{line}'$"):
        parse_slw(text)


def test_parse_rejects_a_duplicate_edge_label():
    with pytest.raises(ParseError, match="^line 3: duplicate edge label 'a'$"):
        parse_slw("graph:\ne a P P\ne a P Q\n")


@pytest.mark.parametrize("header", ["list 0:", "list n=0", "list"])
def test_parse_rejects_a_malformed_list_header(header):
    with pytest.raises(ParseError, match=f"^line 3: expected 'list n=<int>:', got '{header}'$"):
        parse_slw(f"graph:\ne a P P\n{header}\na a^-1\n")


def test_extends_to_homeomorphism_rejects_a_vertex_map_that_is_not_a_bijection():
    message = "^vertex map is not a bijection between the vertex sets$"
    with pytest.raises(NotIsomorphism, match=message):
        extends_to_homeomorphism(TORUS, TORUS, {"Q": "P"}, {"a": "a", "b": "b"})
