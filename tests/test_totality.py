"""The command line and the library parsers are total.

Every CLI input ends in a documented exit code: 0 (a verdict), 2 (usage,
unknown name, bound exceeded), 3 (parse error) and 4 (not a surface /
manifold / nonempty complex). Every parser called directly, and a
simplicial or CW complex built directly, returns a value or raises a
TopologyError. The inputs are drawn by structure, since random
characters rarely get past the first parse check: deeply nested braces,
words and faces 10^4 long, duplicate labels, JSON of the wrong shape or
nesting, edge cases of the u= sign vector, and CW input to classify3.
The error branches that no drawn or catalog input reaches are pinned
one by one at the end.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import (
    CWComplex2,
    Disconnected,
    InvalidSurface,
    Letter,
    MalformedWord,
    NotIsomorphism,
    ParseError,
    SimplicialComplex,
    SizeMismatch,
    TopologyError,
    WordList,
    classify_embedding,
    extends_to_homeomorphism,
    genus,
    parse_chord_code,
    parse_complex,
    parse_cw2,
    parse_rotation,
    parse_simplicial,
    parse_slw,
    rotation_system,
    slw_equivalent,
    slw_from_complex,
    slw_graph,
    slw_to_text,
)
from surfclass.cli import main
from test_incidence import grid
from test_slw_index import shuffled

EXITS = {0, 2, 3, 4}
LONG = 10**4
FEW = settings(max_examples=40, deadline=None)


def cli(argv: list[str], files: dict[str, str] | None = None, out: io.StringIO | None = None) -> int:
    """Exit code of the CLI on argv, with the named files written to a scratch directory.

    argparse reports a usage error by raising SystemExit(2), which the
    console script turns into exit code 2. Standard output goes to out,
    when given.
    """
    files = files or {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out or io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        try:
            return main([str(Path(tmp) / a) if a in files else a for a in argv])
        except SystemExit as exc:
            return exc.code


formats = st.sampled_from(["text", "json"])
labels = st.sampled_from(["0", "1", "2", "3", "4", "a", "b", "a b", "{", "#", "F:", "0.5", ""])

# ---------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------

scx_texts = st.lists(st.lists(labels, min_size=0, max_size=6), max_size=6).map(
    lambda lines: "\n".join(" ".join(line) for line in lines)
)
cw_lines = st.one_of(
    st.lists(labels, max_size=6).map(lambda vs: "F: " + " ".join(vs)),
    st.lists(labels, max_size=3).map(lambda vs: "E: " + " ".join(vs)),
    st.lists(labels, max_size=2).map(lambda vs: "V: " + " ".join(vs)),
    st.sampled_from(["F:", "E: 0 0", "V:", "G: 0 1 2", "F: 0 1 2 # c", "0 1 2"]),
)
cw_texts = st.lists(cw_lines, max_size=8).map("\n".join)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "2", "3", "a", ""]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["simplices", "faces", "edges", "vertices", "x"]), inner, max_size=3),
    max_leaves=12,
)
json_texts = st.one_of(
    json_values.map(json.dumps),
    st.integers(1, 3000).map(lambda d: '{"faces": ' + "[" * d + "]" * d + "}"),
    st.integers(1, 3000).map(lambda d: "{" * d),
)
long_faces = st.sampled_from([
    "F: " + " ".join(f"v{i}" for i in range(LONG)),
    "F: " + " ".join(f"v{i % (LONG // 2)}" for i in range(LONG)),
    " ".join(f"v{i}" for i in range(LONG)),
    json.dumps({"faces": [[str(i) for i in range(LONG)]]}),
    "\n".join(f"F: 0 {i} {i + 1}" for i in range(1, LONG // 10)),
])
complex_texts = st.one_of(scx_texts, cw_texts, json_texts, long_faces)
complex_commands = st.sampled_from(["components", "surface-check", "orient", "classify", "classify3"])


@FEW
@given(complex_commands, complex_texts, st.sampled_from(["auto", "scx", "cw2"]), formats)
def test_complex_commands_are_total(cmd, text, fmt_in, fmt_out):
    assert cli([cmd, "in", "--input", fmt_in, "--format", fmt_out], {"in": text}) in EXITS


# ---------------------------------------------------------------------
# rotation systems and chord diagrams
# ---------------------------------------------------------------------

sign_vectors = st.sampled_from([
    "", "; u=", "; u=+", "; u=-", "; u={}", "; u={+,-}", "; u=+-", "; u= + - ", "; u=x",
    "; u=u=", "; u={{+}}", "; u=;", "; u=+,,-", " u=--", "; u=" + "+" * LONG, "u=+;u=-",
])
rotation_bodies = st.one_of(
    st.lists(st.sampled_from(["1", "2", "3", "12", "{1,2}", "{1}", "{}", "{,}", ",", "{{1,1}}", "}", "a"]),
             max_size=6).map(",".join),
    st.integers(1, LONG).map(lambda d: "{" * d + "1,1" + "}" * d),
    st.integers(1, LONG).map(lambda d: "{" * d),
    st.just(",".join(["{" + f"e{i},e{i}" + "}" for i in range(LONG // 10)])),
)


@FEW
@given(rotation_bodies, sign_vectors, formats)
def test_rot_classify_is_total(body, signs, fmt):
    # an argument without "{" names a file, so every text goes through one
    assert cli(["rot", "classify", "in", "--format", fmt], {"in": body + signs}) in EXITS
    if "{" in body:
        assert cli(["rot", "classify", body + signs, "--format", fmt]) in EXITS


chord_codes = st.one_of(
    st.text(alphabet="1234ab,{} ", max_size=16),
    st.integers(1, LONG).map(lambda d: "{" * d + "11" + "}" * d),
    st.just("".join(str(i % 10) for i in range(LONG))),
)


@FEW
@given(chord_codes, chord_codes, formats)
def test_chord_canon_and_iso_are_total(c1, c2, fmt):
    assert cli(["chord", "canon", c1, "--format", fmt]) in EXITS
    assert cli(["chord", "iso", c1, c2, "--format", fmt]) in EXITS


@FEW
@given(st.integers(-3, 5), st.one_of(st.none(), st.integers(-2, 4)), st.integers(-1, 9), formats)
def test_chord_enum_is_total(n, genus, bound, fmt):
    argv = ["chord", "enum", str(n), "--bound", str(bound), "--format", fmt]
    assert cli(argv + (["--genus", str(genus)] if genus is not None else [])) in EXITS


# ---------------------------------------------------------------------
# SLW-graphs
# ---------------------------------------------------------------------

slw_lines = st.one_of(
    st.sampled_from(["v P", "v Q", "v", "v P Q", "e a P P", "e b P Q", "e a P P", "e c Q P", "e a P",
                     "list n=0:", "list n=-1:", "list n=2:", "list n=x:", "list n=:", "list 0:", "graph:"]),
    st.lists(st.sampled_from(["a", "b", "c", "a^-1", "b^-1", "a^2", "^-1", "z"]), min_size=1, max_size=6)
    .map(" ".join),
)
slw_texts = st.one_of(
    st.lists(slw_lines, max_size=10).map(lambda lines: "\n".join(["graph:"] + lines)),
    st.lists(slw_lines, max_size=6).map("\n".join),
    st.sampled_from([
        "graph:\ne a P P\nlist n=0:\n" + " ".join(["a"] * LONG),
        "graph:\ne a P P\ne b P P\nlist n=0:\n" + " ".join(["a b a^-1 b^-1"] * (LONG // 4)),
        "graph:\ne a P P\nlist n=0:\na a\nlist n=0:\na^-1 a^-1",
    ]),
)


@FEW
@given(slw_texts, slw_texts, formats)
def test_slw_commands_are_total(t1, t2, fmt):
    files = {"one": t1, "two": t2}
    assert cli(["slw", "classify", "one", "--format", fmt], files) in EXITS
    assert cli(["slw", "equiv", "one", "two", "--format", fmt], files) in EXITS


def test_slw_equiv_of_a_15x15_torus_with_itself():
    text = slw_to_text(slw_from_complex(grid("torus", 15)))
    assert cli(["slw", "equiv", "t", "t"], {"t": text}) in EXITS


def test_slw_equiv_of_a_25x25_torus_with_itself():
    # 1250 lists and 1875 letters, each far past the recursion limit
    text = slw_to_text(slw_from_complex(grid("torus", 25)))
    assert cli(["slw", "equiv", "t", "t"], {"t": text}) == 0


@functools.cache
def renamed_grid(kind: str, n: int, quads: bool = False) -> tuple:
    """The SLW of an n x n grid surface and a copy with its labels shuffled, words rotated and lists shuffled."""
    s = slw_from_complex(grid(kind, n, quads))
    return s, shuffled(s, random.Random(0))


@pytest.mark.parametrize("kind, n, quads, edges", [("torus", 3, True, 18), ("klein", 6, False, 108),
                                                   ("torus", 25, False, 1875)])
def test_slw_equivalent_of_a_renamed_grid(kind, n, quads, edges):
    # a label-renamed 18-edge torus already takes the stack search past 20 s; one seed decides each
    s, r = renamed_grid(kind, n, quads)
    assert len(s.edges) == edges
    witness = slw_equivalent(s, r)
    assert witness is not None
    assert slw_equivalent(s, r, letter_map=witness) == witness


def test_slw_equiv_of_a_renamed_25x25_torus():
    s, r = renamed_grid("torus", 25)
    out = io.StringIO()
    assert cli(["slw", "equiv", "t", "r"], {"t": slw_to_text(s), "r": slw_to_text(r)}, out) == 0
    assert out.getvalue().startswith("equivalent\n")


def test_identity_map_extends_on_a_25x25_torus():
    s = slw_from_complex(grid("torus", 25))
    ident = {v: v for v in s.vertices}
    assert extends_to_homeomorphism(s, s, ident, {label: label for label in s.labels()}) is True


# ---------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------


@FEW
@given(st.one_of(st.sampled_from(["rcc/torus", "rot/R1", "chord/Ch1", "slw/klein"]), st.text(max_size=12)),
       formats)
def test_catalog_commands_are_total(name, fmt):
    assert cli(["catalog", "list", "--format", fmt]) in EXITS
    assert cli(["catalog", "show", name, "--format", fmt]) in EXITS


# ---------------------------------------------------------------------
# library parsers, called directly
# ---------------------------------------------------------------------


def total(parse, *args) -> None:
    """Call parse; a TopologyError is an answer, any other exception fails the test."""
    try:
        parse(*args)
    except TopologyError:
        pass


@FEW
@given(complex_texts, st.sampled_from(["auto", "scx", "cw2"]))
def test_complex_parsers_are_total(text, fmt):
    total(parse_complex, text, fmt)
    total(parse_cw2, text)
    total(parse_simplicial, text)


@FEW
@given(rotation_bodies, sign_vectors)
def test_rotation_parser_is_total(body, signs):
    total(parse_rotation, body + signs)


@FEW
@given(chord_codes)
def test_chord_parser_is_total(code):
    total(parse_chord_code, code)


@FEW
@given(slw_texts)
def test_slw_parser_is_total(text):
    total(parse_slw, text)


simplex_sets = st.frozensets(
    st.lists(st.one_of(st.sampled_from(["0", "1", "2", "3", "a"]), st.integers(0, 2)), max_size=5).map(tuple),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(simplex_sets)
def test_simplicial_complex_constructor_is_total(simplices):
    total(SimplicialComplex, simplices)


cell_labels = st.one_of(st.sampled_from(["0", "1", "2", "3", "a"]), st.integers(0, 2))
cw_cell_sets = st.tuples(
    st.frozensets(cell_labels, max_size=5),
    st.frozensets(st.lists(cell_labels, max_size=3).map(tuple), max_size=6),
    st.lists(st.one_of(st.lists(cell_labels, max_size=5).map(tuple), st.lists(cell_labels, max_size=4)),
             max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(cw_cell_sets)
def test_cw_complex_constructor_is_total(cells):
    total(CWComplex2, *cells)


# ---------------------------------------------------------------------
# error branches that no other test reaches
# ---------------------------------------------------------------------

ONE_LIST = parse_slw("graph:\ne a P P\nlist n=0:\na\n")
TWO_LISTS = parse_slw("graph:\ne a P P\nlist n=0:\na\nlist n=0:\na\n")

# name: (call, exception type or None for a value, message pattern or value)
ERROR_BRANCHES = {
    "json_empty_simplices": (lambda: parse_complex('{"simplices": []}'), ParseError, "must be a nonempty list"),
    "json_undecodable": (lambda: parse_complex("{bad"), ParseError, "bad JSON"),
    "unknown_format": (lambda: parse_complex("0 1", fmt="xyz"), ValueError, "unknown format 'xyz'"),
    "rotation_closes_too_early": (lambda: parse_rotation("{1}},{1"), ParseError, "unbalanced braces"),
    "rotation_empty_label": (lambda: parse_rotation("{{1,,1}}"), ParseError, "empty label in vertex group"),
    "embedding_without_vertices": (
        lambda: classify_embedding(rotation_system(())), Disconnected, "no vertices",
    ),
    "slw_bare_inverse": (
        lambda: parse_slw("graph:\ne a P P\nlist n=0:\n^-1"), MalformedWord, r"line 4: bad letter '\^-1'$",
    ),
    "slw_list_header": (
        lambda: parse_slw("graph:\ne a P P\nlist x:\na"), ParseError, "expected 'list n=<int>:'",
    ),
    "slw_graph_exponent_2": (
        lambda: slw_graph(["P"], [("a", "P", "P")], [WordList(0, ((Letter("a", 2),),))]),
        MalformedWord, "letter 'a' has exponent 2",
    ),
    "equivalent_list_counts_differ": (
        lambda: slw_equivalent(TWO_LISTS, ONE_LIST), SizeMismatch, "list counts differ: 2 vs 1",
    ),
    "extends_list_counts_differ": (
        lambda: extends_to_homeomorphism(TWO_LISTS, ONE_LIST, {"P": "P"}, {"a": "a"}), None, False,
    ),
    "extends_vertex_map_not_bijective": (
        lambda: extends_to_homeomorphism(ONE_LIST, ONE_LIST, {}, {"a": "a"}),
        NotIsomorphism, "vertex map is not a bijection",
    ),
    "genus_negative_boundary": (lambda: genus(0, True, -1), InvalidSurface, "negative boundary count"),
}


@pytest.mark.parametrize("name", sorted(ERROR_BRANCHES))
def test_error_branch(name):
    call, error, expect = ERROR_BRANCHES[name]
    if error is None:
        assert call() == expect
        return
    with pytest.raises(error, match=expect) as exc:
        call()
    assert type(exc.value) is error
