from __future__ import annotations

import io
import json

import pytest

from surfclass.cli import _COMMANDS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def sphere_file(tmp_path):
    p = tmp_path / "sphere.cw2"
    p.write_text("F: 0 1 2\nF: 0 1 3\nF: 0 2 3\nF: 1 2 3\n", encoding="utf-8")
    return str(p)


@pytest.fixture()
def twisted_file(tmp_path):
    p = tmp_path / "twisted.cw2"
    p.write_text("F: 0 1 2 3\nF: 2 3 4 5\nF: 0 1 4 5\n", encoding="utf-8")
    return str(p)


def test_classify_sphere_line(capsys, sphere_file):
    code, out, _ = run(capsys, "classify", sphere_file)
    assert code == 0
    assert out == "S2: orientable genus 0, 0 boundary, χ=2\n"


def test_classify_json_carries_same_verdict(capsys, sphere_file):
    code, out, _ = run(capsys, "classify", sphere_file, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["components"] == [
        {"name": "S2", "orientable": True, "genus": 0, "boundary": 0, "euler": 2}
    ]


def test_classify_multi_component_prefixes(capsys, tmp_path):
    p = tmp_path / "two.scx"
    p.write_text("0 1 2\n3 4 5\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(p))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("component 0: F_{0,1}:")
    assert lines[1].startswith("component 1: F_{0,1}:")


def test_classify_non_surface_exits_4_with_verdict(capsys, tmp_path):
    p = tmp_path / "bad.scx"
    p.write_text("0 1 2\n0 1 3\n0 1 4\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(p))
    assert code == 4
    assert "verdict: no" in out


def test_components_output(capsys, tmp_path):
    p = tmp_path / "graph.scx"
    p.write_text("1\n2\n3\n4\n5\n6\n1 2\n3 5\n2 4\n1 4\n", encoding="utf-8")
    code, out, _ = run(capsys, "components", str(p))
    assert code == 0
    assert out.splitlines() == [
        "3 components",
        "component 0: 1 2 4",
        "component 1: 3 5",
        "component 2: 6",
    ]


def test_surface_check_pass_and_fail(capsys, sphere_file, tmp_path):
    code, out, _ = run(capsys, "surface-check", sphere_file)
    assert code == 0
    assert out.splitlines() == ["surface: yes", "closed: yes", "boundary components: 0"]
    p = tmp_path / "pinch.scx"
    p.write_text("0 1 2\n0 3 4\n", encoding="utf-8")
    code, out, _ = run(capsys, "surface-check", str(p))
    assert code == 4
    assert out.splitlines()[0] == "surface: no"


def test_orient_conflict_line(capsys, twisted_file):
    code, out, _ = run(capsys, "orient", twisted_file)
    assert code == 0
    assert out == "non-orientable (conflict on edge {4,5})\n"


def test_orient_witness(capsys, sphere_file):
    code, out, _ = run(capsys, "orient", sphere_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orientable"
    assert len(lines) == 5


def test_orient_json(capsys, twisted_file):
    code, out, _ = run(capsys, "orient", twisted_file, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["orientable"] is False
    assert obj["conflict"] == ["4", "5"]


@pytest.mark.parametrize(
    "text, code, out",
    [("0 1 2\n0 1 3\n0 1 4\n", 4, "verdict: no (edge {0,1} lies in 3 2-cells)\n"),
     ("0 1 2 3\n0 1 2 4\n0 1 2 5\n", 4, "verdict: no (triangle 0 1 2 lies in 3 tetrahedra)\n"),
     ("0 1 2\n0 1 3\n1 4\n", 0, "orientable\n0 1 2\n0 3 1\n"),
     ("0 1 2 3\n0 1 4\n", 0, "orientable\n0 1 2 3\n")],
    ids=["edge-in-3-cells", "triangle-in-3-tets", "loose-edge", "loose-triangle"],
)
def test_orient_rejects_only_branched_cells(capsys, tmp_path, text, code, out):
    p = tmp_path / "in.scx"
    p.write_text(text, encoding="utf-8")
    assert run(capsys, "orient", str(p)) == (code, out, "")


def test_orient_dispatches_to_dimension_3(capsys, tmp_path):
    p = tmp_path / "tet.scx"
    p.write_text("0 1 2 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "orient", str(p))
    assert code == 0
    assert out.splitlines() == ["orientable", "0 1 2 3"]


def test_classify3(capsys, tmp_path):
    p = tmp_path / "tet.scx"
    p.write_text("0 1 2 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify3", str(p))
    assert code == 0
    assert out.splitlines() == ["3-manifold: yes", "closed: no", "boundary: S2"]
    p2 = tmp_path / "tri.scx"
    p2.write_text("0 1 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify3", str(p2))
    assert code == 4
    assert out.splitlines()[0] == "3-manifold: no"


@pytest.mark.parametrize(
    "name, text",
    [("sphere.cw2", "F: 0 1 2\nF: 0 1 3\nF: 0 2 3\nF: 1 2 3\n"),
     ("sphere.json", '{"faces": [["0", "1", "2"], ["0", "1", "3"], ["0", "2", "3"], ["1", "2", "3"]]}'),
     ("edge.cw2", "E: 0 1\n"), ("vertex.cw2", "V: 0\n")],
    ids=["cw2", "json", "edge", "vertex"],
)
def test_classify3_on_cw_input_is_a_verdict(capsys, tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "classify3", str(p))
    assert (code, out, err) == (4, "3-manifold: no\nreason: complex has no 3-cells\n", "")
    code, out, _ = run(capsys, "classify3", str(p), "--format", "json")
    assert code == 4
    assert json.loads(out) == {"manifold": False, "reason": "complex has no 3-cells"}


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\n0 1 3\n"))
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    assert out.startswith("F_{0,1}:")


def test_input_format_flag(capsys, tmp_path):
    p = tmp_path / "amb.txt"
    p.write_text("0 1 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(p), "--input", "scx")
    assert code == 0
    code, _, err = run(capsys, "classify", str(p), "--input", "cw2")
    assert code == 3
    assert "error:" in err


def test_parse_error_exit_3(capsys, tmp_path):
    p = tmp_path / "bad.scx"
    p.write_text("0 0 1\n", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(p))
    assert code == 3
    assert "line 1" in err


@pytest.mark.parametrize(
    "doc",
    ['{"faces": 5}', '{"edges": [["1"]]}', '{"faces": [5]}', '{"faces": [["0", "1", ["2"]]]}',
     '{"edges": [["1", "1"]]}', '{"vertices": "abc"}', '{"simplices": [3]}',
     '{"simplices": [[1, 2, true]]}', '{"faces": [["0", "1", false]]}',
     '{"faces": [[' + ", ".join(f'"{i}"' for i in range(10**4)) + ', true]]}'],
    ids=lambda doc: doc if len(doc) < 40 else "long-face",
)
def test_malformed_json_shape_exit_3(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(doc, encoding="utf-8")
    code, out, err = run(capsys, "classify", str(p))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err) <= 160


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "classify", "no-such-file")
    assert code == 3


def test_slw_equiv_and_classify(capsys, tmp_path):
    a = tmp_path / "a.slw"
    a.write_text("graph:\nv P\ne a P P\ne b P P\nlist n=0:\na b a^-1 b^-1\n", encoding="utf-8")
    b = tmp_path / "b.slw"
    b.write_text("graph:\nv Q\ne x Q Q\ne y Q Q\nlist n=0:\nx y x^-1 y^-1\n", encoding="utf-8")
    code, out, _ = run(capsys, "slw", "equiv", str(a), str(b))
    assert code == 0
    assert out.splitlines()[0] == "equivalent"
    k = tmp_path / "k.slw"
    k.write_text("graph:\nv P\ne a P P\ne b P P\nlist n=0:\na a b b\n", encoding="utf-8")
    code, out, _ = run(capsys, "slw", "equiv", str(a), str(k))
    assert code == 0
    assert out == "not equivalent\n"
    s = tmp_path / "s.slw"
    s.write_text("graph:\nv P\ne a P P\nlist n=0:\na\nlist n=0:\na^-1\n", encoding="utf-8")
    code, out, _ = run(capsys, "slw", "equiv", str(a), str(s))
    assert code == 0
    assert out.startswith("not equivalent (")
    code, out, _ = run(capsys, "slw", "classify", str(k))
    assert code == 0
    assert out.startswith("Kl:")


def test_rot_classify_inline_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "rot", "classify", "{1212}, u={- +}")
    assert code == 0
    assert out.startswith("Kl:")
    p = tmp_path / "r.rot"
    p.write_text("{12, 12}\n", encoding="utf-8")
    code, out, _ = run(capsys, "rot", "classify", str(p))
    assert code == 0
    assert out.startswith("S2:")


def test_chord_commands(capsys):
    code, out, _ = run(capsys, "chord", "canon", "2121")
    assert (code, out) == (0, "1212\n")
    code, out, _ = run(capsys, "chord", "iso", "1212", "1122")
    assert (code, out) == (0, "not isomorphic\n")
    code, out, _ = run(capsys, "chord", "enum", "3")
    assert code == 0
    assert len(out.splitlines()) == 5
    code, out, _ = run(capsys, "chord", "enum", "3", "--genus", "0")
    assert out.splitlines() == ["112233", "112332"]


def test_chord_enum_bound_exit_2(capsys):
    code, _, err = run(capsys, "chord", "enum", "9")
    assert code == 2
    assert "bound" in err


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.splitlines()
    assert "rcc/mobius" in names and names == sorted(names)
    code, out, _ = run(capsys, "catalog", "show", "rot/R21")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name: rot/R21"
    assert "expected: T2" in lines
    assert lines[-1] == "{{1,2,1,2}}"


def test_catalog_show_unknown_exit_2(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 2


def test_reruns_are_byte_identical(capsys, sphere_file):
    _, out1, _ = run(capsys, "classify", sphere_file)
    _, out2, _ = run(capsys, "classify", sphere_file)
    assert out1 == out2
    _, j1, _ = run(capsys, "classify", sphere_file, "--format", "json")
    _, j2, _ = run(capsys, "classify", sphere_file, "--format", "json")
    assert j1 == j2


MINIMAL_ARGVS = {
    "components f": {"command": "components", "file": "f", "format": "text", "input": "auto"},
    "surface-check f": {"command": "surface-check", "file": "f", "format": "text",
                        "input": "auto"},
    "orient f": {"command": "orient", "file": "f", "format": "text", "input": "auto"},
    "classify f": {"command": "classify", "file": "f", "format": "text", "input": "auto"},
    "classify3 f": {"command": "classify3", "file": "f", "format": "text", "input": "auto"},
    "slw equiv a b": {"command": "slw", "slw_command": "equiv", "file1": "a", "file2": "b",
                      "format": "text"},
    "slw classify f": {"command": "slw", "slw_command": "classify", "file": "f", "format": "text"},
    "rot classify r": {"command": "rot", "rot_command": "classify", "rotation": "r",
                       "format": "text"},
    "chord canon c": {"command": "chord", "chord_command": "canon", "code": "c", "format": "text"},
    "chord iso c d": {"command": "chord", "chord_command": "iso", "code1": "c", "code2": "d",
                      "format": "text"},
    "chord enum 3": {"command": "chord", "chord_command": "enum", "n": 3, "genus": None,
                     "bound": 8, "format": "text"},
    "catalog list": {"command": "catalog", "catalog_command": "list", "format": "text"},
    "catalog show x": {"command": "catalog", "catalog_command": "show", "name": "x",
                       "format": "text"},
}


@pytest.mark.parametrize("argv", MINIMAL_ARGVS)
def test_namespace_keys_and_defaults(argv):
    args = vars(build_parser().parse_args(argv.split()))
    handler = args.pop("func")
    assert list(args.items()) == list(MINIMAL_ARGVS[argv].items())
    words = [v for k, v in args.items() if k == "command" or k.endswith("_command")]
    assert handler.__name__ == "_cmd_" + "_".join(words).replace("-", "_")


# every command word and group asks for help, then four usage errors
HELP_AND_USAGE_ARGVS = [["-h"]] + [words.split() + ["-h"] for words, *_ in _COMMANDS] + [
    [], ["bogus"], ["chord", "enum", "x"], ["classify"]]


def exit_of(call, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        call(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_help_and_usage_bytes_match_a_fresh_parser(capsys, monkeypatch):
    # the shared parser reads the terminal width on each call, as a fresh one does
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in HELP_AND_USAGE_ARGVS:
            fresh = exit_of(build_parser.__wrapped__().parse_args, argv, capsys)
            assert fresh[0] == (0 if "-h" in argv else 2)
            for _ in range(2):
                assert exit_of(main, argv, capsys) == fresh, (columns, argv)


def test_parser_is_built_once():
    assert build_parser() is build_parser()
    assert build_parser.__wrapped__() is not build_parser()


@pytest.mark.parametrize("argv", MINIMAL_ARGVS)
def test_mutating_a_namespace_leaves_the_next_defaults(argv):
    first = build_parser().parse_args(argv.split())
    for key in vars(first):
        setattr(first, key, "changed")
    first.extra = "added"
    expected = vars(build_parser.__wrapped__().parse_args(argv.split()))
    assert vars(build_parser().parse_args(argv.split())) == expected


def test_usage_error_leaves_the_next_call_unchanged(capsys):
    good = ["chord", "enum", "3"]
    before = run(capsys, *good)
    assert exit_of(main, ["chord", "enum", "3", "--bound", "x"], capsys)[0] == 2
    assert run(capsys, *good) == before
    assert before == (0, "112233\n112323\n112332\n121323\n123123\n", "")
