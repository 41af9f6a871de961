"""Self-tests for the benchmark's generators, oracles and span metrics.

    PYTHONPATH=src python -m pytest -q bench/test_gen.py

Each generated family is checked at its smallest size against the
library, so a wrong oracle cannot pass as a wrong library verdict.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import surfclass as sc  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PIECES = ("torus", "klein", "disk", "annulus", "mobius", "sphere")


def _types(types) -> list[tuple]:
    return [(t.orientable, t.genus, t.boundary, t.euler, t.name()) for t in types]


@pytest.mark.parametrize("fmt", ["scx", "cw2"])
@pytest.mark.parametrize("family,parts", [(p, ()) for p in PIECES]
                         + [("union", PIECES[:3]), ("union", PIECES[3:]),
                            ("extra_face", ()), ("pinch", ("klein",)), ("pinch", ("sphere",))])
def test_surface_families_at_smallest_size(family, parts, fmt):
    inp = gen.surface_input(family, 3, fmt, random.Random(1), parts)
    cx = sc.parse_complex(inp.text)
    if isinstance(inp.expected, gen.Defect):
        with pytest.raises(sc.NotSurface) as err:
            sc.classify_surface(cx)
        assert err.value.component == inp.expected.component
        assert workloads._defect_matches(err.value.defect, inp.expected)
    else:
        assert _types(sc.classify_surface(cx)) == _types(inp.expected)


@pytest.mark.parametrize("family,n", [("ball", 1), ("solid_torus", 3), ("torus3", 3),
                                      ("suspension", 1), ("pinch", 2), ("extra_tet", 2)])
def test_manifold_families_at_smallest_size(family, n):
    inp = gen.manifold_input(family, n, random.Random(2))
    chk = sc.is_3manifold(sc.parse_complex(inp.text))
    if isinstance(inp.expected, gen.Defect):
        assert not chk.manifold
        assert workloads._defect_matches(chk.defect, inp.expected)
    else:
        assert chk.manifold and chk.closed == inp.expected.closed
        assert _types(chk.boundary) == _types(inp.expected.boundary)


@pytest.mark.parametrize("kind,fixture", [("torus", "rcc/torus"), ("klein", "rcc/klein")])
def test_three_by_three_grids_agree_with_catalog(kind, fixture):
    cells, expected = gen.grid_surface(kind, 3, 3, quads=True)
    text = gen.render(gen.relabel(cells, gen.Labeler(random.Random(3)).fresh(
        v for c in cells for v in c)), "cw2", random.Random(3))
    want = sc.catalog_get(fixture).expected
    assert _types([expected]) == _types([want])
    assert _types(sc.classify_surface(sc.parse_complex(text))) == _types([want])


@pytest.mark.parametrize("n", range(7))
def test_chord_classes_match_a007769(n):
    assert len(gen.chord_classes(n)) == gen.A007769[n]


def test_chord_oracles_match_library():
    table = gen.chord_classes(4)
    codes = sc.enumerate_chords(4)
    assert {gen.chord_key(c) for c in codes} == set(table)
    for c in codes:
        assert gen.chord_genus(c) == sc.classify_embedding(sc.chord_to_rotation(c)).genus
    rng = random.Random(4)
    for n in (1, 2, 5, 12):
        code = gen.random_chord_code(n, rng)
        assert gen.chord_least_code(code) == sc.chord_canonical(code)
        assert gen.chord_key(code) == gen.chord_key(gen.chord_variant(code, rng))


def test_rotation_oracle_matches_catalog_and_library():
    for name in sc.catalog_list():
        fx = sc.catalog_get(name)
        if fx.kind != "rot":
            continue
        darts = [list(v) for v in fx.payload.rotations]
        assert _types([gen.rotation_type(darts, dict(fx.payload.signs))]) == _types([fx.expected])
    rng = random.Random(5)
    for v, e in [(1, 1), (2, 1), (3, 6), (6, 9)]:
        darts, signs = gen.random_rotation(v, e, rng)
        got = sc.classify_embedding(sc.parse_rotation(gen.rotation_text(darts, signs)))
        assert _types([got]) == _types([gen.rotation_type(darts, signs)])


@pytest.mark.parametrize("kind", ["tetra", "annulus", "mobius", "chain345", "chain354", "chain3456"])
def test_small_slw_faces(kind):
    rng = random.Random(6)
    faces, expected = gen.small_faces(kind, rng)
    s1 = sc.parse_slw(gen.slw_text(faces, rng)[0])
    assert _types([sc.classify_slw(s1)]) == _types([expected])
    if kind in ("tetra", "chain345"):
        s2 = sc.parse_slw(gen.rename_slw_letters(gen.slw_text(faces, rng)[0], rng))
        witness = sc.slw_equivalent(s1, s2)
        assert witness is not None
        assert sc.slw_equivalent(s1, s2, letter_map=witness) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def first_cycle(seed, sub):
        (tmp_path / sub).mkdir()
        return [op.text for op in next(workloads.WORKLOADS[name](sc, seed, str(tmp_path / sub)))]

    assert first_cycle(7, "a") == first_cycle(7, "b")
    assert first_cycle(7, "a2") != first_cycle(8, "c")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cycle_verdicts_and_layer_metrics(name, tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    cycles = workloads.WORKLOADS[name](sc, 9, str(tmp_path))
    ops = next(cycles)
    if name == "search":  # the slowest ops here are the ones the other cycles repeat
        ops = ops[:1] + [op for op in ops[1:] if op.family not in ("chord_enum", "slw_inequiv")]
    tr = spans.Tracer()
    inputs = []
    for i, op in enumerate(ops):
        tr.input_id = i
        with tr.span("input"):
            with tr.span("call"):
                try:
                    outcome = op.run()
                except Exception as exc:
                    outcome = exc
            with tr.span("stages"):
                try:
                    op.stages(tr)
                except RecursionError:
                    pass
        verdict = op.check(outcome)
        known_defect = name == "search" and i == 0
        assert verdict == ("failed" if known_defect else "ok"), (op.family, outcome)
        inputs.append({"id": i, "family": op.family, "cells": op.cells, "fit": op.fit,
                       "repeat": op.repeat, "verdict": verdict})
    values = spans.layer_metrics(tr, inputs)
    assert {m["name"] for m in spec["per_layer"]} == set(values)
