from __future__ import annotations

import itertools
from collections import Counter, defaultdict

from surfclass import (
    CWComplex2,
    NonOrientable,
    OrientationWitness,
    close,
    cw_complex,
    induced_edge_orientations,
    induced_triangle_parities,
    orient2,
    orient3,
)
from surfclass.orientation import _perm_parity

TETRA_BOUNDARY = close([("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")])
TWISTED_QUADS = cw_complex([("0", "1", "2", "3"), ("2", "3", "4", "5"), ("0", "1", "4", "5")])


def _brute_force_orientable(cx) -> bool:
    """Independent route: try all 2^F orientation sign patterns."""
    cells = cx.cells2()
    edge_dirs = []
    for cell in cells:
        fwd = induced_edge_orientations(cell)
        rev = induced_edge_orientations((cell[0],) + tuple(reversed(cell[1:])))
        edge_dirs.append((fwd, rev))
    for signs in itertools.product((0, 1), repeat=len(cells)):
        per_edge = defaultdict(list)
        for i, s in enumerate(signs):
            for a, b in edge_dirs[i][s]:
                per_edge[frozenset((a, b))].append((a, b))
        # interior edges must be traversed once in each direction
        if all(len(ds) == 1 or ds[0] == (ds[1][1], ds[1][0]) for ds in per_edge.values()):
            return True
    return False


def test_induced_edge_orientations():
    assert induced_edge_orientations(("0", "1", "2")) == (("0", "1"), ("1", "2"), ("2", "0"))


def test_tetra_boundary_witness():
    res = orient2(TETRA_BOUNDARY)
    assert isinstance(res, OrientationWitness)
    assert res.cells[0] == ("0", "1", "2")
    assert set(res.cells) == {
        ("0", "1", "2"),
        ("0", "3", "1"),
        ("0", "2", "3"),
        ("1", "3", "2"),
    }


def test_witness_edges_pairwise_opposite():
    res = orient2(TETRA_BOUNDARY)
    seen: Counter = Counter()
    for cell in res.cells:
        seen.update(induced_edge_orientations(cell))
    assert len(seen) == 12
    for (a, b), n in seen.items():
        assert n == 1 and seen[(b, a)] == 1


def test_twisted_quads_conflict():
    res = orient2(TWISTED_QUADS)
    assert isinstance(res, NonOrientable)
    assert res.conflict == ("4", "5")
    assert len(res.cells) == 2


def test_orient2_handles_disconnected_input():
    cx = close([("0", "1", "2"), ("5", "6", "7")])
    res = orient2(cx)
    assert isinstance(res, OrientationWitness)
    assert len(res.cells) == 2


def test_orient2_matches_brute_force_on_small_surfaces():
    cases = [
        TETRA_BOUNDARY,
        TWISTED_QUADS,
        close([("0", "1", "2"), ("0", "1", "3")]),
        cw_complex([("0", "1", "5", "4"), ("0", "2", "3", "1"), ("2", "4", "5", "3")]),
        cw_complex([("0", "1", "3", "2"), ("0", "1", "4", "5"), ("2", "3", "5", "4")]),
    ]
    for cx in cases:
        got = isinstance(orient2(cx), OrientationWitness)
        assert got == _brute_force_orientable(cx)


def test_orient2_keeps_the_first_vertex_of_each_stored_cycle():
    # cycles built directly need not start at their smallest vertex; a
    # witness reports each as stored, or reversed about its first vertex
    base = cw_complex([("0", "1", "2", "3"), ("2", "3", "4", "5")])
    cx = CWComplex2(base.vertices, base.edges, (("1", "2", "3", "0"), ("2", "3", "4", "5")))
    assert orient2(cx) == OrientationWitness((("1", "2", "3", "0"), ("2", "5", "4", "3")))


def test_triangle_parities_of_even_and_odd_orderings():
    even = induced_triangle_parities(("0", "1", "2", "3"))
    odd = induced_triangle_parities(("1", "0", "2", "3"))
    assert set(even) == set(odd)
    for tri in even:
        assert even[tri] == -odd[tri]


def ref_perm_parity(seq):
    """The swap-counting parity the inversion count replaced."""
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    swaps = 0
    for i in range(len(order)):
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], order[i]
            swaps += 1
    return 1 if swaps % 2 == 0 else -1


def test_perm_parity_matches_swap_counting():
    for labels in ("0123", "01234", ("2", "10", "x", "b7", "11")):
        for seq in itertools.permutations(labels):
            assert _perm_parity(seq) == ref_perm_parity(seq)


def test_triangle_parities_of_every_ordering():
    for tet in itertools.permutations(("3", "10", "a", "2")):
        base = ref_perm_parity(tet)
        srt = tuple(sorted(tet))
        want = {srt[:i] + srt[i + 1 :]: base * (-1) ** i for i in range(4)}
        assert induced_triangle_parities(tet) == want


def test_orient3_single_tetra():
    res = orient3(close([("0", "1", "2", "3")]))
    assert isinstance(res, OrientationWitness)
    assert res.cells == (("0", "1", "2", "3"),)


def test_orient3_boundary_of_4_simplex():
    tets = [tuple(sorted(t)) for t in itertools.combinations("01234", 4)]
    res = orient3(close(tets))
    assert isinstance(res, OrientationWitness)
    # consistency: every shared triangle inherits opposite parities
    seen: dict = defaultdict(list)
    for cell in res.cells:
        for tri, p in induced_triangle_parities(cell).items():
            seen[tri].append(p)
    for tri, ps in seen.items():
        assert sorted(ps) == [-1, 1], tri
