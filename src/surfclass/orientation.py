"""Orientability by orientation propagation across shared cells.

An ordered cell induces directions on its boundary: the triple
(v0,v1,v2) induces the directed edges (v0,v1),(v1,v2),(v2,v0), and a CW
face cycle induces its consecutive pairs the same way. Two 2-cells are
consistently oriented when they traverse their shared edge in opposite
directions; propagation is a BFS from the first cell in canonical
order, which keeps its stored orientation. The same scheme runs one
dimension up for tetrahedra, where the shared cells are triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import Complex, Edge, SimplicialComplex, Simplex, cycle_edges
from .connectivity import two_colour


@dataclass(frozen=True)
class OrientationWitness:
    """A consistent orientation: one ordered vertex tuple per cell."""

    cells: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class NonOrientable:
    """Evidence of impossibility: two cells forcing the same direction."""

    conflict: tuple[str, ...]  # the shared edge (or triangle)
    cells: tuple[tuple[str, ...], tuple[str, ...]]


OrientationResult = OrientationWitness | NonOrientable


def induced_edge_orientations(cell: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    """Directed boundary edges of an ordered 2-cell (cyclic pairs)."""
    k = len(cell)
    return tuple((cell[i], cell[(i + 1) % k]) for i in range(k))


def _runs(cell: tuple[str, ...], e: Edge) -> bool:
    # whether the cycle traverses e from e[0] to e[1]
    return cell[(cell.index(e[0]) + 1) % len(cell)] == e[1]


def _smallest_first(cell: tuple[str, ...]) -> tuple[str, ...]:
    # canonical representative of the oriented cycle: rotate only
    i = cell.index(min(cell))
    return cell[i:] + cell[:i]


def orient2(cx: Complex) -> OrientationResult:
    """Orient all 2-cells consistently, or report a conflict.

    Assumes the complex is a connected surface (every edge lies in at
    most two 2-cells).
    """
    cells = cx.cells2()
    incidence = cx.incidence.edge_cells

    def arcs(i: int):
        # a neighbor running along the shared edge the same way must flip
        cell = cells[i]
        for e in sorted(cycle_edges(cell)):
            runs = _runs(cell, e)
            for j in incidence[e]:
                if j != i:
                    yield e, j, _runs(cells[j], e) == runs

    flipped, conflict = two_colour(len(cells), arcs)

    def chosen(i: int) -> tuple[str, ...]:
        cell = cells[i]
        return _smallest_first((cell[0],) + tuple(reversed(cell[1:])) if flipped[i] else cell)

    if conflict is not None:
        i, j, e = conflict
        return NonOrientable(e, (chosen(i), chosen(j)))
    return OrientationWitness(tuple(chosen(i) for i in range(len(cells))))


# ---------------------------------------------------------------------
# dimension 3
# ---------------------------------------------------------------------


def _perm_parity(seq: tuple[str, ...]) -> int:
    """+1 for an even permutation of sorted order, -1 for odd."""
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return 1 if inversions % 2 == 0 else -1


def induced_triangle_parities(tetra: tuple[str, ...]) -> dict[Simplex, int]:
    """Parity each boundary triangle inherits from an ordered tetrahedron.

    +1 means the sorted triangle tuple itself; -1 its reversal.
    """
    base = _perm_parity(tetra)
    out: dict[Simplex, int] = {}
    srt = tuple(sorted(tetra))
    for i in range(4):
        tri = srt[:i] + srt[i + 1 :]
        out[tri] = base * (1 if i % 2 == 0 else -1)
    return out


def orient3(cx: SimplicialComplex) -> OrientationResult:
    """Orientation propagation over tetrahedra sharing triangles.

    Assumes a connected 3-complex whose triangles lie in at most two
    tetrahedra.
    """
    tets = cx.tetrahedra()
    incidence = cx.incidence.triangle_tets
    parities = [induced_triangle_parities(t) for t in tets]

    def arcs(i: int):
        # a neighbor inducing the same parity on the shared triangle must flip
        induced = parities[i]
        for tri in sorted(induced):
            for j in incidence[tri]:
                if j != i:
                    yield tri, j, parities[j][tri] == induced[tri]

    flipped, conflict = two_colour(len(tets), arcs)
    if conflict is not None:
        i, j, tri = conflict
        return NonOrientable(tri, (_oriented_tetra(tets[i], flipped[i]), _oriented_tetra(tets[j], flipped[j])))
    return OrientationWitness(tuple(_oriented_tetra(t, f) for t, f in zip(tets, flipped)))


def _oriented_tetra(t: Simplex, flipped: bool) -> tuple[str, ...]:
    return t[:2] + (t[3], t[2]) if flipped else t
