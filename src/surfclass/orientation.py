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

from .complexes import Complex, Edge, SimplicialComplex, Simplex
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
    return tuple(zip(cell, cell[1:] + cell[:1]))


def _edge_signs(cell: tuple[str, ...]) -> dict[Edge, int]:
    # +1 on each edge the cycle runs along from its smaller end, -1 on the others
    signs = {}
    for a, b in induced_edge_orientations(cell):
        if a < b:
            signs[a, b] = 1
        else:
            signs[b, a] = -1
    return signs


def _orient(cells, cofaces, signs, oriented) -> OrientationResult:
    """Propagate an orientation across the facets shared by cells.

    signs(cell) gives the sign {facet: +1 or -1} the stored cell induces
    on each of its facets, and cofaces[facet] the indices of the cells
    on it. A neighbour inducing the same sign on a shared facet must
    flip. Facets are read in sorted order and their cofaces in index
    order; oriented(cell, flipped) is the tuple a witness reports.
    """
    induced = [signs(cell) for cell in cells]

    def arcs(i: int):
        own = induced[i]
        for facet in sorted(own):
            for j in cofaces[facet]:
                if j != i:
                    yield facet, j, induced[j][facet] == own[facet]

    flipped, conflict = two_colour(len(cells), arcs)
    if conflict is not None:
        i, j, facet = conflict
        return NonOrientable(facet, (oriented(cells[i], flipped[i]), oriented(cells[j], flipped[j])))
    return OrientationWitness(tuple(map(oriented, cells, flipped)))


def orient2(cx: Complex) -> OrientationResult:
    """Orient all 2-cells consistently, or report a conflict.

    Assumes the complex is a connected surface (every edge lies in at
    most two 2-cells). A flipped cycle keeps its first vertex.
    """
    return _orient(cx.cells2(), cx.incidence.edge_cells, _edge_signs, _oriented_cycle)


def _oriented_cycle(cell: tuple[str, ...], flipped: bool) -> tuple[str, ...]:
    return (cell[0],) + cell[:0:-1] if flipped else cell


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
    return _orient(cx.tetrahedra(), cx.incidence.triangle_tets, induced_triangle_parities, _oriented_tetra)


def _oriented_tetra(t: Simplex, flipped: bool) -> tuple[str, ...]:
    return t[:2] + (t[3], t[2]) if flipped else t
