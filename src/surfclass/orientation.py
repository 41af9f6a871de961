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

from collections import deque
from dataclasses import dataclass

from .complexes import Complex, Edge, SimplicialComplex, Simplex, cycle_edges


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
    flipped: dict[int, bool] = {}  # cell index -> reversed against its stored cycle

    def chosen(i: int) -> tuple[str, ...]:
        cell = cells[i]
        return (cell[0],) + tuple(reversed(cell[1:])) if flipped[i] else cell

    for start in range(len(cells)):
        if start in flipped:
            continue
        flipped[start] = False
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for e in sorted(cycle_edges(cells[i])):
                # whether i's chosen orientation runs along e from e[0] to e[1];
                # a consistent neighbor runs the other way
                fwd = _runs(cells[i], e) != flipped[i]
                for j in incidence[e]:
                    if j == i:
                        continue
                    runs_j = _runs(cells[j], e)
                    if j not in flipped:
                        flipped[j] = runs_j == fwd
                        queue.append(j)
                    elif (runs_j != flipped[j]) == fwd:
                        return NonOrientable(e, (_smallest_first(chosen(i)), _smallest_first(chosen(j))))
    return OrientationWitness(tuple(_smallest_first(chosen(i)) for i in range(len(cells))))


# ---------------------------------------------------------------------
# dimension 3
# ---------------------------------------------------------------------


def _perm_parity(seq: tuple[str, ...]) -> int:
    """+1 for an even permutation of sorted order, -1 for odd."""
    seq = tuple(seq)
    order = sorted(range(len(seq)), key=lambda i: seq[i])
    swaps = 0
    order = list(order)
    for i in range(len(order)):
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], order[i]
            swaps += 1
    return 1 if swaps % 2 == 0 else -1


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
    # orientation per tetra as a parity sign relative to sorted order
    sign: dict[int, int] = {}
    for start in range(len(tets)):
        if start in sign:
            continue
        sign[start] = 1
        queue = deque([start])
        while queue:
            i = queue.popleft()
            induced = parities[i]
            for tri in sorted(induced):
                p = induced[tri] * sign[i]
                for j in incidence[tri]:
                    if j == i:
                        continue
                    q = parities[j][tri]
                    if j not in sign:
                        sign[j] = -p * q  # make the induced parities opposite
                        queue.append(j)
                    elif sign[j] * q != -p:
                        return NonOrientable(
                            tri, (_oriented_tetra(tets[i], sign[i]), _oriented_tetra(tets[j], sign[j]))
                        )
    return OrientationWitness(tuple(_oriented_tetra(tets[i], sign[i]) for i in range(len(tets))))


def _oriented_tetra(t: Simplex, s: int) -> tuple[str, ...]:
    return t if s == 1 else t[:2] + (t[3], t[2])