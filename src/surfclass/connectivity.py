"""Connected components, and the two traversals behind every connectivity
and orientability question: `classes` under pairs, and `two_colour` of a
signed graph, which succeeds iff the graph is balanced (Harary 1953).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from .complexes import Complex, empty_check, skeleton1, split_cells


def classes(nodes: Iterable[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]) -> list[list]:
    """The classes of nodes under the equivalence the pairs generate.

    Classes come in order of their first node; each lists its nodes
    breadth-first from that node, neighbours in pair order. Every pair
    must join two of the nodes.
    """
    adj: dict[Hashable, list] = {v: [] for v in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[Hashable] = set()
    out = []
    for start in adj:
        if start not in seen:
            seen.add(start)
            cls = [start]
            for v in cls:  # cls grows as it is read: a BFS queue
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        cls.append(w)
            out.append(cls)
    return out


def two_colour(
    n: int, arcs: Callable[[int], Iterable[tuple[Hashable, int, bool]]]
) -> tuple[list[bool | None], tuple[int, int, Hashable] | None]:
    """2-colour nodes 0..n-1 so that every arc is satisfied.

    An arc (key, j, flip) from node i asks j for i's colour, switched
    when flip is true; a self-arc with flip true is unsatisfiable. Each
    uncoloured node, lowest first, starts a BFS with colour False; the
    nodes are read in queue order and each node's arcs in the order
    arcs(i) yields them. Returns the colours and None, or the colours so
    far and the first unsatisfied arc as (i, j, key).
    """
    colour: list[bool | None] = [None] * n
    for start in range(n):
        if colour[start] is not None:
            continue
        colour[start] = False
        queue = [start]
        for i in queue:
            ci = colour[i]
            for key, j, flip in arcs(i):
                cj = colour[j]
                if cj is None:
                    colour[j] = ci != flip
                    queue.append(j)
                elif cj == (ci == flip):
                    return colour, (i, j, key)
    return colour, None


@dataclass(frozen=True)
class ComponentPartition:
    """Vertex components, ordered by their smallest contained label."""

    components: tuple[tuple[str, ...], ...]
    assignment: Mapping[str, int]

    def count(self) -> int:
        return len(self.components)


def components(cx: Complex) -> ComponentPartition:
    """Partition the vertices by 1-skeleton connectivity.

    Components are sorted vertex tuples, listed in order of their
    smallest label; the assignment maps each vertex to its component
    index in that order.
    """
    empty_check(cx)
    sk = skeleton1(cx)
    parts = tuple(tuple(sorted(c)) for c in classes(sorted(sk.vertices), sk.edges))
    assignment = {v: i for i, comp in enumerate(parts) for v in comp}
    return ComponentPartition(parts, assignment)


def is_connected(cx: Complex) -> bool:
    return components(cx).count() == 1


def component_subcomplexes(cx: Complex) -> list[Complex]:
    """The induced subcomplex of every component, in component order.

    One pass deals each cell to the component of its first vertex. A
    connected complex is returned as itself, which keeps its index.
    """
    part = components(cx)
    if part.count() == 1:
        return [cx]
    return split_cells(cx, lambda cell: part.assignment.get(cell[0], -1), part.count())
