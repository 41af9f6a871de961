"""Connected components of the 1-skeleton."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Mapping

from .complexes import Complex, empty_check, induced_subcomplex, skeleton1


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
    adj: dict[str, list[str]] = defaultdict(list)
    for a, b in sk.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[str] = set()
    parts: list[tuple[str, ...]] = []
    for start in sorted(sk.vertices):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = [start]
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        parts.append(tuple(sorted(comp)))
    parts.sort(key=lambda c: c[0])
    assignment = {v: i for i, comp in enumerate(parts) for v in comp}
    return ComponentPartition(tuple(parts), assignment)


def is_connected(cx: Complex) -> bool:
    return components(cx).count() == 1


def component_subcomplexes(cx: Complex) -> list[Complex]:
    """The induced subcomplex of every component, in component order.

    A connected complex is returned as itself, which keeps its index.
    """
    parts = components(cx).components
    if len(parts) == 1:
        return [cx]
    return [induced_subcomplex(cx, comp) for comp in parts]
