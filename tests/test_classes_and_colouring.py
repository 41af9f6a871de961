"""One class traversal and one signed 2-colouring answer every question.

`connectivity.classes` and `connectivity.two_colour` replaced five
hand-rolled traversals (union-find or BFS) and four signed-graph
2-colourings.  The references below are copies of the replaced SLW and
rotation-system helpers; every check must agree with them exactly, on
the catalog, on SLWs rebuilt from complexes and on drawn rotation
systems, connected or not.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import catalog_get, catalog_list, rotation_system, slw_from_complex
from surfclass.connectivity import classes, two_colour
from surfclass.errors import Disconnected
from surfclass.rotation import _require_connected, rs_orientable
from surfclass.slw import (
    _boundary_circles,
    _corner_classes,
    _orientable_gluing,
    _slw_components,
)
from test_incidence import grid, pinched

# =====================================================================
# Reference: the replaced helpers
# =====================================================================


def ref_corner_classes(s):
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    darts_at = defaultdict(list)
    for label, tail, head in s.edges:
        for dart in ((label, "tail"), (label, "head")):
            parent[dart] = dart
        darts_at[tail].append((label, "tail"))
        darts_at[head].append((label, "head"))
    for wl in s.lists:
        for w in wl.words:
            for i, letter in enumerate(w):
                nxt = w[(i + 1) % len(w)]
                arrive = (letter.edge, "head" if letter.exp == 1 else "tail")
                depart = (nxt.edge, "tail" if nxt.exp == 1 else "head")
                union(arrive, depart)
    return {v: len({find(d) for d in darts_at[v]}) for v in s.vertices}


def ref_slw_components(s):
    nodes = [("v", v) for v in s.vertices]
    nodes.extend(("list", i) for i in range(len(s.lists)))
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    emap = s.edge_map()
    for _, tail, head in s.edges:
        union(("v", tail), ("v", head))
    for i, wl in enumerate(s.lists):
        for w in wl.words:
            for letter in w:
                union(("list", i), ("v", emap[letter.edge][0]))
    return len({find(x) for x in nodes})


def occurrence_counts(s):
    # each edge label's occurrence count, read from the SLW index
    return {label: len(occ) for label, occ in s.index.hits.items()}


def ref_boundary_circles(s, counts):
    free = [label for label in s.labels() if counts[label] == 1]
    if not free:
        return 0
    parent = {label: label for label in free}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    emap = s.edge_map()
    at_vertex = defaultdict(list)
    for label in free:
        tail, head = emap[label]
        at_vertex[tail].append(label)
        at_vertex[head].append(label)
    for labels in at_vertex.values():
        for other in labels[1:]:
            ra, rb = find(labels[0]), find(other)
            if ra != rb:
                parent[ra] = rb
    return len({find(label) for label in free})


def ref_orientable_gluing(s):
    if any(wl.n < 0 for wl in s.lists):
        return False
    hits = defaultdict(list)
    for i, wl in enumerate(s.lists):
        for w in wl.words:
            for letter in w:
                hits[letter.edge].append((i, letter.exp))
    constraints = defaultdict(list)
    for occ in hits.values():
        if len(occ) != 2:
            continue
        (i, x), (j, y) = occ
        if i == j:
            if x != -y:
                return False
        else:
            constraints[i].append((j, -x * y))
            constraints[j].append((i, -x * y))
    sign = {}
    for start in range(len(s.lists)):
        if start in sign:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j, r in constraints[i]:
                want = sign[i] * r
                if j not in sign:
                    sign[j] = want
                    stack.append(j)
                elif sign[j] != want:
                    return False
    return True


def ref_vertex_adjacency(rs):
    ends = {}
    for v, vertex in enumerate(rs.rotations):
        for label in vertex:
            ends.setdefault(label, []).append(v)
    adj = {v: set() for v in range(len(rs.rotations))}
    for a, b in ends.values():
        adj[a].add(b)
        adj[b].add(a)
    return adj


def ref_require_connected(rs):
    if not rs.rotations:
        raise Disconnected("rotation system has no vertices")
    adj = ref_vertex_adjacency(rs)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(rs.rotations):
        raise Disconnected("the underlying graph is disconnected")


def ref_rs_orientable(rs):
    ref_require_connected(rs)
    sign = rs.sign_map()
    ends = {}
    for v, vertex in enumerate(rs.rotations):
        for label in vertex:
            ends.setdefault(label, []).append(v)
    edges = []
    for label, (a, b) in ends.items():
        if a == b:
            if sign[label] < 0:
                return False
        else:
            edges.append((a, b, sign[label]))
    adj = {v: [] for v in range(len(rs.rotations))}
    for a, b, s in edges:
        adj[a].append((b, s))
        adj[b].append((a, s))
    colors = {}
    for start in range(len(rs.rotations)):
        if start in colors:
            continue
        colors[start] = 1
        stack = [start]
        while stack:
            v = stack.pop()
            for w, s in adj[v]:
                want = colors[v] * s
                if w not in colors:
                    colors[w] = want
                    stack.append(w)
                elif colors[w] != want:
                    return False
    return True


# =====================================================================
# Inputs
# =====================================================================


def connected(check, rs):
    check(rs)
    return "connected"


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Disconnected as exc:
        return ("raised", str(exc))


def _fixtures(kind):
    return {name: catalog_get(name).payload for name in catalog_list() if catalog_get(name).kind == kind}


SLWS = {
    **_fixtures("slw"),
    **{f"from {name}": slw_from_complex(cx) for name, cx in {**_fixtures("scx"), **_fixtures("cw2")}.items()},
    **{
        f"from {kind}{n}{' quads' if quads else ''}": slw_from_complex(grid(kind, n, quads))
        for kind in ("torus", "klein", "mobius")
        for n in (3, 4)
        for quads in (False, True)
    },
    "from two disjoint tori": slw_from_complex(pinched(grid("torus", 3), "no-such-vertex")),
    "from pinched tori": slw_from_complex(pinched(grid("torus", 3))),
}
ROTATIONS = _fixtures("rot")


@st.composite
def signed_rotation_systems(draw):
    """Up to 5 vertices and 6 edges with random ends, positions and signs; loops and
    isolated vertices come up, so some systems are disconnected."""
    nv = draw(st.integers(1, 5))
    rotations = [[] for _ in range(nv)]
    signs = {}
    for e in range(draw(st.integers(0, 6))):
        for _ in range(2):
            v = draw(st.integers(0, nv - 1))
            rotations[v].insert(draw(st.integers(0, len(rotations[v]))), f"e{e}")
        signs[f"e{e}"] = draw(st.sampled_from((1, -1)))
    return rotation_system(rotations, signs)


# =====================================================================
# Tests
# =====================================================================


@pytest.mark.parametrize("name", sorted(SLWS))
def test_slw_helpers_match_reference(name):
    s = SLWS[name]
    counts = occurrence_counts(s)
    assert _corner_classes(s) == ref_corner_classes(s)
    assert _slw_components(s) == ref_slw_components(s)
    assert _boundary_circles(s) == ref_boundary_circles(s, counts)
    assert _orientable_gluing(s) == ref_orientable_gluing(s)


def test_slw_inputs_reach_every_branch():
    assert {1, 2} <= {_slw_components(s) for s in SLWS.values()}
    assert {_orientable_gluing(s) for s in SLWS.values()} == {True, False}
    assert 0 in {_boundary_circles(s) for s in SLWS.values()}
    assert max(_boundary_circles(s) for s in SLWS.values()) >= 3
    assert max(max(_corner_classes(s).values()) for s in SLWS.values()) >= 2


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_rotation_helpers_match_reference(name):
    rs = ROTATIONS[name]
    assert outcome(connected, _require_connected, rs) == outcome(connected, ref_require_connected, rs)
    assert outcome(rs_orientable, rs) == outcome(ref_rs_orientable, rs)


@settings(max_examples=300, deadline=None)
@given(signed_rotation_systems())
def test_drawn_rotation_systems_match_reference(rs):
    assert outcome(connected, _require_connected, rs) == outcome(connected, ref_require_connected, rs)
    assert outcome(rs_orientable, rs) == outcome(ref_rs_orientable, rs)


def test_drawn_rotation_systems_cover_both_paths():
    seen = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(signed_rotation_systems())
    def collect(rs):
        seen.add(outcome(rs_orientable, rs))

    collect()
    assert {("ok", True), ("ok", False), ("raised", "the underlying graph is disconnected")} <= seen


def test_classes_in_order_of_first_node_each_breadth_first():
    nodes = ["e", "d", "c", "b", "a", "z"]
    pairs = [("a", "b"), ("c", "a"), ("b", "d"), ("e", "c")]
    assert classes(nodes, pairs) == [["e", "c", "a", "b", "d"], ["z"]]
    assert classes([], []) == []
    assert classes([1, 2], [(1, 1), (2, 1), (1, 2)]) == [[1, 2]]


def test_two_colour_balanced_graph():
    # a 4-cycle with two flips is balanced; colours start False at node 0
    arcs = {0: [("a", 1, True), ("d", 3, False)], 1: [("a", 0, True), ("b", 2, True)],
            2: [("b", 1, True), ("c", 3, False)], 3: [("c", 2, False), ("d", 0, False)], 4: []}
    colours, conflict = two_colour(5, arcs.__getitem__)
    assert conflict is None
    assert colours == [False, True, False, False, False]


def test_two_colour_reports_first_conflict_in_queue_order():
    # node 0 colours 1 and 2; node 1 is read first and already disagrees with 2
    arcs = {0: [("x", 1, False), ("y", 2, True)], 1: [("x", 0, False), ("z", 2, False)],
            2: [("y", 0, True), ("z", 1, False), ("w", 2, True)]}
    colours, conflict = two_colour(3, arcs.__getitem__)
    assert conflict == (1, 2, "z")
    assert colours == [False, False, True]


def test_two_colour_flipped_self_arc_is_a_conflict():
    assert two_colour(1, lambda i: [("loop", 0, False)])[1] is None
    assert two_colour(1, lambda i: [("loop", 0, True)])[1] == (0, 0, "loop")
    # a later component starts at its lowest node, uncoloured so far
    arcs = {0: [], 1: [("u", 2, True)], 2: [("u", 1, True), ("t", 2, True)]}
    assert two_colour(3, arcs.__getitem__) == ([False, False, True], (2, 2, "t"))
