"""The cached incidence index changes no answer and no witness.

Each check below runs both the library and a brute-force reference that
rescans the whole complex for every query: the per-vertex cell scan
for vertex_check, a fresh edge check for every boundary walk, and a
fresh incidence map for each orientation search.  Every walk, defect,
boundary cycle, orientation witness and vertex link must agree exactly.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import (
    CWComplex2,
    SimplicialComplex,
    catalog_get,
    catalog_list,
    classify_surface,
    close,
    cw_complex,
    euler_characteristic,
    parse_complex,
    relabel,
    to_text,
)
from surfclass.complexes import cycle_edges, norm_edge
from surfclass.errors import NotLocallyPlanar, NotManifold, NotSurface
from surfclass.manifold3 import TriangleStatus, face_check3, vertex_link3
from surfclass.orientation import (
    NonOrientable,
    OrientationWitness,
    induced_edge_orientations,
    induced_triangle_parities,
    orient2,
    orient3,
)
from surfclass.surface import (
    BOUNDARY,
    INTERIOR,
    BoundaryDecomposition,
    EdgeStatus,
    SurfaceCheck,
    VertexLink,
    boundary_components,
    edge_check,
    is_surface,
    vertex_check,
)

# =====================================================================
# Brute-force reference: every query rescans the complex
# =====================================================================


def ref_vertices(cx):
    if isinstance(cx, SimplicialComplex):
        return {s[0] for s in cx.simplices if len(s) == 1}
    return set(cx.vertices)


def ref_edges(cx):
    if isinstance(cx, SimplicialComplex):
        return {s for s in cx.simplices if len(s) == 2}
    return set(cx.edges)


def ref_cells(cx, k=3):
    if isinstance(cx, SimplicialComplex):
        return tuple(sorted(s for s in cx.simplices if len(s) == k))
    return cx.faces if k == 3 else ()


def ref_require_dim2(cx):
    if ref_cells(cx, 4):
        raise NotSurface("complex has 3-dimensional cells")


def ref_edge_check(cx):
    ref_require_dim2(cx)
    incidence = defaultdict(list)
    for i, cell in enumerate(ref_cells(cx)):
        for e in cycle_edges(cell):
            incidence[e].append(i)
    for e in sorted(ref_edges(cx)):
        incidence.setdefault(e, [])
    out = []
    for e in sorted(incidence):
        n = len(incidence[e])
        if n not in (1, 2):
            raise NotLocallyPlanar(f"edge {{{e[0]},{e[1]}}} lies in {n} 2-cells", edge=e, face_count=n)
        out.append(EdgeStatus(e, BOUNDARY if n == 1 else INTERIOR, tuple(incidence[e])))
    return out


def ref_vertex_check(cx, v):
    ref_require_dim2(cx)
    if v not in ref_vertices(cx):
        raise ValueError(f"no vertex {v!r} in complex")
    pool = []
    for cell in ref_cells(cx):
        if v in cell:
            i = cell.index(v)
            pool.append(norm_edge(cell[i - 1], cell[(i + 1) % len(cell)]))
    if not pool:
        raise NotLocallyPlanar(f"vertex {v} lies in no 2-cell", vertex=v)
    pool.sort()
    first = pool.pop(0)
    walk = [first[0], first[1]]

    def take(end):
        cont = [e for e in pool if end in e]
        if len(cont) > 1:
            raise NotLocallyPlanar(f"link of vertex {v} branches at {end}", vertex=v, branch_vertex=end)
        if not cont:
            return None
        pool.remove(cont[0])
        return cont[0][1] if cont[0][0] == end else cont[0][0]

    closed = False
    while (nxt := take(walk[-1])) is not None:
        walk.append(nxt)
        if walk[0] == walk[-1]:
            walk.pop()
            closed = True
            break
    while not closed and (prv := take(walk[0])) is not None:
        walk.insert(0, prv)
        if walk[0] == walk[-1]:
            walk.pop()
            closed = True
    if pool:
        raise NotLocallyPlanar(f"link of vertex {v} is disconnected", vertex=v)
    return VertexLink(v, tuple(walk), "cycle" if closed else "path")


def ref_boundary_components(cx):
    adj = defaultdict(list)
    unused = set()
    for st in ref_edge_check(cx):
        if st.status == BOUNDARY:
            a, b = st.edge
            adj[a].append(b)
            adj[b].append(a)
            unused.add(st.edge)
    for v, nbrs in adj.items():
        if len(nbrs) != 2:
            raise NotLocallyPlanar(f"boundary vertex {v} has {len(nbrs)} boundary edges", vertex=v)
    cycles = []
    while unused:
        start = min(v for e in unused for v in e)
        cur = min(w for w in adj[start] if norm_edge(start, w) in unused)
        unused.discard(norm_edge(start, cur))
        cycle = [start, cur]
        while cur != start:
            nxt = next(w for w in adj[cur] if norm_edge(cur, w) in unused)
            unused.discard(norm_edge(cur, nxt))
            if nxt == start:
                break
            cycle.append(nxt)
            cur = nxt
        cycles.append(tuple(cycle))
    return BoundaryDecomposition(tuple(cycles))


def ref_is_surface(cx):
    try:
        statuses = ref_edge_check(cx)
        for v in sorted(ref_vertices(cx)):
            ref_vertex_check(cx, v)
    except (NotLocallyPlanar, NotSurface) as exc:
        return SurfaceCheck(False, None, None, exc)
    closed = all(st.status == INTERIOR for st in statuses)
    return SurfaceCheck(True, closed, len(ref_boundary_components(cx).cycles), None)


def _smallest_first(cell):
    i = cell.index(min(cell))
    return cell[i:] + cell[:i]


def ref_orient2(cx):
    cells = ref_cells(cx)
    incidence = defaultdict(list)
    for i, cell in enumerate(cells):
        for e in cycle_edges(cell):
            incidence[e].append(i)
    chosen = {}
    for start in range(len(cells)):
        if start in chosen:
            continue
        chosen[start] = cells[start]
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for a, b in sorted(induced_edge_orientations(chosen[i]), key=lambda d: norm_edge(*d)):
                e = norm_edge(a, b)
                for j in incidence[e]:
                    if j == i:
                        continue
                    if j not in chosen:
                        stored = cells[j]
                        if (b, a) in induced_edge_orientations(stored):
                            chosen[j] = stored
                        else:
                            chosen[j] = (stored[0],) + tuple(reversed(stored[1:]))
                        queue.append(j)
                    elif (b, a) not in induced_edge_orientations(chosen[j]):
                        return NonOrientable(e, (_smallest_first(chosen[i]), _smallest_first(chosen[j])))
    return OrientationWitness(tuple(_smallest_first(chosen[i]) for i in range(len(cells))))


def _oriented_tetra(t, s):
    return t if s == 1 else t[:2] + (t[3], t[2])


def ref_orient3(cx):
    tets = ref_cells(cx, 4)
    incidence = defaultdict(list)
    for i, t in enumerate(tets):
        for tri in induced_triangle_parities(t):
            incidence[tri].append(i)
    sign = {}
    for start in range(len(tets)):
        if start in sign:
            continue
        sign[start] = 1
        queue = deque([start])
        while queue:
            i = queue.popleft()
            induced = induced_triangle_parities(tets[i])
            for tri in sorted(induced):
                p = induced[tri] * sign[i]
                for j in incidence[tri]:
                    if j == i:
                        continue
                    q = induced_triangle_parities(tets[j])[tri]
                    if j not in sign:
                        sign[j] = -p * q
                        queue.append(j)
                    elif sign[j] * q != -p:
                        return NonOrientable(
                            tri, (_oriented_tetra(tets[i], sign[i]), _oriented_tetra(tets[j], sign[j]))
                        )
    return OrientationWitness(tuple(_oriented_tetra(tets[i], sign[i]) for i in range(len(tets))))


def ref_face_check3(cx):
    incidence = defaultdict(list)
    for i, tet in enumerate(ref_cells(cx, 4)):
        for k in range(4):
            incidence[tet[:k] + tet[k + 1 :]].append(i)
    for tri in ref_cells(cx, 3):
        incidence.setdefault(tri, [])
    out = []
    for tri in sorted(incidence):
        n = len(incidence[tri])
        if n not in (1, 2):
            raise NotManifold(f"triangle {' '.join(tri)} lies in {n} tetrahedra", triangle=tri, count=n)
        out.append(TriangleStatus(tri, BOUNDARY if n == 1 else INTERIOR, tuple(incidence[tri])))
    return out


def ref_vertex_link3(cx, v):
    if (v,) not in cx.simplices:
        raise ValueError(f"no vertex {v!r} in complex")
    opposite = [tuple(w for w in s if w != v) for s in cx.simplices if len(s) > 1 and v in s]
    return close(opposite) if opposite else SimplicialComplex(frozenset())


# =====================================================================
# Inputs
# =====================================================================


def grid(kind, n, quads=False):
    """An n x n grid of squares glued into a torus, Klein bottle or Moebius strip."""

    def vid(i, j):
        if kind == "mobius" and i == n:
            i, j = 0, n - j
        if kind in ("torus", "klein"):
            i %= n
        if kind == "torus":
            j %= n
        elif kind == "klein" and j == n:
            i, j = (-i) % n, 0
        return f"v{i * (n + 1) + j}"

    cells = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            cells += [(a, b, c, d)] if quads else [(a, b, c), (a, c, d)]
    return cw_complex(cells) if quads else close(cells)


def pinched(cx, label="v0"):
    """Two copies of cx sharing one vertex."""
    other = relabel(cx, {v: v if v == label else f"w{v}" for v in cx.vertex_set()})
    if isinstance(cx, SimplicialComplex):
        return SimplicialComplex(cx.simplices | other.simplices)
    return cw_complex(cx.faces + other.faces)


def freudenthal(k, periodic=(False, False, False)):
    """A k^3 cube grid, each cube cut into the 6 tetrahedra of a monotone path."""

    def vid(p):
        return "x" + "_".join(str(c % k if per else c) for c, per in zip(p, periodic))

    tets = []
    for x in range(k):
        for y in range(k):
            for z in range(k):
                for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                    p = [x, y, z]
                    path = [vid(p)]
                    for axis in order:
                        p[axis] += 1
                        path.append(vid(p))
                    tets.append(path)
    return close(tets)


TORUS4 = grid("torus", 4)
KLEIN4 = grid("klein", 4)

SURFACES = {
    **{
        name: catalog_get(name).payload
        for name in catalog_list()
        if catalog_get(name).kind in ("scx", "cw2")
    },
    "torus4": TORUS4,
    "torus5_quads": grid("torus", 5, quads=True),
    "klein4": KLEIN4,
    "klein5_quads": grid("klein", 5, quads=True),
    "mobius4": grid("mobius", 4),
    "mobius5_quads": grid("mobius", 5, quads=True),
    "pinched_tori": pinched(TORUS4),
    "pinched_klein_quads": pinched(grid("klein", 4, quads=True)),
    "pinched_mobius": pinched(grid("mobius", 4), "v5"),
    "torus_extra_face": SimplicialComplex(TORUS4.simplices | close([("v0", "v6", "z")]).simplices),
    "torus_lonely_edge": SimplicialComplex(TORUS4.simplices | close([("v0", "z")]).simplices),
    "bowtie_branch": close([("0", "1", "2"), ("0", "2", "3"), ("0", "3", "1"), ("0", "1", "4")]),
    "with_isolated_vertex": cw_complex(grid("torus", 4, quads=True).faces, extra_vertices=["z"]),
}

BOUNDARY_S3 = close(combinations("01234", 4))
BALL2 = freudenthal(2)
SOLIDS = {
    "ball2": BALL2,
    "solid_torus3": freudenthal(3, (True, False, False)),
    "three_torus3": freudenthal(3, (True, True, True)),
    "boundary_of_4_simplex": BOUNDARY_S3,
    "pinched_balls": pinched(BALL2, "x0_0_0"),
    "ball_extra_tet": SimplicialComplex(BALL2.simplices | close([("x0_0_0", "x1_1_1", "x2_2_2", "y")]).simplices),
    "tet_with_loose_cells": close([("0", "1", "2", "3"), ("0", "4", "5"), ("0", "6"), ("1", "7")]),
}


def outcome(fn, *args):
    """A result or a raised exception, in a form that == compares fully."""
    try:
        return ("ok", fn(*args))
    except (NotLocallyPlanar, NotManifold, NotSurface, ValueError) as exc:
        return ("raised", describe(exc))


def describe(exc):
    if exc is None:
        return None
    fields = {k: describe(v) if isinstance(v, Exception) else v for k, v in vars(exc).items()}
    return (type(exc).__name__, str(exc), fields)


def surface_check(cx):
    chk = is_surface(cx)
    return (chk.surface, chk.closed, chk.boundary_count, describe(chk.defect))


def ref_surface_check(cx):
    chk = ref_is_surface(cx)
    return (chk.surface, chk.closed, chk.boundary_count, describe(chk.defect))


# =====================================================================
# Tests
# =====================================================================


@pytest.mark.parametrize("name", sorted({**SURFACES, **SOLIDS}))
def test_surface_checks_match_reference(name):
    cx = {**SURFACES, **SOLIDS}[name]
    assert outcome(edge_check, cx) == outcome(ref_edge_check, cx)
    for v in sorted(ref_vertices(cx)) + ["no-such-vertex"]:
        assert outcome(vertex_check, cx, v) == outcome(ref_vertex_check, cx, v), v
    assert surface_check(cx) == ref_surface_check(cx)
    assert outcome(boundary_components, cx) == outcome(ref_boundary_components, cx)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_orient2_matches_reference(name):
    cx = SURFACES[name]
    assert orient2(cx) == ref_orient2(cx)


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_3complex_checks_match_reference(name):
    cx = SOLIDS[name]
    assert orient3(cx) == ref_orient3(cx)
    for v in sorted(ref_vertices(cx)):
        assert vertex_link3(cx, v) == ref_vertex_link3(cx, v), v
    assert outcome(face_check3, cx) == outcome(ref_face_check3, cx)


def test_orientation_witnesses_are_conflicts_where_expected():
    assert isinstance(orient2(KLEIN4), NonOrientable)
    assert isinstance(orient2(TORUS4), OrientationWitness)
    assert isinstance(orient3(SOLIDS["three_torus3"]), OrientationWitness)


@pytest.mark.parametrize("name", sorted({**SURFACES, **SOLIDS}))
def test_cached_index_keeps_equality_and_hash(name):
    cx = {**SURFACES, **SOLIDS}[name]
    fresh = parse_complex(to_text(cx), "scx" if isinstance(cx, SimplicialComplex) else "cw2")
    before = repr(cx)
    is_surface(cx)  # builds and caches the index
    assert "incidence" in vars(cx) and "incidence" not in vars(fresh)
    assert cx == fresh and fresh == cx
    assert hash(cx) == hash(fresh)
    assert repr(cx) == before
    assert cx.counts() == fresh.counts()


def test_index_views_match_a_rescan():
    for cx in (TORUS4, BOUNDARY_S3, SOLIDS["tet_with_loose_cells"]):
        assert cx.vertex_set() == ref_vertices(cx)
        assert cx.edge_set() == ref_edges(cx)
        assert cx.triangles() == cx.cells2() == ref_cells(cx, 3)
        assert cx.tetrahedra() == ref_cells(cx, 4)
    cw = SURFACES["klein5_quads"]
    assert isinstance(cw, CWComplex2) and cw.cells2() == cw.faces


def test_40x40_torus_and_klein_bottle_classify():
    torus = grid("torus", 40)
    assert len(torus.triangles()) == 3200
    assert [t.name() for t in classify_surface(torus)] == ["T2"]
    assert euler_characteristic(torus) == 0
    klein = grid("klein", 40)
    assert [t.name() for t in classify_surface(klein)] == ["Kl"]
    assert euler_characteristic(klein) == 0


# Drawn small complexes: random gluings branch, pinch, leave loose edges
# and split links far more often than the catalog does.

LABELS = st.sampled_from("0123456")
TRIANGLES = st.lists(st.lists(LABELS, min_size=3, max_size=3, unique=True), min_size=1, max_size=10).map(close)
CW_CYCLES = st.builds(
    cw_complex,
    st.lists(st.lists(LABELS, min_size=3, max_size=7, unique=True), min_size=1, max_size=6),
    st.lists(st.lists(LABELS, min_size=2, max_size=2, unique=True), max_size=2),
)
COMPLEXES3 = st.builds(
    lambda *parts: close(s for part in parts for s in part),
    st.lists(st.lists(LABELS, min_size=4, max_size=4, unique=True), min_size=1, max_size=6),
    st.lists(st.lists(LABELS, min_size=3, max_size=3, unique=True), max_size=2),
    st.lists(st.lists(LABELS, min_size=2, max_size=2, unique=True), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(TRIANGLES, CW_CYCLES))
def test_drawn_surface_witnesses_match_reference(cx):
    for v in sorted(ref_vertices(cx)):
        assert outcome(vertex_check, cx, v) == outcome(ref_vertex_check, cx, v), v
    assert outcome(boundary_components, cx) == outcome(ref_boundary_components, cx)
    assert surface_check(cx) == ref_surface_check(cx)


@settings(max_examples=200, deadline=None)
@given(COMPLEXES3)
def test_drawn_vertex_links_match_reference(cx):
    for v in sorted(ref_vertices(cx)):
        assert vertex_link3(cx, v) == ref_vertex_link3(cx, v), v
