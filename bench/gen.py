"""Seeded input generators, each carrying its expected verdict in closed form.

Nothing here imports surfclass.  Every expected answer comes from the
construction itself: the Euler characteristic from the generated cell
counts, orientability and boundary count from the gluing pattern, the
defect location from where the generator planted it, chord-diagram
genus from the cycles of gamma o sigma, and rotation-system faces from
an independent face walk.  The benchmark compares the library's verdicts
with these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

# =====================================================================
# Expected verdicts
# =====================================================================


@dataclass(frozen=True)
class SType:
    """A surface type as (orientable, genus, boundary, euler)."""

    orientable: bool
    genus: int
    boundary: int
    euler: int

    def name(self) -> str:
        g, b = self.genus, self.boundary
        if self.orientable:
            if b == 0:
                return "S2" if g == 0 else "T2" if g == 1 else f"F{g}"
            return f"F_{{{g},{b}}}"
        if b == 0:
            return "RP2" if g == 1 else "Kl" if g == 2 else f"N{g}"
        return f"N_{{{g},{b}}}"


def surface_type(orientable: bool, boundary: int, euler: int) -> SType:
    """The type with the given orientability, boundary count and chi."""
    rest = 2 - euler - boundary
    if orientable:
        if rest < 0 or rest % 2:
            raise ValueError(f"no orientable surface with chi={euler}, b={boundary}")
        return SType(True, rest // 2, boundary, euler)
    if rest < 1:
        raise ValueError(f"no non-orientable surface with chi={euler}, b={boundary}")
    return SType(False, rest, boundary, euler)


@dataclass(frozen=True)
class Defect:
    """Where a planted defect must be reported.

    kind is the exception class name (NotLocallyPlanar or NotManifold);
    exactly one of edge, vertex or triangle locates it.
    """

    kind: str
    component: int | None = None
    edge: tuple[str, str] | None = None
    face_count: int | None = None
    vertex: str | None = None
    triangle: tuple[str, ...] | None = None
    count: int | None = None


@dataclass(frozen=True)
class M3:
    """Expected 3-manifold verdict: closed flag and boundary types."""

    closed: bool
    boundary: tuple[SType, ...]


# =====================================================================
# Cell complexes as integer cells, rendered to text with seeded labels
# =====================================================================


def _edges_of(cell: tuple) -> list[tuple]:
    k = len(cell)
    return [(cell[i], cell[(i + 1) % k]) for i in range(k)]


def euler2(cells: list[tuple]) -> int:
    """V - E + F of a 2-complex given by its face cycles."""
    verts = {v for c in cells for v in c}
    edges = {frozenset(e) for c in cells for e in _edges_of(c)}
    return len(verts) - len(edges) + len(cells)


def grid_surface(kind: str, n: int, m: int, quads: bool) -> tuple[list[tuple], SType]:
    """An n x m grid of squares with the kind's identifications.

    kind is torus, klein (periodic in i, top row glued reversed),
    annulus (periodic in i), mobius (i-ends glued with a flip) or disk.
    Squares become quads, or two triangles split along one diagonal.
    """
    wrap_i = kind in ("torus", "klein", "annulus")

    def vid(i: int, j: int) -> int:
        if kind == "mobius" and i == n:
            i, j = 0, m - j
        if wrap_i:
            i %= n
        if kind == "torus":
            j %= m
        elif kind == "klein" and j == m:
            i, j = (-i) % n, 0
        return i * (m + 1) + j

    cells: list[tuple] = []
    for i in range(n):
        for j in range(m):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if quads:
                cells.append((a, b, c, d))
            else:
                cells.append((a, b, c))
                cells.append((a, c, d))
    orientable = kind in ("torus", "annulus", "disk")
    boundary = {"torus": 0, "klein": 0, "annulus": 2, "mobius": 1, "disk": 1}[kind]
    return cells, surface_type(orientable, boundary, euler2(cells))


def doubled_disk(k: int, quads: bool) -> tuple[list[tuple], SType]:
    """Two k x k disks glued along their boundary: a sphere (k >= 2).

    A triangulated square is split along a diagonal with an interior
    end, so no cell lies wholly on the shared boundary.
    """
    squares, _ = grid_surface("disk", k, k, quads=True)
    side = k + 1
    boundary = {i * side + j for i in range(side) for j in range(side)
                if i in (0, k) or j in (0, k)}
    cells: list[tuple] = []
    for a, b, c, d in squares:
        if quads:
            cells.append((a, b, c, d))
        elif a in boundary and c in boundary:
            cells += [(a, b, d), (b, c, d)]
        else:
            cells += [(a, b, c), (a, c, d)]
    twin = {v: v if v in boundary else v + side * side for c in cells for v in c}
    cells = cells + [tuple(twin[v] for v in c) for c in cells]
    return cells, surface_type(True, 0, euler2(cells))


def freudenthal(size: tuple[int, int, int], periodic: tuple[bool, bool, bool]) -> list[tuple]:
    """Cube grid, each unit cube cut into the 6 tetrahedra of a monotone path.

    A periodic axis wraps modulo its size (3 or more keeps it simplicial).
    """
    def vid(p: tuple[int, int, int]) -> int:
        q = [p[a] % size[a] if periodic[a] else p[a] for a in range(3)]
        return (q[0] * (size[1] + 1) + q[1]) * (size[2] + 1) + q[2]

    tets: list[tuple] = []
    for x in range(size[0]):
        for y in range(size[1]):
            for z in range(size[2]):
                for order in permutations(range(3)):
                    p = [x, y, z]
                    path = [vid(tuple(p))]
                    for axis in order:
                        p[axis] += 1
                        path.append(vid(tuple(p)))
                    tets.append(tuple(path))
    return tets


def boundary_triangles(tets: list[tuple]) -> list[tuple]:
    """Triangles lying in exactly one tetrahedron."""
    seen: dict[frozenset, int] = {}
    for t in tets:
        for k in range(4):
            tri = frozenset(t[:k] + t[k + 1:])
            seen[tri] = seen.get(tri, 0) + 1
    return [tuple(sorted(tri)) for tri, n in seen.items() if n == 1]


class Labeler:
    """Seeded injective map from integer vertex ids to string labels."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, ids) -> dict[int, str]:
        out = {}
        for v in sorted(set(ids)):
            while True:
                lab = str(self.rng.randrange(10 ** 6))
                if lab not in self.used:
                    break
            self.used.add(lab)
            out[v] = lab
        return out


def render(cells: list[tuple], fmt: str, rng: random.Random) -> str:
    """Text of labelled cells in scx or cw2 form, in a seeded line order.

    scx lines list a simplex's vertices in a shuffled order; cw2 face
    cycles start at a random vertex and run in a random direction.
    """
    lines = []
    for c in cells:
        c = list(c)
        if fmt == "scx":
            rng.shuffle(c)
            lines.append(" ".join(c))
        else:
            r = rng.randrange(len(c))
            c = c[r:] + c[:r]
            if rng.random() < 0.5:
                c.reverse()
            lines.append("F: " + " ".join(c))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def relabel(cells: list[tuple], labels: dict[int, str]) -> list[tuple]:
    return [tuple(labels[v] for v in c) for c in cells]


def sorted_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def interior_edge(cells: list[tuple], rng: random.Random) -> tuple:
    """A seeded edge that lies in two cells."""
    count: dict[frozenset, int] = {}
    for c in cells:
        for e in _edges_of(c):
            count[frozenset(e)] = count.get(frozenset(e), 0) + 1
    inner = sorted(tuple(sorted(e)) for e, k in count.items() if k == 2)
    return rng.choice(inner)


# =====================================================================
# surface2d: one labelled 2-complex per input
# =====================================================================


@dataclass(frozen=True)
class Surface2:
    family: str
    text: str
    cells: int
    expected: tuple[SType, ...] | Defect


def _piece(kind: str, n: int, quads: bool) -> tuple[list[tuple], SType]:
    if kind == "sphere":
        return doubled_disk(n, quads)
    m = n if kind in ("torus", "klein", "disk") else max(1, n // 3)
    return grid_surface(kind, n, m, quads)


def surface_input(family: str, n: int, fmt: str, rng: random.Random,
                  parts: tuple[str, ...] = ()) -> Surface2:
    """One surface2d input.

    family is a piece kind (torus, klein, disk, annulus, mobius, sphere),
    "union" (disjoint pieces of the given kinds, each of size n),
    "extra_face" (a torus with a triangle on an interior edge) or "pinch"
    (a torus and a piece of the given kind sharing a vertex).  fmt picks
    scx (triangles) or cw2 (quads).
    """
    quads = fmt == "cw2"
    lab = Labeler(rng)
    if family == "union":
        pieces = []
        for kind in parts:
            cells, t = _piece(kind, n, quads)
            pieces.append((relabel(cells, lab.fresh(v for c in cells for v in c)), t))
        pieces.sort(key=lambda p: min(v for c in p[0] for v in c))
        cells = [c for p in pieces for c in p[0]]
        return Surface2(family, render(cells, fmt, rng), len(cells),
                        tuple(t for _, t in pieces))
    if family == "extra_face":
        base, _ = _piece("torus", n, quads)
        names = lab.fresh(v for c in base for v in c)
        cells = relabel(base, names)
        a, b = interior_edge(base, rng)
        (x,) = lab.fresh([-1]).values()
        cells.append((names[a], names[b], x))
        edge = sorted_pair(names[a], names[b])
        return Surface2(family, render(cells, fmt, rng), len(cells),
                        Defect("NotLocallyPlanar", component=0, edge=edge, face_count=3))
    if family == "pinch":
        one, _ = _piece("torus", n, quads)
        two, _ = _piece(parts[0], max(3, n // 2), quads)
        a = lab.fresh(v for c in one for v in c)
        b = lab.fresh(v for c in two for v in c)
        pinch = rng.choice(sorted(a.values()))
        b[rng.choice(sorted(b))] = pinch
        cells = relabel(one, a) + relabel(two, b)
        return Surface2(family, render(cells, fmt, rng), len(cells),
                        Defect("NotLocallyPlanar", component=0, vertex=pinch))
    cells, t = _piece(family, n, quads)
    cells = relabel(cells, lab.fresh(v for c in cells for v in c))
    return Surface2(family, render(cells, fmt, rng), len(cells), (t,))


# =====================================================================
# manifold3d: one simplicial 3-complex per input
# =====================================================================


@dataclass(frozen=True)
class Complex3:
    family: str
    text: str
    cells: int
    expected: M3 | Defect


def _m3_boundary(tets: list[tuple]) -> tuple[SType, ...]:
    # every family here has a connected, orientable boundary (or none)
    tris = boundary_triangles(tets)
    if not tris:
        return ()
    return (surface_type(True, 0, euler2(tris)),)


def _m3_cells(family: str, n: int) -> list[tuple]:
    if family == "ball":
        return freudenthal((n, n, n), (False, False, False))
    if family == "solid_torus":
        return freudenthal((max(3, n), 2, 2), (True, False, False))
    if family == "torus3":
        return freudenthal((n, n, n), (True, True, True))
    if family == "suspension":
        sphere = boundary_triangles(freudenthal((n, n, n), (False, False, False)))
        top, bottom = -1, -2
        return [t + (apex,) for t in sphere for apex in (top, bottom)]
    raise ValueError(family)


def manifold_input(family: str, n: int, rng: random.Random) -> Complex3:
    """One manifold3d input.

    family is ball, solid_torus, torus3 or suspension (a manifold), or
    pinch (two balls sharing a boundary vertex) or extra_tet (a ball with
    a third tetrahedron on an interior triangle).
    """
    lab = Labeler(rng)
    if family == "pinch":
        one = _m3_cells("ball", n)
        two = _m3_cells("ball", max(2, n - 1))
        a = lab.fresh(v for t in one for v in t)
        b = lab.fresh(v for t in two for v in t)
        on_a = sorted({v for tri in boundary_triangles(one) for v in tri})
        on_b = sorted({v for tri in boundary_triangles(two) for v in tri})
        pinch = a[rng.choice(on_a)]
        b[rng.choice(on_b)] = pinch
        cells = relabel(one, a) + relabel(two, b)
        return Complex3(family, render(cells, "scx", rng), len(cells),
                        Defect("NotManifold", vertex=pinch))
    if family == "extra_tet":
        base = _m3_cells("ball", n)
        names = lab.fresh(v for t in base for v in t)
        inner = sorted({tuple(sorted(t[:k] + t[k + 1:])) for t in base for k in range(4)}
                       - set(boundary_triangles(base)))
        tri = rng.choice(inner)
        (x,) = lab.fresh([-3]).values()
        cells = relabel(base, names) + [tuple(names[v] for v in tri) + (x,)]
        return Complex3(family, render(cells, "scx", rng), len(cells),
                        Defect("NotManifold", triangle=tuple(sorted(names[v] for v in tri)),
                               count=3))
    tets = _m3_cells(family, n)
    expected = M3(closed=family in ("torus3", "suspension"), boundary=_m3_boundary(tets))
    cells = relabel(tets, lab.fresh(v for t in tets for v in t))
    return Complex3(family, render(cells, "scx", rng), len(cells), expected)


# =====================================================================
# Chord diagrams
# =====================================================================


def random_chord_code(n: int, rng: random.Random) -> tuple[str, ...]:
    """A uniformly random diagram with n chords under seeded labels."""
    pos = list(range(2 * n))
    rng.shuffle(pos)
    names = [str(i + 1) for i in range(n)]
    rng.shuffle(names)
    code = [""] * (2 * n)
    for k in range(n):
        code[pos[2 * k]] = code[pos[2 * k + 1]] = names[k]
    return tuple(code)


def chord_variant(code: tuple[str, ...], rng: random.Random) -> tuple[str, ...]:
    """The same diagram rotated, possibly reflected, and relabelled."""
    r = rng.randrange(len(code))
    out = code[r:] + code[:r]
    if rng.random() < 0.5:
        out = out[::-1]
    labels = sorted(set(code), key=int)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    m = dict(zip(labels, shuffled))
    return tuple(m[c] for c in out)


def chord_text(code: tuple[str, ...]) -> str:
    return ",".join(code) if any(len(c) > 1 for c in code) else "".join(code)


def _partners(code) -> list[int]:
    first: dict[str, int] = {}
    mate = [0] * len(code)
    for i, c in enumerate(code):
        if c in first:
            mate[i], mate[first[c]] = first[c], i
        else:
            first[c] = i
    return mate


def chord_key(code) -> tuple[int, ...]:
    """Dihedral-invariant key from partner offsets.

    Position i carries (partner(i) - i) mod 2n; rotating the code rotates
    the sequence and reflecting it reverses the sequence and negates the
    offsets, so the least of the 4n variants names the class.
    """
    size = len(code)
    if size == 0:
        return ()
    mate = _partners(code)
    off = [(mate[i] - i) % size for i in range(size)]
    mirror = [(size - d) % size for d in reversed(off)]
    return min(tuple(s[r:] + s[:r]) for s in (off, mirror) for r in range(size))


def chord_least_code(code) -> tuple[str, ...]:
    """Least first-occurrence relabelling over all rotations and reflections."""
    best = None
    for seq in (tuple(code), tuple(code)[::-1]):
        for r in range(len(seq)):
            names: dict[str, int] = {}
            cand = tuple(names.setdefault(c, len(names) + 1) for c in seq[r:] + seq[:r])
            if best is None or cand < best:
                best = cand
    return tuple(str(i) for i in best or ())


def chord_genus(code) -> int:
    """Genus of the one-vertex map: faces are the cycles of gamma o sigma."""
    size = len(code)
    mate = _partners(code)
    seen = [False] * size
    faces = 0
    for start in range(size):
        if seen[start]:
            continue
        faces += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = mate[(i + 1) % size]
    # V - E + F = 1 - n + F = 2 - 2g
    return (size // 2 + 1 - faces) // 2


# OEIS A007769: chord diagrams with n chords up to rotation and reflection
A007769 = {0: 1, 1: 1, 2: 2, 3: 5, 4: 17, 5: 79, 6: 554, 7: 5283}


def chord_classes(n: int) -> dict[tuple[int, ...], int]:
    """Every class with n chords, keyed by chord_key, with its genus.

    Independent of the library's enumeration: it walks all (2n-1)!!
    perfect matchings and merges them by chord_key.
    """
    size = 2 * n
    out: dict[tuple[int, ...], int] = {}
    code: list[str | None] = [None] * size

    def walk(label: int) -> None:
        i = code.index(None) if None in code else -1
        if i < 0:
            key = chord_key(code)
            if key not in out:
                out[key] = chord_genus(code)
            return
        code[i] = str(label)
        for j in range(i + 1, size):
            if code[j] is None:
                code[j] = str(label)
                walk(label + 1)
                code[j] = None
        code[i] = None

    walk(1)
    return out


# =====================================================================
# Rotation systems
# =====================================================================


def random_rotation(v: int, e: int, rng: random.Random) -> tuple[list[list[str]], dict[str, int]]:
    """A connected multigraph with loops, random rotations and signs.

    Edges are labelled e1..eE; a spanning tree keeps it connected.
    """
    ends = []
    for w in range(1, v):
        ends.append((rng.randrange(w), w))
    while len(ends) < e:
        ends.append((rng.randrange(v), rng.randrange(v)))
    rng.shuffle(ends)
    darts: list[list[str]] = [[] for _ in range(v)]
    for k, (a, b) in enumerate(ends, start=1):
        darts[a].append(f"e{k}")
        darts[b].append(f"e{k}")
    for d in darts:
        rng.shuffle(d)
    signs = {f"e{k}": rng.choice((1, -1)) for k in range(1, e + 1)}
    return darts, signs


def rotation_text(darts: list[list[str]], signs: dict[str, int]) -> str:
    body = ",".join("{" + ",".join(d) + "}" for d in darts)
    u = ",".join("+" if signs[label] > 0 else "-" for label in sorted(signs))
    return "{" + body + "}; u={" + u + "}"


def rotation_type(darts: list[list[str]], signs: dict[str, int]) -> SType:
    """Closed surface of a signed rotation system.

    Faces: walk (vertex, position, s); crossing edge x at sign u(x)
    multiplies s by u(x) and continues at the far end's neighbour in
    direction s.  Each face is walked once per direction, so F is half
    the number of walk orbits.  Orientable iff the signed graph is
    balanced.
    """
    where: dict[str, list[tuple[int, int]]] = {}
    for vx, d in enumerate(darts):
        for p, label in enumerate(d):
            where.setdefault(label, []).append((vx, p))
    other = {}
    for a, b in where.values():
        other[a], other[b] = b, a
    seen = set()
    orbits = 0
    for vx, d in enumerate(darts):
        for p in range(len(d)):
            for s in (1, -1):
                if (vx, p, s) in seen:
                    continue
                orbits += 1
                state = (vx, p, s)
                while state not in seen:
                    seen.add(state)
                    cv, cp, cs = state
                    cs *= signs[darts[cv][cp]]
                    fv, fp = other[(cv, cp)]
                    state = (fv, (fp + cs) % len(darts[fv]), cs)
    faces = orbits // 2
    color = {0: 1}
    stack = [0]
    adj: dict[int, list[tuple[int, int]]] = {}
    balanced = True
    for label, ((a, _), (b, _)) in where.items():
        if a == b and signs[label] < 0:
            balanced = False
        adj.setdefault(a, []).append((b, signs[label]))
        adj.setdefault(b, []).append((a, signs[label]))
    while stack:
        x = stack.pop()
        for y, s in adj.get(x, ()):
            if y not in color:
                color[y] = color[x] * s
                stack.append(y)
            elif color[y] != color[x] * s:
                balanced = False
    chi = len(darts) - len(signs) + faces
    return surface_type(balanced, 0, chi)


# =====================================================================
# SLW-graphs
# =====================================================================


def slw_text(faces: list[tuple[str, ...]], rng: random.Random,
             names: dict[tuple[str, str], str] | None = None) -> tuple[str, dict]:
    """SLW text: one genus-0 stratum per face over the 1-skeleton.

    Edges point from the smaller label; each gets a seeded letter name
    (or the given names).  Lists and word rotations come in seeded order.
    """
    edges = sorted({sorted_pair(f[i], f[(i + 1) % len(f)]) for f in faces for i in range(len(f))})
    if names is None:
        pool = rng.sample(range(10 * len(edges) + 10), len(edges))
        names = {e: f"x{k}" for e, k in zip(edges, pool)}
    lines = ["graph:"]
    lines += [f"v {v}" for v in sorted({v for f in faces for v in f})]
    lines += [f"e {names[e]} {e[0]} {e[1]}" for e in edges]
    blocks = []
    for f in faces:
        word = []
        for i in range(len(f)):
            a, b = f[i], f[(i + 1) % len(f)]
            e = sorted_pair(a, b)
            word.append(names[e] if a == e[0] else names[e] + "^-1")
        r = rng.randrange(len(word))
        blocks.append(["list n=0:", " ".join(word[r:] + word[:r])])
    rng.shuffle(blocks)
    for b in blocks:
        lines += b
    return "\n".join(lines) + "\n", names


def polygon_chain(sizes: tuple[int, ...]) -> list[tuple]:
    """A disk of polygons, each sharing one edge with the next.

    Faces of distinct sizes keep the letter classes small, which is what
    bounds the equivalence search on the 10- and 15-edge inputs.
    """
    cells = [tuple(range(sizes[0]))]
    top = sizes[0]
    for k in sizes[1:]:
        u, v = cells[-1][-2], cells[-1][-1]
        cells.append((v, u) + tuple(range(top, top + k - 2)))
        top += k - 2
    return cells


def small_faces(kind: str, rng: random.Random) -> tuple[list[tuple[str, ...]], SType]:
    """Labelled faces of a small complex (6 to 15 edges) for SLW equivalence.

    kind is tetra (6 edges), annulus or mobius (three quads, 9 edges),
    chain345 (10 edges), chain354 (the same faces glued in another order)
    or chain3456 (15 edges).
    """
    if kind == "tetra":
        cells = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    elif kind in ("annulus", "mobius"):
        cells, _ = grid_surface(kind, 3, 1, quads=True)
    else:
        cells = polygon_chain(tuple(int(c) for c in kind[len("chain"):]))
    t = surface_type(kind != "mobius", {"tetra": 0, "annulus": 2}.get(kind, 1), euler2(cells))
    return relabel(cells, Labeler(rng).fresh(v for c in cells for v in c)), t


def rename_slw_letters(text: str, rng: random.Random) -> str:
    """The same SLW text with every edge label replaced by a fresh name."""
    lines = text.splitlines()
    labels = [ln.split()[1] for ln in lines if ln.startswith("e ")]
    fresh = rng.sample(range(10 * len(labels) + 10), len(labels))
    m = {a: f"y{k}" for a, k in zip(labels, fresh)}
    out = []
    for ln in lines:
        f = ln.split()
        if f and f[0] == "e":
            out.append(f"e {m[f[1]]} {f[2]} {f[3]}")
        elif not f or f[0] in ("graph:", "v", "list"):
            out.append(ln)
        else:
            out.append(" ".join(m[t[:-3]] + "^-1" if t.endswith("^-1") else m[t] for t in f))
    return "\n".join(out) + "\n"
