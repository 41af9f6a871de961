"""Rotation systems of embedded graphs and chord diagrams.

A rotation system lists the edge ends around each vertex in cyclic
order and carries a per-edge sign vector u; a - sign records that the
local orientations at the edge's two ends disagree. Face tracing on
traversal flags recovers the face count, hence the Euler characteristic
and the genus of the embedding. Chord diagrams are the one-vertex,
all-+ case.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Hashable, Iterable, Mapping, Sequence

from .classify import SurfaceType, genus
from .connectivity import classes, two_colour
from .errors import BoundExceeded, Disconnected, InvariantError, ParseError

ChordCode = tuple[str, ...]
_Darts = tuple[list[int], list[int], list[int], list[str], list[int]]  # see RotationSystem.darts


def _label_key(label: str) -> tuple:
    # numeric labels sort numerically, everything else lexicographically
    return (0, int(label), "") if label.isdigit() else (1, 0, label)


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic dart orders per vertex plus the sign vector u."""

    rotations: tuple[tuple[str, ...], ...]
    signs: tuple[tuple[str, int], ...]  # (edge label, +1/-1), label-sorted

    def sign_map(self) -> dict[str, int]:
        return dict(self.signs)

    def edge_count(self) -> int:
        return len(self.signs)

    def vertex_count(self) -> int:
        return len(self.rotations)

    @cached_property
    def darts(self) -> _Darts:
        """The darts numbered in rotation order: (first, vertex, mate, label, sign).

        first[v] is vertex v's first dart and first[-1] the dart count; dart
        d sits at vertex[d], carries label[d] and its edge's sign[d], and
        mate[d] is the other end of its edge. Built once, on first use.
        """
        first = list(accumulate(map(len, self.rotations), initial=0))
        vertex = [v for v, rotation in enumerate(self.rotations) for _ in rotation]
        label = [name for rotation in self.rotations for name in rotation]
        mate = [0] * len(label)
        first_end: dict[str, int] = {}
        for d, name in enumerate(label):
            e = first_end.setdefault(name, d)
            mate[d], mate[e] = e, d
        return first, vertex, mate, label, list(map(dict(self.signs).__getitem__, label))


def _paired(labels: Iterable[str], what: str) -> list[str]:
    """The distinct labels in `_label_key` order; raise naming the first unpaired one as `what`."""
    counts = Counter(labels)
    order = sorted(counts, key=_label_key)
    for label in order:
        if counts[label] != 2:
            raise ParseError(f"{what.format(label)} appears {counts[label]} times (need 2)")
    return order


def rotation_system(
    rotations: Iterable[Iterable[str]],
    signs: Mapping[str, int] | None = None,
) -> RotationSystem:
    """Validate dart multiplicities and complete the sign vector."""
    rots = tuple(tuple(str(d) for d in vertex) for vertex in rotations)
    labels = _paired(chain.from_iterable(rots), "edge {}")
    if signs is None:
        signs = {}
    else:
        signs = {str(k): v for k, v in signs.items()}
        unknown = set(signs) - set(labels)
        if unknown:
            raise ParseError(f"sign given for unknown edge {sorted(unknown)[0]!r}")
    for v in signs.values():
        if v not in (1, -1):
            raise ParseError(f"signs must be +1 or -1, got {v!r}")
    return RotationSystem(rots, tuple((l, signs.get(l, 1)) for l in labels))


# =====================================================================
# Text format
# =====================================================================


def _split_top(text: str, sep: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced braces in rotation system")
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced braces in rotation system")
    out.append("".join(cur))
    return out


def _wholly_braced(text: str) -> bool:
    if not (text.startswith("{") and text.endswith("}")):
        return False
    depth = 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i == len(text) - 1
    return False


def _parse_vertex_group(group: str) -> tuple[str, ...]:
    group = group.strip()
    if _wholly_braced(group):
        group = group[1:-1].strip()
    if not group:
        raise ParseError("empty vertex group in rotation system")
    if "," in group:
        labels = tuple(tok.strip() for tok in group.split(","))
        if any(not tok for tok in labels):
            raise ParseError(f"empty label in vertex group {group!r}")
        return labels
    if group.isdigit():
        return tuple(group)  # digit string: one dart per digit
    return (group,)


def _parse_rotation_groups(body: str) -> tuple[tuple[str, ...], ...]:
    """Resolve the vertex groups of the rotation body.

    Braced groups are explicit. A bare comma list of single characters
    is one vertex's rotation ("{1,1}" is a loop); once any multi-
    character token appears, each token stands for its own vertex
    ("{12,12}" is two vertices joined by two edges).
    """
    groups = [g.strip() for g in _split_top(body, ",")]
    if any(not g for g in groups):
        raise ParseError("empty vertex group in rotation system")
    if any(g.startswith("{") for g in groups):
        return tuple(_parse_vertex_group(g) for g in groups)
    if len(groups) > 1 and all(len(g) == 1 for g in groups):
        return (tuple(groups),)
    return tuple(_parse_vertex_group(g) for g in groups)


def _parse_signs(text: str, labels: Sequence[str]) -> dict[str, int]:
    text = text.strip().rstrip(";").strip()
    if _wholly_braced(text):
        text = text[1:-1]
    tokens = text.replace(",", " ").split()
    if len(tokens) == 1 and len(tokens[0]) > 1 and set(tokens[0]) <= {"+", "-"}:
        tokens = list(tokens[0])
    for tok in tokens:
        if tok not in ("+", "-"):
            raise ParseError(f"bad sign {tok!r} in u vector")
    if len(tokens) != len(labels):
        raise ParseError(
            f"sign list length mismatch: {len(tokens)} signs for {len(labels)} edges"
        )
    return {l: (1 if tok == "+" else -1) for l, tok in zip(labels, tokens)}


def parse_rotation(text: str) -> RotationSystem:
    """Parse brace/CSV rotation notation with an optional u= sign vector.

    Vertices are comma-separated groups: braced groups hold
    comma-separated labels, bare digit strings give one dart per digit.
    Signs follow the edges in label order.
    """
    parts = text.strip().split("u=")
    if len(parts) > 2:
        raise ParseError("multiple u= sections in rotation system")
    rot_text = parts[0].strip().rstrip(";,").strip()
    if not rot_text:
        raise ParseError("empty rotation system")
    if _wholly_braced(rot_text):
        rot_text = rot_text[1:-1].strip()
    rotations = _parse_rotation_groups(rot_text)
    labels = sorted(dict.fromkeys(chain.from_iterable(rotations)), key=_label_key)
    signs = _parse_signs(parts[1], labels) if len(parts) == 2 else None
    return rotation_system(rotations, signs)


def serialize_rotation(rs: RotationSystem) -> str:
    """Nested-brace form; parse_rotation(serialize_rotation(rs)) == rs."""
    body = ",".join("{" + ",".join(vertex) + "}" for vertex in rs.rotations)
    out = "{" + body + "}"
    if any(s < 0 for _, s in rs.signs):
        out += "; u={" + ",".join("+" if s > 0 else "-" for _, s in rs.signs) + "}"
    return out


# =====================================================================
# Face tracing and classification
# =====================================================================


@dataclass(frozen=True)
class FaceTrace:
    faces: int
    walks: tuple[tuple[str, ...], ...]  # edge labels along one side of each face


def trace_faces(rs: RotationSystem) -> FaceTrace:
    """Partition the traversal flags into closed face walks.

    A flag is a dart plus a side bit; stepping through an edge flips
    the side exactly when the edge sign is -. Orbits come in mirror
    pairs (one per traversal direction) and each pair is one geometric
    face, walked once from its least flag in (dart, side) order.
    """
    first, vertex, mate, label, sign = rs.darts
    if not label:
        return FaceTrace(len(rs.rotations), tuple(() for _ in rs.rotations))

    def turn(d: int, s: int) -> int:
        # the flag (d', s) on the dart d' that s steps round d's vertex
        base = first[vertex[d]]
        return 2 * (base + (d - base + s) % (first[vertex[d] + 1] - base)) + (s > 0)

    seen = [False] * (2 * len(label))  # flag (d, s) is numbered 2d + (s > 0)
    walks = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        walk = []
        f = start
        while not seen[f]:
            d, s = f >> 1, 1 if f & 1 else -1
            seen[f] = seen[turn(d, -s)] = True  # the flag and its mirror
            walk.append(label[d])
            f = turn(mate[d], s * sign[d])
        if f != start:  # orbits of a permutation close where they start
            raise InvariantError(f"face walk from flag {start} closes at {f}")
        walks.append(tuple(walk))
    if sum(map(len, walks)) != 2 * rs.edge_count():
        raise InvariantError("face walks do not traverse every edge twice")
    return FaceTrace(len(walks), tuple(walks))


def _require_connected(rs: RotationSystem) -> None:
    """Raise Disconnected unless the graph is connected."""
    if not rs.rotations:
        raise Disconnected("rotation system has no vertices")
    _, vertex, mate, _, _ = rs.darts
    if len(classes(range(len(rs.rotations)), zip(vertex, (vertex[m] for m in mate)))) != 1:
        raise Disconnected("the underlying graph is disconnected")


def rs_orientable(rs: RotationSystem) -> bool:
    """Signed-graph balance: can vertex flips make every sign +?

    The system is orientable iff every cycle carries an even number of
    - edges; a - loop is such a cycle on its own.
    """
    _require_connected(rs)
    first, vertex, mate, label, sign = rs.darts

    def arcs(v: int):
        for d in range(first[v], first[v + 1]):
            yield label[d], vertex[mate[d]], sign[d] < 0

    return two_colour(len(rs.rotations), arcs)[1] is None


def classify_embedding(rs: RotationSystem) -> SurfaceType:
    """Closed-surface type of the embedding: genus from chi = V - E + F."""
    orientable = rs_orientable(rs)  # raises Disconnected first
    f = trace_faces(rs).faces
    chi = rs.vertex_count() - rs.edge_count() + f
    return SurfaceType(orientable, genus(chi, orientable, 0), 0, chi)


# =====================================================================
# Chord diagrams
# =====================================================================


def parse_chord_code(text: str) -> ChordCode:
    """Read a chord code as a digit string or a comma list."""
    text = text.strip()
    if _wholly_braced(text):
        text = text[1:-1].strip()
    if "," in text:
        labels = tuple(tok.strip() for tok in text.split(","))
        if any(not tok for tok in labels):
            raise ParseError("empty label in chord code")
    else:
        labels = tuple(text)
    if not labels:
        raise ParseError("empty chord code")
    _paired(labels, "chord label {!r}")
    return labels


def chord_text(code: ChordCode) -> str:
    return "".join(code) if all(len(l) == 1 for l in code) else ",".join(code)


def chord_to_rotation(code: ChordCode) -> RotationSystem:
    """The one-vertex, all-+ rotation system reading the code."""
    return rotation_system((tuple(code),))


def _relabel_first_occurrence(seq: Sequence[Hashable]) -> tuple[int, ...]:
    names: dict[Hashable, int] = {}
    out = []
    for label in seq:
        if label not in names:
            names[label] = len(names) + 1
        out.append(names[label])
    return tuple(out)


def chord_canonical(code: ChordCode) -> ChordCode:
    """Least code over all rotations, reflections, and relabelings.

    Two chord diagrams are isomorphic iff their canonical codes agree.
    It descends from the code relabelled by first occurrence through each
    smaller image _smaller_image finds; an image of an image is an image
    of the code, so the descent ends at the least one.
    """
    best = list(_relabel_first_occurrence(code))
    while (found := _smaller_image(best)) is not None:
        seq, r = found
        best = list(_relabel_first_occurrence(seq[r : r + len(best)]))
    return tuple(map(str, best))


def chord_isomorphic(c1: ChordCode, c2: ChordCode) -> bool:
    return chord_canonical(c1) == chord_canonical(c2)


def permutation_to_code(pairs: Iterable[tuple[int, int]]) -> ChordCode:
    """Code of a fixed-point-free involution given as transpositions."""
    mate: dict[int, int] = {}
    for a, b in pairs:
        if a == b:
            raise ValueError(f"fixed point {a} in chord permutation")
        if a in mate or b in mate:
            raise ValueError(f"point {a if a in mate else b} paired twice")
        mate[a] = b
        mate[b] = a
    k = len(mate)
    if sorted(mate) != list(range(1, k + 1)):
        raise ValueError(f"points must be exactly 1..{k}")
    firsts = [min(p, mate[p]) for p in range(1, k + 1)]
    return tuple(str(i) for i in _relabel_first_occurrence(firsts))


def code_to_permutation(code: ChordCode) -> tuple[tuple[int, int], ...]:
    """Position pairing read from the code; ParseError unless each label occurs twice."""
    where: dict[str, list[int]] = {label: [] for label in _paired(code, "chord label {!r}")}
    for pos, label in enumerate(code, start=1):
        where[label].append(pos)
    return tuple(sorted(map(tuple, where.values())))


def _smaller_image(code: list[int]) -> tuple[list[int], int] | None:
    """Find the first rotation or reflection of a first-occurrence code that reads smaller.

    Returns (seq, r) when that image is seq[r : r + len(code)], and None
    when the code is the least in its orbit. Each image is relabelled by
    first occurrence as it is read and is dropped at its first position
    that differs from the code.
    """
    size = len(code)
    doubled = code + code
    for seq, starts in ((doubled, range(1, size)), (doubled[::-1], range(size))):
        for r in starts:
            names = [0] * (size + 1)  # any label sequence, not only pairings
            fresh = 1
            for i in range(size):
                label = names[seq[r + i]]
                if not label:
                    label = names[seq[r + i]] = fresh
                    fresh += 1
                if label != code[i]:
                    if label < code[i]:
                        return seq, r
                    break
    return None


def enumerate_chords(
    n: int, genus_filter: int | None = None, bound: int = 8
) -> list[ChordCode]:
    """All chord-diagram classes with n chords, as sorted canonical codes.

    Orderly: each matching is written once in first-occurrence form and
    kept only if it is the least code of its dihedral orbit.
    """
    if n < 0:
        raise ValueError("chord count must be nonnegative")
    if n > bound:
        raise BoundExceeded(f"n={n} exceeds the enumeration bound {bound}")
    size = 2 * n
    code = [0] * size
    mate = [0] * size
    out: list[tuple[int, ...]] = []

    def faces() -> int:
        # the faces of the one-vertex map are the cycles of p -> mate(p + 1)
        seen = [False] * size
        count = 0
        for p in range(size):
            if not seen[p]:
                count += 1
                while not seen[p]:
                    seen[p] = True
                    p = mate[(p + 1) % size]
        return count or 1  # the empty diagram is one face, the sphere

    def fill(label: int) -> None:
        try:
            i = code.index(0)
        except ValueError:
            if _smaller_image(code) is None and (
                genus_filter is None or genus(1 - n + faces(), True, 0) == genus_filter
            ):
                out.append(tuple(code))
            return
        code[i] = label
        for j in range(i + 1, size):
            if not code[j]:
                code[j] = label
                mate[i], mate[j] = j, i
                fill(label + 1)
                code[j] = 0
        code[i] = 0

    fill(1)
    return [tuple(map(str, c)) for c in sorted(out)]
