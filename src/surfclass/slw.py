"""SLW-graphs: directed multigraphs carrying sets of lists of words.

An SLW-graph encodes a stratified 2-dimensional set: a directed
multigraph plus, for every attached surface stratum, a list holding the
stratum's genus number n (negative = non-orientable of genus -n) and
one boundary word per boundary circle. Words are closed walks written
with letters a / a^-1 naming graph edges.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .classify import SurfaceType, genus
from .errors import (
    Disconnected,
    EmptyComplex,
    MalformedWord,
    NotIsomorphism,
    NotSurface,
    ParseError,
    SizeMismatch,
)
from .complexes import Complex, _content_lines, norm_edge
from .connectivity import classes, two_colour


class Letter(NamedTuple):
    edge: str
    exp: int  # +1 or -1


Word = tuple[Letter, ...]


@dataclass(frozen=True)
class WordList:
    """One stratum: genus number n plus one word per boundary circle."""

    n: int
    words: tuple[Word, ...]


class SLWIndex(NamedTuple):
    hits: dict[str, list[tuple[int, int]]]
    signatures: tuple[tuple, ...]
    profiles: dict[str, tuple]


@dataclass(frozen=True)
class SLWGraph:
    vertices: frozenset[str]
    edges: tuple[tuple[str, str, str], ...]  # (label, tail, head), by label
    lists: tuple[WordList, ...]

    @cached_property
    def index(self) -> SLWIndex:
        """Where each edge label occurs in the words, read in one pass.

        hits: each label's occurrences as (list index, exponent) in
        reading order, keyed by every edge label in label order.
        signatures: each list's (n, sorted word lengths).
        profiles: each label's sorted (signature, count) over the lists
        it occurs in, which no relabelling changes.
        Built on first use and kept; not a dataclass field, so equality,
        hashing and repr ignore it.
        """
        hits: dict[str, list[tuple[int, int]]] = {label: [] for label, _, _ in self.edges}
        for i, wl in enumerate(self.lists):
            for w in wl.words:
                for letter in w:
                    hits.setdefault(letter.edge, []).append((i, letter.exp))
        sig = tuple((wl.n, tuple(sorted(map(len, wl.words)))) for wl in self.lists)
        profiles = {
            label: tuple(sorted((sig[i], k) for i, k in Counter(i for i, _ in occ).items()))
            for label, occ in hits.items()
        }
        return SLWIndex(hits, sig, profiles)

    def edge_map(self) -> dict[str, tuple[str, str]]:
        return {label: (tail, head) for label, tail, head in self.edges}

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.edges)


def word_text(w: Word) -> str:
    return " ".join(letter.edge if letter.exp == 1 else f"{letter.edge}^-1" for letter in w)


def _word_key(w: Word) -> tuple:
    return (len(w), tuple(w))


def _list_key(wl: WordList) -> tuple:
    return (wl.n, len(wl.words), tuple(map(_word_key, wl.words)))


def _walk_ends(letter: Letter, edge_map: Mapping[str, tuple[str, str]]) -> tuple[str, str]:
    # (departure vertex, arrival vertex) of one letter traversal
    tail, head = edge_map[letter.edge]
    return (tail, head) if letter.exp == 1 else (head, tail)


def word_list(n: int, words: Iterable[Word]) -> WordList:
    return WordList(n, tuple(sorted(words, key=_word_key)))


def slw_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str]],
    lists: Iterable[WordList],
) -> SLWGraph:
    """Validate and canonicalize an SLW-graph.

    Edge endpoints are added to the vertex set implicitly; every letter
    must name an edge and every word must read as a closed walk.
    """
    edge_list = [(str(label), str(tail), str(head)) for label, tail, head in edges]
    emap: dict[str, tuple[str, str]] = {}
    for label, tail, head in edge_list:
        if label in emap:
            raise ParseError(f"duplicate edge label {label!r}")
        emap[label] = (tail, head)
    lists = list(lists)
    for wl in lists:
        for w in wl.words:
            _validate_word(w, emap)
    return _slw(vertices, edge_list, lists)


def _slw(
    vertices: Iterable[str],
    edges: list[tuple[str, str, str]],
    lists: Iterable[WordList],
) -> SLWGraph:
    # the SLW-graph of edges and words that have already been validated
    verts = set(str(v) for v in vertices)
    for _, tail, head in edges:
        verts.update((tail, head))
    canon_lists = sorted((word_list(wl.n, wl.words) for wl in lists), key=_list_key)
    return SLWGraph(frozenset(verts), tuple(sorted(edges)), tuple(canon_lists))


def _validate_word(w: Word, emap: Mapping[str, tuple[str, str]], line: int | None = None) -> None:
    if not w:
        raise MalformedWord("empty word", line)
    for letter in w:
        if letter.edge not in emap:
            raise MalformedWord(f"word names a missing edge {letter.edge!r}", line)
        if letter.exp not in (1, -1):
            raise MalformedWord(f"letter {letter.edge!r} has exponent {letter.exp}", line)
    for i, letter in enumerate(w):
        nxt = w[(i + 1) % len(w)]
        if _walk_ends(letter, emap)[1] != _walk_ends(nxt, emap)[0]:
            raise MalformedWord(f"word ({word_text(w)}) is not a closed walk", line)


# =====================================================================
# Text format
# =====================================================================


def _parse_letter(token: str, line: int) -> Letter:
    if token.endswith("^-1"):
        label = token[:-3]
        if not label or "^" in label:
            raise MalformedWord(f"bad letter {token!r}", line)
        return Letter(label, -1)
    if "^" in token:
        raise MalformedWord(f"bad letter {token!r} (only ^-1 is allowed)", line)
    return Letter(token, 1)


def parse_slw(text: str) -> SLWGraph:
    """Parse the graph:/v/e/list block format."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input: no SLW-graph")
    no, first = lines[0]
    if first != "graph:":
        raise ParseError(f"expected 'graph:' header, got {first!r}", no)
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    emap: dict[str, tuple[str, str]] = {}
    blocks: list[tuple[int, list[Word]]] = []  # (n, words) of each list block
    for no, line in lines[1:]:
        fields = line.split()
        if fields[0] == "v":
            if blocks or len(fields) != 2:
                raise ParseError(f"misplaced or malformed vertex line {line!r}", no)
            vertices.append(fields[1])
        elif fields[0] == "e":
            if blocks or len(fields) != 4:
                raise ParseError(f"misplaced or malformed edge line {line!r}", no)
            label, tail, head = fields[1:]
            if label in emap:
                raise ParseError(f"duplicate edge label {label!r}", no)
            emap[label] = (tail, head)
            edges.append((label, tail, head))
        elif fields[0] == "list":
            spec = line[4:].strip()
            if not spec.startswith("n=") or not spec.endswith(":"):
                raise ParseError(f"expected 'list n=<int>:', got {line!r}", no)
            try:
                n = int(spec[2:-1])
            except ValueError:
                raise ParseError(f"bad genus number in {line!r}", no) from None
            blocks.append((n, []))
        else:
            if not blocks:
                raise ParseError(f"word outside any list block: {line!r}", no)
            w = tuple(_parse_letter(tok, no) for tok in fields)
            _validate_word(w, emap, no)
            blocks[-1][1].append(w)
    return _slw(vertices, edges, [WordList(n, tuple(words)) for n, words in blocks])


def slw_to_text(s: SLWGraph) -> str:
    """Canonical text form; parse_slw(slw_to_text(s)) == s."""
    lines = ["graph:"]
    lines.extend(f"v {v}" for v in sorted(s.vertices))
    lines.extend(f"e {label} {tail} {head}" for label, tail, head in s.edges)
    for wl in s.lists:
        lines.append(f"list n={wl.n}:")
        lines.extend(word_text(w) for w in wl.words)
    return "\n".join(lines) + "\n"


# =====================================================================
# Word and list equivalence
# =====================================================================


def _least_rotation(w: Word) -> Word:
    # w's canonical form (Booth 1980) in linear time: of two starts i < j
    # that agree on k letters, the larger loses, and so do the k after it
    n, d, i, j, k = len(w), w + w, 0, 1, 0
    while j < n and k < n:
        if d[i + k] == d[j + k]:
            k += 1
        elif d[i + k] > d[j + k]:
            i, j, k = j, max(i + k + 1, j + 1), 0
        else:
            j, k = j + k + 1, 0
    return d[i : i + n]


def word_equivalent(w1: Word, w2: Word) -> bool:
    """True iff w2 is a cyclic rotation of w1."""
    return _least_rotation(w1) == _least_rotation(w2)


def word_reverse(w: Word) -> Word:
    """Reverse the letter order and negate every exponent."""
    return tuple(Letter(letter.edge, -letter.exp) for letter in reversed(w))


def word_substitute(w: Word, letter_map: Mapping[str, str]) -> Word:
    return tuple(Letter(letter_map[letter.edge], letter.exp) for letter in w)


def _list_class(wl: WordList) -> tuple:
    # equal iff the lists are: n >= 0 matches all words as read or all reversed, n < 0 each either way
    ahead = [_least_rotation(w) for w in wl.words]
    back = [_least_rotation(word_reverse(w)) for w in wl.words]
    return (wl.n, tuple(sorted(map(min, ahead, back)) if wl.n < 0 else min(sorted(ahead), sorted(back))))


def _lists_match(lists: Iterable[WordList], classes: Counter, letter_map: Mapping[str, str]) -> bool:
    """True iff every list, its letters substituted, takes one copy of its class from classes."""
    left = classes.copy()
    for wl in lists:
        key = _list_class(WordList(wl.n, tuple(word_substitute(w, letter_map) for w in wl.words)))
        if not left[key]:
            return False
        left[key] -= 1
    return True


def list_equivalent(l1: WordList, l2: WordList, letter_map: Mapping[str, str]) -> bool:
    """Decide list equivalence under a letter substitution.

    Each matched word pair must be equivalent or reverse; orientable
    lists (n >= 0) must use one of the two modes uniformly.
    """
    if l1.n != l2.n or len(l1.words) != len(l2.words):
        return False
    return _lists_match((l1,), Counter((_list_class(l2),)), letter_map)


# =====================================================================
# SLW-graph equivalence
# =====================================================================


def _occurrences(s: SLWGraph) -> tuple[list[Word], dict[str, list[tuple[int, int]]]]:
    # every word of s, list by list, and each label's occurrences as (word number, position)
    words = [w for wl in s.lists for w in wl.words]
    occ: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for k, w in enumerate(words):
        for i, letter in enumerate(w):
            occ[letter.edge].append((k, i))
    return words, occ


def _seeded_search(s1: SLWGraph, s2: SLWGraph, at1: tuple, order: list, cands: list, keys: Counter) -> dict | None:
    """The least valid bijection along order, for an s1 whose words one seed lays.

    A seed lays the first worded letter on an occurrence of a candidate, reversed iff
    the exponents differ; each letter mapped lays its other occurrence on its image's.
    """
    (words1, occ1), (words2, occ2) = at1, _occurrences(s2)
    prof1, prof2 = s1.index.profiles, s2.index.profiles
    k = len(order) - len(occ1)  # the letters in no word lead the order and take cands[0] in turn
    free = dict(zip(order[:k], cands[0]))

    def forced(*seed: int) -> dict[str, str] | None:  # None at the first conflict
        m, images, laid, todo = dict(free), set(), set(), [seed]
        while todo:
            a, p, b, q = todo.pop()
            # with no label thrice, an earlier lay of a agrees with this one, and no
            # other word lies on b, since b's letter at q has no other preimage left
            if a in laid:
                continue
            w, v, n = words1[a], words2[b], len(words1[a])
            if len(v) != n:
                return None
            laid.add(a)
            step = 1 if w[p].exp == v[q].exp else -1
            for i in range(n):
                i1, i2 = (p + i) % n, (q + step * i) % n
                x, y = w[i1], v[i2]
                if x.exp * step != y.exp or m.get(x.edge, y.edge) != y.edge:
                    return None
                if x.edge not in m:
                    if y.edge in images or prof1[x.edge] != prof2[y.edge]:
                        return None
                    m[x.edge] = y.edge
                    images.add(y.edge)
                    o1, o2 = occ1[x.edge], occ2[y.edge]
                    if len(o1) == 2:  # equal profiles, so y occurs twice too
                        todo.append(o1[o1[0] == (a, i1)] + o2[o2[0] == (b, i2)])
        return m

    a, p = occ1[order[k]][0]
    for y in cands[k]:  # the first image with a valid map gives the least witness
        found = [[m[label] for label in order] for b, q in occ2[y]
                 if (m := forced(a, p, b, q)) is not None and _lists_match(s1.lists, keys, m)]
        if found:
            return dict(zip(order, min(found)))
    return None


def slw_equivalent(
    s1: SLWGraph, s2: SLWGraph, letter_map: Mapping[str, str] | None = None
) -> dict[str, str] | None:
    """Find a letter bijection making the two SLWs equivalent.

    Returns the witness bijection (a dict), or None when the SLWs are
    inequivalent. With letter_map given, only that bijection is tried.
    Raises SizeMismatch when the edge or list counts differ.
    """
    if len(s1.edges) != len(s2.edges):
        raise SizeMismatch(f"edge counts differ: {len(s1.edges)} vs {len(s2.edges)}")
    if len(s1.lists) != len(s2.lists):
        raise SizeMismatch(f"list counts differ: {len(s1.lists)} vs {len(s2.lists)}")
    labels1, labels2 = s1.labels(), s2.labels()
    if letter_map is not None:
        m = {str(k): str(v) for k, v in letter_map.items()}
        if sorted(m) != sorted(labels1) or sorted(m.values()) != sorted(labels2):
            raise ValueError("letter map is not a bijection between the edge labels")
        return dict(m) if _lists_match(s1.lists, Counter(map(_list_class, s2.lists)), m) else None
    if sorted(s1.index.signatures) != sorted(s2.index.signatures):
        return None
    prof1, prof2 = s1.index.profiles, s2.index.profiles
    by_profile: dict[tuple, list[str]] = defaultdict(list)
    for label in labels2:
        by_profile[prof2[label]].append(label)
    # letters in profile order, each with its candidates in label order
    order = sorted(labels1, key=prof1.__getitem__)
    cands = [by_profile.get(prof1[label], ()) for label in order]
    keys = Counter(map(_list_class, s2.lists))
    words1, occ1 = at1 = _occurrences(s1)
    joins = [(o[0][0], o[-1][0]) for o in occ1.values()]
    if occ1 and max(map(len, occ1.values())) <= 2 and len(classes(range(len(words1)), joins)) == 1:
        return _seeded_search(s1, s2, at1, order, cands, keys)  # a word, no label thrice, one piece
    m, used, stack = {}, set(), []
    while True:  # depth first in candidate order, so the first bijection that matches is the least
        if len(stack) < len(order):
            stack.append(iter(cands[len(stack)]))
        elif _lists_match(s1.lists, keys, m):
            return dict(m)
        while stack:  # the deepest letter takes its next free candidate, or backs up
            label = order[len(stack) - 1]
            used.discard(m.pop(label, None))
            if (cand := next((c for c in stack[-1] if c not in used), None)) is not None:
                break
            stack.pop()
        else:
            return None
        m[label] = cand
        used.add(cand)


def extends_to_homeomorphism(
    k: SLWGraph,
    k2: SLWGraph,
    vertex_map: Mapping[str, str],
    edge_map: Mapping[str, str],
) -> bool:
    """Decide whether a directed-graph isomorphism extends to the strata.

    The maps must form an isomorphism of the underlying directed
    multigraphs; the verdict is then whether substituting the edge
    names turns one SLW into a set equivalent to the other.
    """
    vm = {str(a): str(b) for a, b in vertex_map.items()}
    em = {str(a): str(b) for a, b in edge_map.items()}
    if sorted(vm) != sorted(k.vertices) or sorted(vm.values()) != sorted(k2.vertices):
        raise NotIsomorphism("vertex map is not a bijection between the vertex sets")
    if sorted(em) != sorted(k.labels()) or sorted(em.values()) != sorted(k2.labels()):
        raise NotIsomorphism("edge map is not a bijection between the edge labels")
    emap2 = k2.edge_map()
    for label, tail, head in k.edges:
        if emap2[em[label]] != (vm[tail], vm[head]):
            raise NotIsomorphism(f"edge {label!r} is not mapped to a matching directed edge")
    return len(k.lists) == len(k2.lists) and _lists_match(k.lists, Counter(map(_list_class, k2.lists)), em)


# =====================================================================
# Surface conditions, Euler characteristic, classification
# =====================================================================


@dataclass(frozen=True)
class SLWSurfaceCheck:
    edges_ok: bool
    vertices_ok: bool


def _corner_classes(s: SLWGraph) -> dict[str, int]:
    """Number of dart equivalence classes at every vertex.

    Darts are edge ends; each adjacent letter pair in a word (cyclic)
    welds the arrival end of the first arc to the departure end of the
    second at their shared vertex.
    """
    darts = [(label, end) for label in s.labels() for end in ("tail", "head")]
    welds = [
        ((letter.edge, "head" if letter.exp == 1 else "tail"), (nxt.edge, "tail" if nxt.exp == 1 else "head"))
        for wl in s.lists
        for w in wl.words
        for letter, nxt in zip(w, w[1:] + w[:1])
    ]
    class_of = {d: k for k, cls in enumerate(classes(darts, welds)) for d in cls}
    at: dict[str, set[int]] = {v: set() for v in s.vertices}
    for label, tail, head in s.edges:
        at[tail].add(class_of[(label, "tail")])
        at[head].add(class_of[(label, "head")])
    return {v: len(ks) for v, ks in at.items()}


def slw_surface_check(s: SLWGraph) -> SLWSurfaceCheck:
    """Closed-surface conditions: edge coverage and vertex corner classes."""
    edges_ok = all(len(s.index.hits[label]) == 2 for label in s.labels())
    vertices_ok = all(k == 1 for k in _corner_classes(s).values())
    return SLWSurfaceCheck(edges_ok, vertices_ok)


def _stratum_euler(wl: WordList) -> int:
    b = len(wl.words)
    return 2 - 2 * wl.n - b if wl.n >= 0 else 2 + wl.n - b


def slw_euler(s: SLWGraph) -> int:
    """Euler characteristic of the stratified set: chi(graph) + sum chi(strata)."""
    return (len(s.vertices) - len(s.edges)) + sum(map(_stratum_euler, s.lists))


def _slw_components(s: SLWGraph) -> int:
    nodes: list[object] = [("v", v) for v in s.vertices]
    nodes.extend(("list", i) for i in range(len(s.lists)))
    pairs: list[tuple[object, object]] = [(("v", tail), ("v", head)) for _, tail, head in s.edges]
    pairs.extend((("list", i), ("v", tail)) for label, tail, _ in s.edges for i, _ in s.index.hits[label])
    return len(classes(nodes, pairs))


def _boundary_circles(s: SLWGraph) -> int:
    """Circles formed by the once-covered edges (the free boundary)."""
    free = [(label, tail, head) for label, tail, head in s.edges if len(s.index.hits[label]) == 1]
    at_vertex: dict[str, list[str]] = defaultdict(list)
    for label, tail, head in free:
        at_vertex[tail].append(label)
        at_vertex[head].append(label)
    pairs = [(labels[0], other) for labels in at_vertex.values() for other in labels[1:]]
    return len(classes([label for label, _, _ in free], pairs))


def _orientable_gluing(s: SLWGraph) -> bool:
    """Search for stratum orientations making every doubled edge cancel.

    Reversing a stratum reverses all its boundary words at once; the
    glued surface is orientable iff signs exist under which each
    twice-covered edge is traversed once each way.
    """
    if any(wl.n < 0 for wl in s.lists):
        return False
    arcs: list[list[tuple[str, int, bool]]] = [[] for _ in s.lists]
    for label, occ in s.index.hits.items():
        if len(occ) == 2:
            # two traversals the same way cancel only if one stratum is reversed
            (i, x), (j, y) = occ
            arcs[i].append((label, j, x == y))
            if j != i:
                arcs[j].append((label, i, x == y))
    return two_colour(len(arcs), arcs.__getitem__)[1] is None


def classify_slw(s: SLWGraph) -> SurfaceType:
    """Topological type of the surface carried by an SLW-graph.

    Every edge must lie under one stratum arc (boundary) or two
    (interior); every vertex must carry a single corner class.
    """
    if not s.vertices and not s.lists:
        raise EmptyComplex("SLW-graph has no cells")
    hits = s.index.hits
    for label in s.labels():
        if len(hits[label]) not in (1, 2):
            raise NotSurface(f"edge {label!r} appears {len(hits[label])} times in the words")
    for v, k in sorted(_corner_classes(s).items()):
        if k != 1:
            raise NotSurface(f"vertex {v!r} carries {k} corner classes")
    if _slw_components(s) != 1:
        raise Disconnected("the stratified set is disconnected")
    chi = slw_euler(s)
    b = _boundary_circles(s)
    orientable = _orientable_gluing(s)
    return SurfaceType(orientable, genus(chi, orientable, b), b, chi)


# =====================================================================
# Conversion from cell complexes
# =====================================================================


def slw_from_complex(cx: Complex) -> SLWGraph:
    """Rebuild a 2-complex as disk strata over its 1-skeleton.

    Every 2-cell becomes one genus-0 stratum whose single boundary word
    reads the face cycle; edges are named "a-b" and directed from the
    smaller endpoint.
    """
    edges = [(f"{a}-{b}", a, b) for a, b in sorted(cx.edge_set())]
    lists = []
    for cyc in cx.cells2():
        letters = []
        k = len(cyc)
        for i in range(k):
            a, b = cyc[i], cyc[(i + 1) % k]
            lo, hi = norm_edge(a, b)
            letters.append(Letter(f"{lo}-{hi}", 1 if a == lo else -1))
        lists.append(WordList(0, (tuple(letters),)))
    return slw_graph(cx.vertex_set(), edges, lists)
