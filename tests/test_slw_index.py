"""The SLW occurrence index changes no answer and no witness.

`SLWGraph.index` reads every word once, and `slw_equivalent` takes its
list signatures and letter profiles from it.  The references below are
copies of the replaced per-letter rescan (`_letter_profile`, run once
per letter in the sort key and again at every search node) and of the
search that used it; every witness bijection, or None, must agree
exactly.  The same holds for the seeded search that now decides every
SLW whose words one seed lays, and for the stack search that the other
SLWs fall back on; the tests at the end pin which path each pair takes.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import surfclass.slw as slw_module
from surfclass import (
    Letter,
    SizeMismatch,
    WordList,
    catalog_get,
    catalog_list,
    relabel,
    slw_equivalent,
    slw_from_complex,
    slw_graph,
)
from surfclass.slw import _list_class, _lists_match
from test_incidence import grid

# =====================================================================
# Reference: the replaced rescans and the search that read them
# =====================================================================


def ref_list_signature(wl):
    return (wl.n, tuple(sorted(len(w) for w in wl.words)))


def ref_letter_profile(s, label):
    per_list = []
    for wl in s.lists:
        count = sum(1 for w in wl.words for letter in w if letter.edge == label)
        if count:
            per_list.append((ref_list_signature(wl), count))
    return tuple(sorted(per_list))


def ref_slw_equivalent(s1, s2):
    if len(s1.edges) != len(s2.edges):
        raise SizeMismatch(f"edge counts differ: {len(s1.edges)} vs {len(s2.edges)}")
    if len(s1.lists) != len(s2.lists):
        raise SizeMismatch(f"list counts differ: {len(s1.lists)} vs {len(s2.lists)}")
    labels1, labels2 = s1.labels(), s2.labels()
    if sorted(map(ref_list_signature, s1.lists)) != sorted(map(ref_list_signature, s2.lists)):
        return None
    prof2 = defaultdict(list)
    for label in labels2:
        prof2[ref_letter_profile(s2, label)].append(label)
    order = sorted(labels1, key=lambda e: ref_letter_profile(s1, e))

    def search(i, m, used):
        if i == len(order):
            return dict(m) if _lists_match(s1.lists, Counter(map(_list_class, s2.lists)), m) else None
        label = order[i]
        for cand in prof2.get(ref_letter_profile(s1, label), ()):
            if cand in used:
                continue
            m[label] = cand
            used.add(cand)
            found = search(i + 1, m, used)
            if found is not None:
                return found
            used.discard(cand)
            del m[label]
        return None

    return search(0, {}, set())


# =====================================================================
# Inputs
# =====================================================================


def outcome(fn, *args):
    """A witness, None, or the SizeMismatch raised, in a form == compares fully."""
    try:
        return ("ok", fn(*args))
    except SizeMismatch as exc:
        return ("raised", str(exc))


def rebuilt(s, names, n0=None):
    """s with its edge labels renamed by names, and its first list's n set to n0 if given."""
    lists = [
        WordList(wl.n, tuple(tuple(Letter(names[x.edge], x.exp) for x in w) for w in wl.words))
        for wl in s.lists
    ]
    if n0 is not None:
        lists[0] = WordList(n0, lists[0].words)
    return slw_graph(s.vertices, [(names[label], tail, head) for label, tail, head in s.edges], lists)


def renamed(s):
    """An equivalent copy: every label l becomes "r" + l, except that the last
    two adjacent letters of one profile in search order trade names, so that
    the search backs up at least once before it finds the witness.
    Renaming in label order keeps every other first candidate the right one,
    which keeps the search short on the 27-edge grids.
    """
    order = sorted(s.labels(), key=lambda e: ref_letter_profile(s, e))
    names = {label: f"r{label}" for label in order}
    profile = {label: ref_letter_profile(s, label) for label in order}
    ties = [(a, b) for a, b in zip(order, order[1:]) if profile[a] == profile[b]]
    if ties:
        a, b = ties[-1]
        names[a], names[b] = names[b], names[a]
    return rebuilt(s, names)


def regenus(s):
    """An inequivalent copy: the same letters with the first list's n raised by one."""
    return rebuilt(s, {label: label for label in s.labels()}, n0=s.lists[0].n + 1)


def _fixtures(*kinds):
    return {name: catalog_get(name).payload for name in catalog_list() if catalog_get(name).kind in kinds}


SLW_FIXTURES = _fixtures("slw")
CATALOG = {name: slw_from_complex(cx) for name, cx in _fixtures("scx", "cw2").items()}
GRIDS = {
    f"{kind}3{' quads' if quads else ''}": slw_from_complex(grid(kind, 3, quads))
    for kind in ("torus", "klein", "mobius")
    for quads in (False, True)
}
EVERY = {**SLW_FIXTURES, **CATALOG, **GRIDS}
EQUIVALENT = {name: (s, renamed(s)) for name, s in {**CATALOG, **GRIDS}.items()}
INEQUIVALENT = {
    "slw/torus vs slw/klein": (SLW_FIXTURES["slw/torus"], SLW_FIXTURES["slw/klein"]),
    "rcc/cylinder vs rcc/mobius": (CATALOG["rcc/cylinder"], CATALOG["rcc/mobius"]),
    **{f"{name} vs its n+1 copy": (s, regenus(s)) for name, s in {**CATALOG, **GRIDS}.items() if s.lists},
}

# =====================================================================
# Tests
# =====================================================================


@pytest.mark.parametrize("name", sorted(EVERY))
def test_index_matches_the_per_letter_rescan(name):
    s = EVERY[name]
    assert s.index.signatures == tuple(map(ref_list_signature, s.lists))
    assert s.index.profiles == {label: ref_letter_profile(s, label) for label in s.labels()}
    for label in s.labels():
        occ = [(i, x.exp) for i, wl in enumerate(s.lists) for w in wl.words for x in w if x.edge == label]
        assert s.index.hits[label] == occ


@pytest.mark.parametrize("pair", list(product(sorted(SLW_FIXTURES), repeat=2)))
def test_fixture_pairs_give_the_reference_witness(pair):
    s1, s2 = (SLW_FIXTURES[name] for name in pair)
    assert outcome(slw_equivalent, s1, s2) == outcome(ref_slw_equivalent, s1, s2)


@pytest.mark.parametrize("name", sorted(EQUIVALENT))
def test_renamed_copies_give_the_reference_witness(name):
    s1, s2 = EQUIVALENT[name]
    got = slw_equivalent(s1, s2)
    assert got == ref_slw_equivalent(s1, s2)
    assert got is not None


@pytest.mark.parametrize("name", sorted(INEQUIVALENT))
def test_inequivalent_pairs_give_none_like_the_reference(name):
    s1, s2 = INEQUIVALENT[name]
    assert slw_equivalent(s1, s2) is None
    assert ref_slw_equivalent(s1, s2) is None


def test_inputs_reach_every_search_path():
    outcomes = [outcome(slw_equivalent, a, b) for a, b in product(SLW_FIXTURES.values(), repeat=2)]
    assert {kind for kind, _ in outcomes} == {"ok", "raised"}
    assert ("ok", None) in outcomes
    # some witness is not the plain renaming, so the search backed up
    witnesses = [slw_equivalent(*pair) for pair in EQUIVALENT.values()]
    assert any(got != {label: f"r{label}" for label in got} for got in witnesses)


@pytest.mark.parametrize("name", ["slw/torus", "rcc/mobius", "klein3 quads"])
def test_cached_index_leaves_equality_hash_and_repr_alone(name):
    s = EVERY[name]
    before = (repr(s), hash(s))
    assert slw_equivalent(s, s) is not None
    twin = rebuilt(s, {label: label for label in s.labels()})
    assert "index" in vars(s) and "index" not in vars(twin)
    assert (repr(s), hash(s)) == before
    assert hash(s) == hash(twin) and s == twin and twin == s


# =====================================================================
# The seeded search and its fallback
# =====================================================================
#
# An SLW whose words are joined into one piece by shared letters, and
# whose labels each occur at most twice, takes the seeded search: one
# seed (the first worded letter laid on one occurrence of a candidate)
# forces the whole letter map. Every other SLW keeps the stack search.
# Both must return the reference's witness exactly.


def shuffled(s, rng):
    """An equivalent copy: labels renamed by rng, every word rotated, the lists shuffled."""
    labels = list(s.labels())
    names = dict(zip(labels, (f"y{label}" for label in rng.sample(labels, len(labels)))))
    lists = []
    for wl in s.lists:
        words = [tuple(Letter(names[x.edge], x.exp) for x in w) for w in wl.words]
        words = [w[k:] + w[:k] for w in words for k in [rng.randrange(len(w))]]
        lists.append(WordList(wl.n, tuple(rng.sample(words, len(words)))))
    rng.shuffle(lists)
    return slw_graph(s.vertices, [(names[label], tail, head) for label, tail, head in s.edges], lists)


def path(monkeypatch, seeded):
    """Record each call of the seeded search; with seeded False, fail any call of it.

    slw_equivalent returns what the seeded search returns, so a recorded
    call means the stack search did not run.
    """
    calls = []
    real = slw_module._seeded_search

    def spy(*args):
        calls.append(args)
        if not seeded:
            raise AssertionError("a fallback input reached the seeded search")
        return real(*args)

    monkeypatch.setattr(slw_module, "_seeded_search", spy)
    return calls


def slw_lists(lists, loops="abcd"):
    """An SLW over one vertex P with a loop edge per letter of loops and lists of (n, words); x' is x^-1."""
    lists = [WordList(n, tuple(tuple(Letter(t.rstrip("'"), -1 if t.endswith("'") else 1) for t in w.split())
                               for w in words)) for n, words in lists]
    return slw_graph(["P"], [(label, "P", "P") for label in loops], lists)


def slw(words, n=0, loops="ab"):
    """slw_lists with one list, of genus number n, per word."""
    return slw_lists([(n, [w]) for w in words], loops)


def two_word_list(n, w1, w2):
    return slw_lists([(n, [w1, w2])])


def symmetric_torus():
    """The 3x3 triangulated torus, its vertices named so the diagonal reflection keeps every edge's direction.

    Vertex (i, j) is named "<i+j><i><j>", and every edge joins two
    different sums, so the reflection (i, j) -> (j, i) maps the tail of
    each edge to the tail of its image. The diagonal edge it fixes,
    between (0, 0) and (1, 1), is renamed "a", the least label.
    """
    cx = relabel(grid("torus", 3), {f"v{i * 4 + j}": f"{i + j}{i}{j}" for i in range(3) for j in range(3)})
    s = slw_from_complex(cx)
    return rebuilt(s, {label: "a" if label == "000-211" else f"b{label}" for label in s.labels()})


def rotate_words_with(s, letter, shifts):
    """s with the words that contain letter rotated left by shifts, in order."""
    shifts, lists = iter(shifts), []
    for wl in s.lists:
        words = []
        for w in wl.words:
            k = next(shifts) if any(x.edge == letter for x in w) else 0
            words.append(w[k:] + w[:k])
        lists.append(WordList(wl.n, tuple(words)))
    return slw_graph(s.vertices, s.edges, lists)


def with_loops(s, labels):
    """s plus loop edges named by labels, in no word, at its least vertex."""
    v = min(s.vertices)
    return slw_graph(s.vertices, [*s.edges, *((label, v, v) for label in labels)], s.lists)


TETRA = CATALOG["example/tetra-boundary"]
SEEDED_PAIRS = {
    **{f"{name} shuffled by {k}": (CATALOG[name], shuffled(CATALOG[name], random.Random(k)))
       for name in ("example/tetra-boundary", "rcc/cylinder", "example/twisted-quads") for k in range(3)},
    "one-vertex torus": (SLW_FIXTURES["slw/torus"], slw(["d c' d' c"], loops="cd")),
    "one-vertex torus vs klein": (SLW_FIXTURES["slw/torus"], SLW_FIXTURES["slw/klein"]),
    "periodic word": (slw(["a b a b"]), slw(["d c d c"], loops="cd")),
    "periodic word, n=-1": (slw(["a b a b"], n=-1), slw(["c d c d"], n=-1, loops="cd")),
    "periodic word vs its reverse": (slw(["a b a b"]), slw(["b' a' b' a'"])),
    "tetrahedron with letters in no word": (
        with_loops(TETRA, ["u", "w"]), shuffled(with_loops(TETRA, ["t", "z"]), random.Random(5)),
    ),
    "a letter in no word vs none": (slw(["a a"]), slw(["a b"])),
    "symmetric torus": (symmetric_torus(), rotate_words_with(symmetric_torus(), "a", [1, 0])),
    # every word lies well, and only the list key count sees that n=0 reads both words one way
    "one of two words reversed, n=0": (two_word_list(0, "a b c", "a d b"), two_word_list(0, "a b c", "b' d' a'")),
    "one of two words reversed, n=-1": (two_word_list(-1, "a b c", "a d b"), two_word_list(-1, "a b c", "b' d' a'")),
    # each letter's two words share a list in one SLW only, so the profiles differ
    "words grouped otherwise": (
        slw_lists([(0, ["a b", "c d"]), (0, ["b c", "d a"])]), slw_lists([(0, ["a b", "b c"]), (0, ["c d", "d a"])]),
    ),
}
FALLBACK_PAIRS = {
    "no worded letter": (CATALOG["example/three-components"], shuffled(CATALOG["example/three-components"],
                                                                      random.Random(0))),
    "two disjoint triangles": (slw(["a b c", "d e f"], loops="abcdef"), slw(["d f e", "a b c"], loops="abcdef")),
    "book with a 3-times label": (slw(["a b", "a c", "a d"], loops="abcd"), slw(["b c", "b d", "b a"], loops="abcd")),
}


@pytest.mark.parametrize("name", sorted(SEEDED_PAIRS))
def test_seeded_pairs_give_the_reference_witness(name, monkeypatch):
    s1, s2 = SEEDED_PAIRS[name]
    calls = path(monkeypatch, seeded=True)
    assert outcome(slw_equivalent, s1, s2) == outcome(ref_slw_equivalent, s1, s2)
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(FALLBACK_PAIRS))
def test_fallback_pairs_give_the_reference_witness(name, monkeypatch):
    s1, s2 = FALLBACK_PAIRS[name]
    path(monkeypatch, seeded=False)
    got = slw_equivalent(s1, s2)
    assert got == ref_slw_equivalent(s1, s2)
    assert got is not None


def first_candidate(s1, s2):
    """The seed letter of s1 and the first candidate image it is laid on."""
    prof1, prof2 = s1.index.profiles, s2.index.profiles
    seed = min((label for label in s1.labels() if prof1[label]), key=lambda label: (prof1[label], label))
    return seed, min(label for label in s2.labels() if prof2[label] == prof1[seed])


def test_some_shuffled_witness_lays_the_seed_past_its_first_candidate():
    pairs = [pair for name, pair in SEEDED_PAIRS.items() if "shuffled" in name]
    laid = [slw_equivalent(*pair)[first_candidate(*pair)[0]] for pair in pairs]
    assert any(y != first_candidate(*pair)[1] for y, pair in zip(laid, pairs))


def list_checks(monkeypatch):
    """Record each map that _lists_match checks, with its verdict."""
    checks = []
    real = slw_module._lists_match

    def spy(lists, keys, m):
        checks.append((dict(m), real(lists, keys, m)))
        return checks[-1][1]

    monkeypatch.setattr(slw_module, "_lists_match", spy)
    return checks


def test_symmetric_torus_takes_the_lesser_of_two_valid_maps(monkeypatch):
    s1, s2 = SEEDED_PAIRS["symmetric torus"]
    checks = list_checks(monkeypatch)
    got = slw_equivalent(s1, s2)
    valid = [m for m, ok in checks if ok]
    # both occurrences of "a" give a valid map fixing "a", and the first one found is not the least
    assert len(valid) == 2 and valid[0] != valid[1]
    assert all(m["a"] == "a" for m in valid)
    assert got == valid[1] != valid[0]
    monkeypatch.undo()
    assert got == ref_slw_equivalent(s1, s2)


EXPONENT_CONFLICTS = {
    "a b c vs a b^-1 c": (slw(["a b c"], loops="abc"), slw(["a b' c"], loops="abc")),
    "torus3 quads shuffled": (GRIDS["torus3 quads"], shuffled(GRIDS["torus3 quads"], random.Random(1))),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_CONFLICTS))
def test_seeds_that_break_an_exponent_never_reach_the_list_check(name, monkeypatch):
    checks = list_checks(monkeypatch)
    slw_equivalent(*EXPONENT_CONFLICTS[name])
    assert all(ok for _, ok in checks) and len(checks) <= 2


def regrouped(s, rng):
    """The words of s dealt into lists of one or two words, each list's n drawn from -1, 0, 1."""
    words = rng.sample([w for wl in s.lists for w in wl.words], sum(len(wl.words) for wl in s.lists))
    lists = []
    while words:
        k = rng.choice((1, 2))
        lists.append(WordList(rng.choice((-1, 0, 1)), tuple(words[:k])))
        words = words[k:]
    return slw_graph(s.vertices, s.edges, lists)


def spoiled(s, rng):
    """s with one list's n raised, or one of its words reversed."""
    lists = list(s.lists)
    i = rng.randrange(len(lists))
    n, words = lists[i].n, list(lists[i].words)
    if rng.random() < 0.5:
        n += 1
    else:
        j = rng.randrange(len(words))
        words[j] = tuple(Letter(x.edge, -x.exp) for x in reversed(words[j]))
    lists[i] = WordList(n, tuple(words))
    return slw_graph(s.vertices, s.edges, lists)


SMALL = [
    "example/tetra-boundary", "example/two-triangles", "example/twisted-quads", "example/three-components",
    "rcc/cylinder", "rcc/mobius", "rcc/sphere", "slw/klein", "slw/torus", "slw/sphere",
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL), st.one_of(st.none(), st.sampled_from(SMALL)), st.randoms(use_true_random=False),
       st.booleans(), st.booleans(), st.booleans())
def test_drawn_pairs_give_the_reference_witness(name, other, rng, relabel_vertices, regroup, spoil):
    """s1 against a copy of itself, its vertices relabelled, or its words regrouped, maybe spoiled; or another SLW."""
    entry = catalog_get(name)
    s1 = s2 = EVERY[name]
    if other is not None:
        s2 = EVERY[other]
    elif relabel_vertices and entry.kind != "slw":
        verts = sorted(entry.payload.vertex_set())
        s2 = slw_from_complex(relabel(entry.payload, dict(zip(verts, rng.sample(verts, len(verts))))))
    elif regroup and s1.lists:
        s1 = s2 = regrouped(s1, rng)
    if spoil and s2.lists:
        s2 = spoiled(s2, rng)
    s1, s2 = shuffled(s1, rng), shuffled(s2, rng)
    assert outcome(slw_equivalent, s1, s2) == outcome(ref_slw_equivalent, s1, s2)
