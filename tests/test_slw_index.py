"""The SLW occurrence index changes no answer and no witness.

`SLWGraph.index` reads every word once, and `slw_equivalent` takes its
list signatures and letter profiles from it.  The references below are
copies of the replaced per-letter rescan (`_letter_profile`, run once
per letter in the sort key and again at every search node) and of the
search that used it; every witness bijection, or None, must agree
exactly.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import product

import pytest

from surfclass import (
    Letter,
    SizeMismatch,
    WordList,
    catalog_get,
    catalog_list,
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
