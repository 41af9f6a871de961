"""Word and list matching: class keys against the scans and backtracking they replaced.

Under a fixed letter map, word equivalence (rotation, reversal, or either)
and list equivalence relate whole classes to whole classes, so comparing
each list's class key decides the same as trying every partner. The
references below are the any-rotation word scan and the backtracking
matcher verbatim; Hypothesis draws words, word lists and list sequences
with repeated items and rotated, reversed or replaced words, and the
keys must agree with them. The work bounds count key computations, not
seconds: backtracking over repeated lists takes factorially many calls
to reject two books of disks that differ only in their last list.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from surfclass import (
    Letter,
    WordList,
    extends_to_homeomorphism,
    list_equivalent,
    slw_equivalent,
    slw_graph,
    word_equivalent,
    word_reverse,
)
from surfclass import slw
from surfclass.slw import _least_rotation, _list_class, _lists_match, word_substitute

# =====================================================================
# Reference: the any-rotation scan and the backtracking matchers
# =====================================================================


def ref_word_equivalent(w1, w2):
    if len(w1) != len(w2):
        return False
    return any(w1[k:] + w1[:k] == w2 for k in range(len(w1)))


def ref_match_words(left, right, ok):
    if not left:
        return True
    first, rest = left[0], left[1:]
    for j, cand in enumerate(right):
        if ok(first, cand) and ref_match_words(rest, right[:j] + right[j + 1 :], ok):
            return True
    return False


def ref_list_equivalent(l1, l2, letter_map):
    if l1.n != l2.n or len(l1.words) != len(l2.words):
        return False
    subbed = tuple(word_substitute(w, letter_map) for w in l1.words)

    def eq(a, b):
        return word_equivalent(a, b)

    def rev(a, b):
        return word_equivalent(word_reverse(a), b)

    if l1.n >= 0:
        return ref_match_words(subbed, l2.words, eq) or ref_match_words(subbed, l2.words, rev)
    return ref_match_words(subbed, l2.words, lambda a, b: eq(a, b) or rev(a, b))


def ref_match_lists(left, right, letter_map):
    if not left:
        return True
    first, rest = left[0], left[1:]
    for j, cand in enumerate(right):
        if ref_list_equivalent(first, cand, letter_map) and ref_match_lists(
            rest, right[:j] + right[j + 1 :], letter_map
        ):
            return True
    return False


# =====================================================================
# Drawn words, lists and list sequences
# =====================================================================

LETTERS = "abc"
letters = st.builds(Letter, st.sampled_from(LETTERS), st.sampled_from((1, -1)))
words = st.lists(letters, min_size=1, max_size=4).map(tuple)
letter_maps = st.permutations(LETTERS).map(lambda image: dict(zip(LETTERS, image)))
genus_numbers = st.sampled_from((-1, 0, 1))


@st.composite
def word_variant(draw, w):
    """w itself, a rotation, the reverse of a rotation, or another word."""
    kind = draw(st.sampled_from(("same", "rotate", "reverse", "replace")))
    k = draw(st.integers(0, len(w) - 1))
    if kind == "replace":
        return draw(words)
    rotated = w[k:] + w[:k]
    return word_reverse(rotated) if kind == "reverse" else rotated


@st.composite
def word_lists(draw):
    """A list of at most 6 words drawn from a pool of at most 3, so words repeat."""
    pool = draw(st.lists(words, min_size=1, max_size=3))
    return WordList(draw(genus_numbers), tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))))


@st.composite
def list_variant(draw, wl, letter_map):
    """A list that the letter map may make equivalent to wl: its words varied one by one."""
    subbed = [word_substitute(w, letter_map) for w in wl.words]
    if draw(st.booleans()):  # one mode for the whole list, the way an equivalent list reads
        flip = draw(st.booleans())
        varied = [word_reverse(w) if flip else w for w in subbed]
        varied = [draw(st.sampled_from([w[k:] + w[:k] for k in range(len(w))])) for w in varied]
    else:
        varied = [draw(word_variant(w)) for w in subbed]
    n = draw(st.sampled_from((wl.n, wl.n, draw(genus_numbers))))
    return WordList(n, tuple(draw(st.permutations(varied))))


@st.composite
def list_pairs(draw):
    letter_map = draw(letter_maps)
    wl = draw(word_lists())
    return wl, draw(list_variant(wl, letter_map)), letter_map


@st.composite
def list_sequences(draw):
    """Two sequences of at most 6 lists each, repeats included, and a letter map."""
    letter_map = draw(letter_maps)
    pool = draw(st.lists(word_lists(), min_size=1, max_size=3))
    left = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    right = [draw(st.one_of(st.just(wl), list_variant(wl, letter_map), word_lists())) for wl in left]
    return tuple(left), tuple(draw(st.permutations(right))), letter_map


@st.composite
def word_pairs(draw):
    w = draw(words)
    return w, draw(word_variant(w))


@settings(max_examples=400, deadline=None)
@given(word_pairs())
def test_word_equivalent_matches_the_rotation_scan(pair):
    w1, w2 = pair
    assert word_equivalent(w1, w2) == ref_word_equivalent(w1, w2)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from((Letter("a", 1), Letter("a", -1), Letter("b", 1))), min_size=1, max_size=12))
def test_least_rotation_is_the_least_of_all_rotations(w):
    w = tuple(w)
    assert _least_rotation(w) == min(w[k:] + w[:k] for k in range(len(w)))


@settings(max_examples=400, deadline=None)
@given(list_pairs())
def test_list_equivalent_matches_backtracking(pair):
    l1, l2, letter_map = pair
    assert list_equivalent(l1, l2, letter_map) == ref_list_equivalent(l1, l2, letter_map)


@settings(max_examples=200, deadline=None)
@given(list_sequences())
def test_list_matching_matches_backtracking(seqs):
    left, right, letter_map = seqs
    assert _lists_match(left, Counter(map(_list_class, right)), letter_map) == ref_match_lists(left, right, letter_map)


def test_drawn_inputs_hold_both_verdicts():
    # the comparisons above mean little unless both answers are common;
    # a fixed draw keeps the tally, and so this test, the same on every run
    verdicts = {"words": Counter(), "pairs": Counter(), "sequences": Counter()}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(word_pairs())
    def word_pair_verdicts(pair):
        verdicts["words"][ref_word_equivalent(*pair)] += 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(list_pairs())
    def pairs(pair):
        verdicts["pairs"][ref_list_equivalent(*pair)] += 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(list_sequences())
    def sequences(seqs):
        verdicts["sequences"][ref_match_lists(*seqs)] += 1

    word_pair_verdicts()
    pairs()
    sequences()
    assert all(min(v[True], v[False]) >= 15 for v in verdicts.values()), verdicts


# =====================================================================
# Work bounds
# =====================================================================

CAP = 121


@pytest.fixture
def capped(monkeypatch):
    """Let slw.<name> run at most limit times; the next call fails the test."""

    def cap(name, limit=CAP):
        real = getattr(slw, name)
        calls = itertools.count(1)

        def counted(*args):
            if next(calls) > limit:
                pytest.fail(f"more than {limit} calls to {name}")
            return real(*args)

        monkeypatch.setattr(slw, name, counted)

    return cap


AB = (Letter("a", 1), Letter("b", 1))
AB_INV = (Letter("a", 1), Letter("b", -1))


def book(last, disks=10):
    """Disks glued along the loops a and b at P, each bounded by a b, the last by `last`."""
    lists = [WordList(0, (AB,))] * (disks - 1) + [WordList(0, (last,))]
    return slw_graph(["P"], [("a", "P", "P"), ("b", "P", "P")], lists)


def test_books_differing_in_their_last_list_are_rejected_within_the_cap(capped):
    capped("_list_class")
    same, other = book(AB), book(AB_INV)
    assert extends_to_homeomorphism(same, other, {"P": "P"}, {"a": "a", "b": "b"}) is False
    assert slw_equivalent(same, other) is None
    assert extends_to_homeomorphism(same, same, {"P": "P"}, {"a": "a", "b": "b"}) is True
    assert slw_equivalent(same, same) == {"a": "a", "b": "b"}


def test_lists_differing_in_their_last_word_are_rejected_within_the_cap(capped):
    # each comparison takes the least rotation of the 11 words of both lists, read and reversed
    capped("_least_rotation", 3 * 4 * 11)
    same, other = WordList(0, (AB,) * 11), WordList(0, (AB,) * 10 + (AB_INV,))
    identity = {"a": "a", "b": "b"}
    assert list_equivalent(same, other, identity) is False
    assert list_equivalent(WordList(-1, same.words), WordList(-1, other.words), identity) is False
    assert list_equivalent(same, same, identity) is True
