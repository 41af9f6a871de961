"""Chord enumeration against two closed-form counts.

The oracles below share no code with surfclass.

- Burnside: the number of chord diagrams with n chords up to rotation
  and reflection is the average, over the 4n symmetries of the 2n-gon,
  of the matchings each symmetry fixes; that count follows from the
  symmetry's cycle type alone.
- Harer and Zagier (1986): the number eps_g(n) of labelled matchings of
  2n points on a circle whose one-vertex map has genus g satisfies
  (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2).
  Summing the dihedral orbit sizes of the enumerated classes of genus g
  must give it back.
- The least image: a chord code's canonical form is the least
  first-occurrence relabelling of its rotations and reflections, taken
  here as a plain min over all of them.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfclass import chord_canonical, enumerate_chords


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _fixed_matchings(cycle_lengths: Counter) -> int:
    """Perfect matchings of the points that a permutation maps to themselves.

    A chord either joins a point of an even cycle to its antipode in that
    cycle (one way per cycle), or joins two cycles of one length L
    (L ways per pair of cycles).
    """
    total = 1
    for length, count in cycle_lengths.items():
        ways = 0
        for pairs in range(count // 2 + 1):
            single = count - 2 * pairs
            if single and length % 2:
                continue
            ways += comb(count, 2 * pairs) * _double_factorial(2 * pairs - 1) * length**pairs
        total *= ways
    return total


def burnside_classes(n: int) -> int:
    """Chord diagrams with n chords up to the dihedral group of the 2n-gon."""
    if n == 0:
        return 1
    size = 2 * n
    fixed = 0
    for k in range(size):
        d = gcd(k, size)
        fixed += _fixed_matchings(Counter({size // d: d}))  # rotation by k
        if k % 2:
            fixed += _fixed_matchings(Counter({2: n}))  # reflection through edge midpoints
        else:
            fixed += _fixed_matchings(Counter({1: 2, 2: n - 1}))  # through two points
    if fixed % (2 * size):
        raise ValueError(f"Burnside sum {fixed} is not divisible by {2 * size}")
    return fixed // (2 * size)


@cache
def harer_zagier(g: int, n: int) -> int:
    """Labelled matchings of 2n points whose one-vertex map has genus g."""
    if g < 0 or n < 0 or 2 * g > n:
        return 0
    if n == 0:
        return 1
    num = 2 * (2 * n - 1) * harer_zagier(g, n - 1)
    num += (n - 1) * (2 * n - 1) * (2 * n - 3) * harer_zagier(g - 1, n - 2)
    if num % (n + 1):
        raise ValueError(f"Harer-Zagier numerator {num} is not divisible by {n + 1}")
    return num // (n + 1)


def _first_occurrence(seq) -> tuple[int, ...]:
    names: dict = {}
    return tuple(names.setdefault(label, len(names) + 1) for label in seq)


def orbit_size(code) -> int:
    """Distinct first-occurrence codes among all rotations and reflections."""
    images = {_first_occurrence(code)}  # the identity, also for the empty code
    for seq in (tuple(code), tuple(code)[::-1]):
        for r in range(len(seq)):
            images.add(_first_occurrence(seq[r:] + seq[:r]))
    return len(images)


def reference_canonical(code) -> tuple[str, ...]:
    """The least first-occurrence code among all rotations and reflections."""
    if not code:
        return ()
    best = min(
        _first_occurrence(seq[r:] + seq[:r])
        for seq in (tuple(code), tuple(code)[::-1])
        for r in range(len(code))
    )
    return tuple(str(i) for i in best)


def test_oracles_reproduce_known_values():
    assert [burnside_classes(n) for n in range(9)] == [1, 1, 2, 5, 17, 79, 554, 5283, 65346]
    assert [harer_zagier(g, 6) for g in range(4)] == [132, 2310, 6468, 1485]
    for n in range(9):
        assert harer_zagier(0, n) == comb(2 * n, n) // (n + 1)  # Catalan numbers
        assert sum(harer_zagier(g, n) for g in range(n + 1)) == _double_factorial(2 * n - 1)


@pytest.mark.parametrize("n", range(8))
def test_class_count_matches_burnside(n):
    assert len(enumerate_chords(n)) == burnside_classes(n)


@pytest.mark.parametrize("n", range(7))
def test_orbit_sizes_per_genus_match_harer_zagier(n):
    for g in range(-1, n // 2 + 2):
        classes = enumerate_chords(n, genus_filter=g)
        assert sum(orbit_size(c) for c in classes) == harer_zagier(g, n), g


_PAIRINGS = st.integers(0, 6).flatmap(
    lambda n: st.permutations([str(i // 2) for i in range(2 * n)])
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from("abcdefghijkl"), max_size=12), _PAIRINGS))
@example([])
@example(["a", "b", "c"])
@example(list("abcdefghijkl"))
def test_chord_canonical_matches_reference_on_drawn_sequences(seq):
    # any label sequence is accepted, not only pairings
    assert chord_canonical(tuple(seq)) == reference_canonical(seq)


@pytest.mark.parametrize("n", range(7))
def test_chord_canonical_of_every_image_of_every_class(n):
    for code in enumerate_chords(n):
        assert reference_canonical(code) == code
        for seq in (code, code[::-1]):
            for r in range(len(seq)):
                assert chord_canonical(seq[r:] + seq[:r]) == code
