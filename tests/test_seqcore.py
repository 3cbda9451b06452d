import math
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cycseq import (
    CyclicSequence,
    DomainError,
    ResourceCapError,
    canonicalize,
    divisors,
    enumerate_necklaces,
    euler_totient,
    level1_cluster_size,
    minimal_period,
    necklace_count,
    sequence_from_string,
    sequence_to_string,
    shift,
)

from conftest import all_necklaces, naive_canonical

words = st.lists(st.integers(0, 2), min_size=1, max_size=12)


def test_totient_small():
    assert [euler_totient(d) for d in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_totient_multiplicative_identity():
    # sum of phi(d) over d | n equals n
    for n in range(1, 200):
        assert sum(euler_totient(d) for d in divisors(n)) == n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]
    assert divisors(1) == [1]


@given(words)
def test_canonicalize_matches_naive(word):
    s = canonicalize(word, 3)
    assert s.symbols == naive_canonical(word)


@given(words, st.integers(0, 11))
def test_canonicalize_rotation_invariant(word, k):
    k %= len(word)
    rotated = word[k:] + word[:k]
    assert canonicalize(word, 3) == canonicalize(rotated, 3)


def test_canonical_form_is_validated():
    with pytest.raises(DomainError):
        CyclicSequence((0, 0, 1), 2)
    # the maximal rotation is accepted
    assert CyclicSequence((1, 0, 0), 2).index() == 5


def test_index_examples():
    assert CyclicSequence((0,), 2).index() == 1
    assert CyclicSequence((1, 0, 0), 2).index() == 5
    assert CyclicSequence((1, 1, 1), 2).index() == 8


def test_shift_is_raw_rotation():
    s = CyclicSequence((1, 1, 0), 2)
    assert shift(s, 1) == [1, 0, 1]
    assert shift(s, 3) == [1, 1, 0]


def test_minimal_period():
    assert minimal_period(canonicalize([0, 1, 0, 1], 2)) == 2
    assert minimal_period(canonicalize([0, 1, 1, 1], 2)) == 4
    assert minimal_period(canonicalize([1, 1, 1], 2)) == 1


def test_necklace_count_known_values():
    assert necklace_count(3, 2) == 4
    assert necklace_count(7, 2) == 20
    assert necklace_count(11, 2) == 188
    assert necklace_count(4, 3) == 24
    assert necklace_count(1, 5) == 5


def test_necklace_count_matches_enumeration():
    for l in (2, 3):
        for n in range(1, 8 if l == 2 else 6):
            assert necklace_count(n, l) == len(all_necklaces(n, l))


@pytest.mark.parametrize(
    "l, n",
    [(2, n) for n in range(1, 13)]
    + [(3, n) for n in range(1, 8)]
    + [(4, n) for n in range(1, 6)]
    + [(5, n) for n in range(1, 5)],
)
def test_enumerate_necklaces_sorted_and_complete(l, n):
    # the generator's order, not just its set: descending by index
    got = enumerate_necklaces(n, l)
    assert got == sorted(all_necklaces(n, l), key=CyclicSequence.index, reverse=True)
    assert len(got) == necklace_count(n, l)


def test_enumerate_necklaces_ternary():
    got = enumerate_necklaces(4, 3)
    assert len(got) == 24
    assert set(got) == set(all_necklaces(4, 3))


def test_enumerate_cap():
    with pytest.raises(ResourceCapError):
        enumerate_necklaces(30, 2)
    with pytest.raises(ResourceCapError):
        enumerate_necklaces(20, 3, cap_bits=24)


def test_level1_cluster_sizes():
    assert level1_cluster_size([9, 2]) == 5
    assert level1_cluster_size([8, 3]) == 15
    assert level1_cluster_size([7, 4]) == 30
    assert level1_cluster_size([6, 5]) == 42
    # composite n with a common divisor in the composition
    assert level1_cluster_size([2, 2]) == 2
    assert level1_cluster_size([4, 0]) == 1


def test_level1_cluster_sizes_match_enumeration():
    for n in range(1, 9):
        necklaces = all_necklaces(n, 2)
        for z in range(n + 1):
            expected = sum(1 for s in necklaces if sum(s.symbols) == z)
            assert level1_cluster_size([n - z, z]) == expected


def test_level1_partitions_necklace_count():
    for n in range(1, 13):
        total = sum(level1_cluster_size([n - z, z]) for z in range(n + 1))
        assert total == necklace_count(n, 2)


def test_string_round_trip():
    s = canonicalize([0, 1, 1, 0, 1], 2)
    assert sequence_from_string(sequence_to_string(s), 2) == s
    assert sequence_to_string(s) == "11010"
    big = canonicalize([11, 0, 3], 12)
    assert "," in sequence_to_string(big)
    assert sequence_from_string(sequence_to_string(big), 12) == big


def test_string_rejects_garbage():
    with pytest.raises(DomainError):
        sequence_from_string("", 2)
    with pytest.raises(DomainError):
        sequence_from_string("102", 2)
    with pytest.raises(DomainError):
        sequence_from_string("abc", 2)


def test_necklace_count_is_fast():
    t0 = time.perf_counter()
    for _ in range(100):
        necklace_count(11, 2)
    assert (time.perf_counter() - t0) / 100 < 1e-3
