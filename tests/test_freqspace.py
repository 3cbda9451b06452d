import json
import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cycseq import (
    DomainError,
    FrequencyVector,
    ResourceCapError,
    canonicalize,
    gamma_max,
    index_word,
    p_close,
    project,
    raise_level,
    ultrametric_distance,
    word_index,
)

from conftest import all_necklaces, naive_project

binary_words = st.lists(st.integers(0, 1), min_size=1, max_size=14)
ternary_words = st.lists(st.integers(0, 2), min_size=1, max_size=9)


def test_word_index_round_trip():
    for l, p in ((2, 3), (3, 2), (4, 2)):
        for j in range(1, l**p + 1):
            assert word_index(index_word(j, p, l), l) == j


def test_index_word_refuses_a_huge_level_at_once():
    # l^p would have 10^5000 bits; the index-width cap is checked first
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        index_word(1, 10**5000, 2)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(DomainError):
        index_word(1, 3, 1)


def test_word_index_examples():
    assert word_index([0, 0], 2) == 1
    assert word_index([1, 1], 2) == 4
    assert word_index([1, 0, 0], 2) == 5


def test_entries_are_one_based_externally():
    s = canonicalize([0, 0, 1], 2)
    x = project(s, 2)
    # window 00 appears once, 01 once, 10 once, 11 never
    assert x.dense() == [1, 1, 1, 0]


def test_project_level_one_example():
    s = canonicalize([0, 0, 1], 2)
    assert project(s, 1).dense() == [2, 1]


def test_project_level_zero_and_bounds():
    s = canonicalize([0, 1, 1], 2)
    assert project(s, 0).dense() == [3]
    with pytest.raises(DomainError):
        project(s, 4)
    with pytest.raises(DomainError):
        project(s, -1)


@given(binary_words, st.integers(0, 6))
def test_project_matches_naive(word, p):
    p = min(p, len(word))
    s = canonicalize(word, 2)
    assert project(s, p) == naive_project(word, p, 2)


@given(ternary_words, st.integers(0, 4))
def test_project_shift_invariance(word, p):
    p = min(p, len(word))
    target = naive_project(word, p, 3)
    for k in range(len(word)):
        rotated = word[k:] + word[:k]
        assert naive_project(rotated, p, 3) == target
    assert project(canonicalize(word, 3), p) == target


@given(ternary_words, st.integers(0, 4))
def test_entries_sum_to_n(word, p):
    p = min(p, len(word))
    x = project(canonicalize(word, 3), p)
    assert sum(c for _, c in x.items()) == len(word)
    assert all(c > 0 for _, c in x.items())


@given(binary_words, st.integers(1, 6))
def test_raise_project_coherence(word, p):
    p = min(p, len(word))
    s = canonicalize(word, 2)
    assert raise_level(project(s, p)) == project(s, p - 1)


def test_raise_below_zero():
    x = FrequencyVector(0, 3, 2, {0: 3})
    with pytest.raises(DomainError):
        raise_level(x)


def test_projection_matrix_n3_binary():
    # Column j of the dense level-p projection matrix is the frequency
    # vector of the length-3 word with index j; frozen reference values.
    p1 = [[3, 2, 2, 1, 2, 1, 1, 0],
          [0, 1, 1, 2, 1, 2, 2, 3]]
    p2 = [[3, 1, 1, 0, 1, 0, 0, 0],
          [0, 1, 1, 1, 1, 1, 1, 0],
          [0, 1, 1, 1, 1, 1, 1, 0],
          [0, 0, 0, 1, 0, 1, 1, 3]]
    for col, word in enumerate(product((0, 1), repeat=3)):
        x1 = naive_project(list(word), 1, 2).dense()
        x2 = naive_project(list(word), 2, 2).dense()
        assert x1 == [p1[r][col] for r in range(2)]
        assert x2 == [p2[r][col] for r in range(4)]


def test_projection_matrix_n3_factor_space():
    # The same matrices restricted to canonical representatives.
    p1 = [[3, 2, 1, 0],
          [0, 1, 2, 3]]
    p2 = [[3, 1, 0, 0],
          [0, 1, 1, 0],
          [0, 1, 1, 0],
          [0, 0, 1, 3]]
    classes = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    for col, word in enumerate(classes):
        s = canonicalize(word, 2)
        assert project(s, 1).dense() == [p1[r][col] for r in range(2)]
        assert project(s, 2).dense() == [p2[r][col] for r in range(4)]


def test_p_close_and_gamma():
    a = canonicalize([1, 1, 1, 0, 1, 0, 0, 0], 2)
    b = canonicalize([1, 1, 1, 0, 0, 0, 1, 0], 2)
    # the two order-3 binary de Bruijn sequences agree up to 3-windows
    assert p_close(a, b, 3)
    assert not p_close(a, b, 4)
    assert gamma_max(a, b) == 3
    assert ultrametric_distance(a, b) == pytest.approx(math.exp(-3))


def test_gamma_rejects_equal_and_incompatible():
    a = canonicalize([1, 0], 2)
    with pytest.raises(DomainError):
        gamma_max(a, a)
    b = canonicalize([1, 0, 0], 2)
    with pytest.raises(DomainError):
        gamma_max(a, b)
    assert ultrametric_distance(a, a) == 0.0


def test_gamma_max_raises_arithmetic_error_when_no_level_agrees(monkeypatch):
    # level 0 always agrees; a projection that breaks that is reported as
    # the package's other exactness failures are, not by an assertion
    from cycseq import freqspace

    monkeypatch.setattr(freqspace, "project", lambda s, p: object())
    with pytest.raises(ArithmeticError):
        gamma_max(canonicalize([1, 0, 0], 2), canonicalize([1, 1, 0], 2))


def test_gamma_max_equals_the_downward_scan():
    # on every pair of distinct binary necklaces up to length 10, against
    # the first level from n - 1 down at which the window counts agree
    for n in range(2, 11):
        necklaces = all_necklaces(n, 2)
        levels = [[project(s, p) for p in range(n)] for s in necklaces]
        for i, a in enumerate(necklaces):
            for j in range(i + 1, len(necklaces)):
                scan = next(p for p in range(n - 1, -1, -1) if levels[i][p] == levels[j][p])
                assert gamma_max(a, necklaces[j]) == scan, (a, necklaces[j])


def test_gamma_max_of_a_long_transposition_is_quick():
    # 1^a 0 1^b 0 1^c 0 against 1^a 0 1^c 0 1^b 0 at n = 1,997 agree up to
    # level 1,329; a scan down from n - 1 projects both at 668 levels
    a, b, c = 661, 666, 667
    s = canonicalize([1] * a + [0] + [1] * b + [0] + [1] * c + [0], 2)
    t = canonicalize([1] * a + [0] + [1] * c + [0] + [1] * b + [0], 2)
    start = time.perf_counter()
    assert gamma_max(s, t) == 1329
    assert time.perf_counter() - start < 1.5
    assert project(s, 1329) == project(t, 1329) and project(s, 1330) != project(t, 1330)


def test_gamma_max_projects_no_level_far_above_gamma(monkeypatch):
    # two random binary words of length 20,000 differ at level 1 already:
    # no level above 2 gamma + 2 is projected, where a bisection from the
    # middle of 0..n-1 projected both words at levels near n / 2
    from cycseq import freqspace

    rng = random.Random(1)
    a, b = (canonicalize([rng.randrange(2) for _ in range(20_000)], 2) for _ in range(2))
    levels = []

    def counting_project(s, p):
        levels.append(p)
        return project(s, p)

    monkeypatch.setattr(freqspace, "project", counting_project)
    gamma = gamma_max(a, b)
    assert gamma == 0
    assert max(levels) <= 2 * gamma + 2


def test_strong_triangle_inequality_exhaustive_n6():
    necklaces = all_necklaces(6, 2)
    gammas = {}
    for i, a in enumerate(necklaces):
        for j, b in enumerate(necklaces):
            if i < j:
                gammas[i, j] = gamma_max(a, b)

    def g(i, j):
        return gammas[min(i, j), max(i, j)]

    m = len(necklaces)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                if k in (i, j):
                    continue
                # d(i,j) <= max(d(i,k), d(k,j)) in gamma form
                assert g(i, j) >= min(g(i, k), g(k, j))


def test_json_round_trip_dense():
    x = FrequencyVector(2, 5, 2, {0: 2, 3: 3})
    obj = json.loads(x.to_json())
    assert obj["dense"] == [2, 0, 0, 3]
    assert FrequencyVector.from_json(x.to_json()) == x


def test_json_sparse_above_limit():
    # 2^13 = 8192 entries exceeds the dense limit
    x = FrequencyVector(13, 4, 2, {0: 1, 8191: 3})
    obj = x.to_obj()
    assert "sparse" in obj and "dense" not in obj
    assert obj["sparse"] == {"1": 1, "8192": 3}
    assert FrequencyVector.from_obj(obj) == x


def test_vector_validation():
    with pytest.raises(DomainError):
        FrequencyVector(1, 3, 2, {0: 1, 1: 1})  # sums to 2, not 3
    with pytest.raises(DomainError):
        FrequencyVector(1, 3, 2, {2: 3})  # index out of range
    with pytest.raises(DomainError):
        FrequencyVector(1, 3, 2, {0: 4, 1: -1})


def test_index_range_and_serialization_are_exact():
    # the range check and the dense/sparse choice never build l^p, yet agree
    # with it on either side of every boundary
    for l in (2, 3, 5, 16, 64, 4096, 4097):
        for p in range(0, 14):
            size = l**p
            if size > 10**7:
                break
            assert FrequencyVector(p, 1, l, {size - 1: 1}).entry(size - 1) == 1
            with pytest.raises(DomainError):
                FrequencyVector(p, 1, l, {size: 1})
            with pytest.raises(DomainError):
                FrequencyVector(p, 1, l, {-1: 1})
            x = FrequencyVector(p, 1, l, {0: 1})
            obj = x.to_obj()
            assert ("dense" in obj) == (size <= 4096), (l, p)
            assert x.to_json() == json.dumps(obj)



@st.composite
def small_vectors(draw):
    """A vector at level 0 to 4 over 2 or 3 letters with random support."""
    l = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(0, 4))
    counts = draw(
        st.dictionaries(st.integers(0, l**p - 1), st.integers(1, 5), min_size=1, max_size=l**p)
    )
    return FrequencyVector(p, sum(counts.values()), l, counts)


@given(small_vectors())
def test_one_sorted_item_tuple_answers_every_read(x):
    # the vector keeps only its sorted items; entry, dense, to_obj and to_json
    # read them
    items = x.items()
    assert list(items) == sorted(items) and all(c > 0 for _, c in items)
    counts = dict(items)
    dense = [counts.get(j, 0) for j in range(x.l**x.p)]
    assert [x.entry(j) for j in range(len(dense))] == dense
    assert x.dense() == dense
    assert x.to_obj() == {"p": x.p, "n": x.n, "l": x.l, "dense": dense}
    assert FrequencyVector.from_obj(x.to_obj()) == x
    # to_json writes the zeros by runs, byte for byte as json.dumps does
    assert x.to_json() == json.dumps(x.to_obj())
