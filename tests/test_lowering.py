import math
import random
import time
from itertools import product

import numpy as np
import pytest

from cycseq import (
    DomainError,
    FrequencyVector,
    ResourceCapError,
    canonicalize,
    count_sequences_with_frequency,
    enumerate_sequences_with_frequency,
    lower,
    lowering_incidence_action,
    project,
    raise_level,
    raising_matrix_action,
    solve_step1,
    subgraph_from_frequency,
    wavelet_basis,
)
from cycseq.freqspace import index_word
from cycseq.lowering import STEP1_CAP

from conftest import all_necklaces


def brute_preimages(necklaces, y):
    """{project(s, p+1) : project(s, p) = y} by scanning the factor set."""
    out = set()
    for s in necklaces:
        if project(s, y.p) == y:
            out.add(project(s, y.p + 1))
    return out


def test_level0_gives_compositions():
    y = FrequencyVector(0, 4, 2, {0: 4})
    got = [z.dense() for z in solve_step1(y)]
    assert got == [[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]]
    assert [z.dense() for z in lower(y)] == got
    # built from their nonzero parts, in the order of their dense lists
    for n in range(1, 6):
        for l in range(2, 6):
            want = [list(c) for c in product(range(n + 1), repeat=l) if sum(c) == n]
            assert [z.dense() for z in solve_step1(FrequencyVector(0, n, l, {0: n}))] == want


def test_level0_lowers_any_alphabet():
    # the compositions are stepped in place from their nonzero parts, so
    # many letters nest no calls and cost no time: n = 1 over 1,200 letters,
    # or over the STEP1_CAP letters the cap admits, lowers at once to its
    # one-letter vectors
    for l in (1200, STEP1_CAP):
        start = time.perf_counter()
        zs = lower(FrequencyVector(0, 1, l, {0: 1}))
        assert time.perf_counter() - start < 1.0
        assert [list(z.items()) for z in zs] == [[(j, 1)] for j in range(l - 1, -1, -1)]


def test_blocks_are_solved_on_the_letters_that_occur():
    # letters 0 and L - 1 once each over L = 10^4 letters: one 2 x 2 block,
    # two candidates, of which the 2-cycle through both letters survives
    L = 10**4
    y = FrequencyVector(1, 2, L, {0: 1, L - 1: 1})
    start = time.perf_counter()
    raw, zs = solve_step1(y), lower(y)
    assert time.perf_counter() - start < 1.0
    cycle = FrequencyVector(2, 2, L, {L - 1: 1, (L - 1) * L: 1})
    loops = FrequencyVector(2, 2, L, {0: 1, L * L - 1: 1})
    assert raw == [cycle, loops]
    assert zs == [cycle]


def _relabel(y, letters, big):
    """y with letter a written as letters[a], over `big` letters."""
    counts = {}
    for j, c in y.items():
        v = 0
        for a in index_word(j + 1, y.p, y.l):
            v = v * big + letters[a]
        counts[v] = c
    return FrequencyVector(y.p, y.n, big, counts)


def test_relabelled_into_a_wide_alphabet():
    # an increasing relabelling into 1,000 letters keeps the order of
    # windows, vectors and maximal rotations, so lowering and listing the
    # re-encoded vector give the re-encoded answers, in order
    rng = random.Random(1000)
    big = 1000
    for _ in range(150):
        l = rng.randint(2, 4)
        n = rng.randint(2, 8)
        p = rng.randint(1, min(n - 1, 3))
        s = canonicalize([rng.randrange(l) for _ in range(n)], l)
        letters = sorted(rng.sample(range(big), l))
        y = project(s, p)
        for f in (solve_step1, lower):
            assert f(_relabel(y, letters, big)) == [_relabel(z, letters, big) for z in f(y)]
        z = project(s, p + 1)
        assert enumerate_sequences_with_frequency(_relabel(z, letters, big)) == [
            canonicalize([letters[a] for a in m.symbols], big)
            for m in enumerate_sequences_with_frequency(z)
        ]


def test_example_fiber_n3():
    # Y = (2, 1) at p = 1 lowers to the single realizable Z = (1, 1, 1, 0)
    y = FrequencyVector(1, 3, 2, {0: 2, 1: 1})
    zs = lower(y)
    assert [z.dense() for z in zs] == [[1, 1, 1, 0]]
    assert count_sequences_with_frequency(zs[0]) == 1


def test_step1_includes_disconnected_candidates():
    # uniform Y at p = 1, n = 4: step I admits the two-self-loop candidate
    y = FrequencyVector(1, 4, 2, {0: 2, 1: 2})
    raw = {tuple(z.dense()) for z in solve_step1(y)}
    filtered = {tuple(z.dense()) for z in lower(y)}
    assert (2, 0, 0, 2) in raw
    assert (2, 0, 0, 2) not in filtered
    assert filtered < raw


def test_step1_solutions_raise_back():
    for n in (4, 5, 6):
        for dense in ([n - 2, 2], [n - 3, 3]):
            y = FrequencyVector.from_dense(1, n, 2, dense)
            for z in solve_step1(y):
                assert raise_level(z) == y


def test_lower_equals_brute_force_preimages():
    for n in range(2, 9):
        necklaces = all_necklaces(n, 2)
        for p in range(0, n):
            realized = {project(s, p) for s in necklaces}
            for y in sorted(realized, key=lambda v: v.sort_key()):
                assert set(lower(y)) == brute_preimages(necklaces, y), (n, p)


def test_lower_equals_brute_force_ternary():
    for n in (3, 4, 5):
        necklaces = all_necklaces(n, 3)
        for p in range(0, n):
            realized = {project(s, p) for s in necklaces}
            for y in realized:
                assert set(lower(y)) == brute_preimages(necklaces, y)


def test_lower_is_connected_step1_in_order():
    # the union-find filter against Multigraph connectivity, order included
    cases = [(n, 2) for n in range(2, 11)] + [(n, 3) for n in range(2, 7)]
    for n, l in cases:
        necklaces = all_necklaces(n, l)
        for y in {project(s, p) for s in necklaces for p in range(n)}:
            expected = [
                z for z in solve_step1(y) if subgraph_from_frequency(z).is_connected()
            ]
            assert lower(y) == expected, (n, l, y)


def test_lower_answers_past_the_best_cap():
    # lower never counts, so a node whose children the counting primitive
    # refuses (about 1,500 branching vertices, past
    # debruijn.BEST_MAX_BRANCHING) still lowers, and quickly
    rng = random.Random(3)
    t = [rng.randrange(2) for _ in range(1500)]
    y = project(canonicalize(t + t, 2), 20)
    start = time.perf_counter()
    zs = lower(y)
    assert time.perf_counter() - start < 1.0
    assert len(zs) == 2
    assert zs == [z for z in solve_step1(y) if subgraph_from_frequency(z).is_connected()]
    with pytest.raises(ResourceCapError):
        count_sequences_with_frequency(zs[0])


def test_children_of_a_forced_disconnected_node():
    # 00 and 11 twice each: both blocks have one solution, the two self-loops
    # 000 and 111, which leave A[Z] in two pieces
    y = FrequencyVector(2, 4, 2, {0: 2, 3: 2})
    assert [z.dense() for z in solve_step1(y)] == [[2, 0, 0, 0, 0, 0, 0, 2]]
    assert lower(y) == []


def test_step1_work_cap():
    y = FrequencyVector.from_dense(1, 300, 3, [100, 100, 100])
    for f in (solve_step1, lower):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            f(y)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ResourceCapError):
        lower(FrequencyVector(0, 10**6, 3, {0: 10**6}))
    # a level-0 vector is refused by the compositions built, not by the
    # binomial count of them, which took 9.9 s at n = 3 * 10^5, l = 10^8
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        lower(FrequencyVector(0, 3 * 10**5, 10**8, {0: 3 * 10**5}))
    assert time.perf_counter() - start < 1.0
    # just under the cap: 11,781 candidates
    y = FrequencyVector.from_dense(1, 48, 3, [16, 16, 16])
    assert len(solve_step1(y)) == 11781 <= STEP1_CAP


def test_huge_levels_hit_the_index_cap_quickly():
    # l^p is never built past MAX_INDEX_BITS: p = 10^8 used to run for
    # seconds, and p = 70000 to overflow while sorting dense keys
    for p, n, l in ((10**8, 2, 3), (70000, 70000, 2)):
        y = FrequencyVector(p, n, l, {0: n})
        for f in (
            solve_step1,
            lower,
            count_sequences_with_frequency,
            enumerate_sequences_with_frequency,
            subgraph_from_frequency,
        ):
            start = time.perf_counter()
            with pytest.raises(ResourceCapError):
                f(y)
            assert time.perf_counter() - start < 0.5


def test_levels_past_n_are_refused():
    # project refuses p > n, so lowering a level-n vector, or counting and
    # listing a level past n, is a DomainError rather than an answer
    n = 5
    y = project(canonicalize([1, 1, 0, 1, 0], 2), n)
    for f in (solve_step1, lower):
        with pytest.raises(DomainError):
            f(y)
    assert count_sequences_with_frequency(y) == 1
    assert enumerate_sequences_with_frequency(y) == [canonicalize([1, 1, 0, 1, 0], 2)]
    z = FrequencyVector(n + 1, n, 2, {0: n})
    for f in (count_sequences_with_frequency, subgraph_from_frequency, enumerate_sequences_with_frequency):
        with pytest.raises(DomainError):
            f(z)
    assert [v.p for v in lower(project(canonicalize([1, 1, 0, 1, 0], 2), n - 1))] == [n]


def test_level1_branch_count():
    # a two-letter composition [n-z, z] has exactly z realizable refinements
    for n in range(4, 13):
        for z in range(2, n // 2 + 1):
            y = FrequencyVector.from_dense(1, n, 2, [n - z, z])
            assert len(lower(y)) == z, (n, z)


def test_lower_sorted_deterministically():
    y = FrequencyVector(1, 6, 2, {0: 3, 1: 3})
    keys = [z.sort_key() for z in lower(y)]
    assert keys == sorted(keys)


def test_count_members_conservation():
    # member counts of the refinements partition the parent cluster
    n = 9
    necklaces = all_necklaces(n, 2)
    for p in (1, 2, 3):
        realized = {project(s, p) for s in necklaces}
        for y in realized:
            parent = sum(1 for s in necklaces if project(s, p) == y)
            assert sum(count_sequences_with_frequency(z) for z in lower(y)) == parent


def test_wavelet_orthonormality():
    for l in (2, 3, 4):
        for p in (1, 2, 3, 4):
            basis = wavelet_basis(l, p)
            gram = basis.matrix.conj().T @ basis.matrix
            assert np.max(np.abs(gram - np.eye(l**p))) < 1e-9


def test_wavelet_raising_action():
    # raising annihilates the top-gamma family and rescales the rest by sqrt(l)
    for l in (2, 3, 4):
        for p in (2, 3, 4):
            hi = wavelet_basis(l, p)
            lo = wavelet_basis(l, p - 1)
            for label in hi.labels:
                gamma, j, alphas = label
                image = raising_matrix_action(hi.vector(label), l)
                if gamma == p - 1:
                    assert np.max(np.abs(image)) < 1e-9
                else:
                    expected = math.sqrt(l) * lo.vector(label)
                    assert np.max(np.abs(image - expected)) < 1e-9


def test_raising_action_matches_raise_level():
    s = canonicalize([1, 1, 0, 1, 0], 2)
    x = project(s, 3)
    dense = np.array(x.dense())
    assert list(raising_matrix_action(dense, 2)) == project(s, 2).dense()


def test_incidence_action_equals_raising_on_projections():
    # both block sums reproduce the level-p vector from the level-(p+1) one
    for word in ([1, 1, 0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 0, 0]):
        s = canonicalize(word, 2)
        for p in (1, 2):
            dense = np.array(project(s, p + 1).dense())
            assert list(raising_matrix_action(dense, 2)) == project(s, p).dense()
            assert list(lowering_incidence_action(dense, 2)) == project(s, p).dense()


def test_wavelet_domain_errors():
    with pytest.raises(DomainError):
        wavelet_basis(1, 2)
    with pytest.raises(DomainError):
        wavelet_basis(2, 0)
