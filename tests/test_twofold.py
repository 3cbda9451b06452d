import math
import time
from itertools import combinations, product

import pytest

from cycseq import (
    BlockChoice,
    DomainError,
    FrequencyVector,
    ResourceCapError,
    configuration_minor,
    count_eulerian_cycles,
    count_multi_debruijn,
    count_sequences_with_frequency,
    count_twofold,
    count_twofold_bruteforce,
    count_twofold_exact,
    enumerate_sequences_with_frequency,
    expand_configuration,
    list_twofold_bruteforce,
    minor_adjacency,
    minor_cofactor,
    minor_cofactor_closed_form,
    permutation_count,
    phi,
    project,
    solve_step1,
    subgraph_from_frequency,
    twofold_table,
)
from cycseq.twofold import MINOR_MAX_K, _block_edges, _phi_row

U, UP, LO = BlockChoice.UNIFORM, BlockChoice.UPPER, BlockChoice.LOWER

# per-k rows frozen from the published tables (k = number of uniform blocks)
TABLE_P3 = {
    "perm_no": [16, 32, 24, 8, 1],
    "phi": [2, 8, 11, 6, 1],
    "cofactor": [1, 1, 2, 4, 16],
}
TABLE_P4 = {
    "perm_no": [256, 1024, 1792, 1792, 1120, 448, 112, 16, 1],
    "phi": [16, 128, 380, 584, 519, 274, 84, 14, 1],
    "cofactor": [1, 1, 2, 4, 16, 48, 128, 448, 2048],
}
# The p = 5 Phi row, as the per-k depth-first walk computed it (74 s).
PHI_P5 = [
    2048, 32768, 207056, 728032, 1643156, 2571724, 2926028, 2495192, 1626420,
    819236, 319699, 96044, 21838, 3640, 420, 30, 1,
]


def test_expand_configuration_blocks():
    x = expand_configuration((U, LO), 2)
    assert x.dense() == [1, 1, 0, 2, 1, 1, 2, 0]
    assert x.n == 8 and x.p == 3
    y = expand_configuration((U, U), 2)
    assert y.dense() == [1] * 8


def test_expand_configuration_doubled_blocks():
    x = expand_configuration((UP, LO), 2)
    assert x.dense() == [2, 0, 0, 2, 0, 2, 2, 0]
    with pytest.raises(DomainError):
        expand_configuration((U,), 2)  # wrong block count


def test_block_choices_cover_all_solutions():
    # within one block the margins force exactly the three patterns
    y = FrequencyVector(1, 4, 2, {0: 2, 1: 2})
    dense = {tuple(z.dense()) for z in solve_step1(y)}
    assert dense == {(1, 1, 1, 1), (2, 0, 0, 2), (0, 2, 2, 0)}


def test_permutation_count():
    for p in (3, 4):
        blocks = 2 ** (p - 1)
        table = TABLE_P3 if p == 3 else TABLE_P4
        for k in range(blocks + 1):
            assert permutation_count(p, k) == table["perm_no"][k]
        assert sum(permutation_count(p, k) for k in range(blocks + 1)) == 3**blocks


def test_phi_tables():
    for p, table in ((3, TABLE_P3), (4, TABLE_P4)):
        got = [phi(p, k) for k in range(2 ** (p - 1) + 1)]
        assert got == table["phi"]


def test_phi_pruning_is_lossless():
    # phi never tries UPPER in the first or last block; the scan that tries
    # every configuration finds the same counts
    for p in (1, 2, 3, 4):
        for k in range(2 ** (p - 1) + 1):
            assert phi(p, k) == _phi_scan(p, k, False), (p, k)


def test_phi_closed_forms():
    # Phi(2) = 2^p - 2, Phi(4) = 2(2^(p-1)-1)(2^(p-1)-2) - [p == 3],
    # Phi(2^p - 2) = 2^(2^(p-1)-1); arguments are doubled-edge counts 2m,
    # i.e. k = 2^(p-1) - m uniform blocks
    for p in (3, 4, 5):
        blocks = 2 ** (p - 1)
        assert phi(p, blocks - 1) == 2**p - 2
        assert phi(p, blocks - 2) == 2 * (blocks - 1) * (blocks - 2) - (1 if p == 3 else 0)
        assert phi(p, 1) == 2 ** (blocks - 1)


def _phi_scan(p, k, prune):
    """Phi by scanning every configuration with k uniform blocks and
    testing the connectivity of its expanded subgraph."""
    blocks = 2 ** (p - 1)
    total = 0
    for uniform_at in combinations(range(blocks), k):
        rest = [m for m in range(blocks) if m not in uniform_at]
        for assignment in product((UP, LO), repeat=len(rest)):
            config = [U] * blocks
            for m, choice in zip(rest, assignment):
                config[m] = choice
            if prune and UP in (config[0], config[-1]):
                continue  # weight 2 on the first or last window: disconnected
            if subgraph_from_frequency(expand_configuration(tuple(config), p)).is_connected():
                total += 1
    return total


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_phi_matches_configuration_scan(p):
    for k in range(2 ** (p - 1) + 1):
        assert phi(p, k) == _phi_scan(p, k, True), (p, k)


def test_phi_row_at_p5():
    assert [phi(5, k) for k in range(17)] == PHI_P5
    # The scan takes about 1.4 s at k = 0. At k = 1 and 2 it takes 11 s and
    # 54 s, too long for every run: k = 1 has its closed form, and both
    # matched the pinned row when the frontier DP replaced the walk.
    for k in (0, 15, 16):
        assert PHI_P5[k] == _phi_scan(5, k, True), k


def test_phi_row_is_one_cached_pass():
    _phi_row.cache_clear()
    rows = [phi(4, k) for k in range(9)]
    info = _phi_row.cache_info()
    assert (info.misses, info.hits) == (1, 8)
    assert tuple(rows) == _phi_row(4)


def test_phi_refuses_p6_quickly():
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        phi(6, 0)
    with pytest.raises(ResourceCapError):
        twofold_table(6)
    assert time.perf_counter() - start < 1.0


def test_phi_refuses_huge_p_before_building_anything():
    # 2^29 blocks: neither a Phi table nor the first PermNo is ever built;
    # at p = 10^9 not even the block count 2^(p-1) is
    for p in (30, 10**9):
        for f in (phi, twofold_table, count_twofold):
            args = (p, 0) if f is phi else (p,)
            start = time.perf_counter()
            with pytest.raises(ResourceCapError):
                f(*args)
            assert time.perf_counter() - start < 1.0, (f.__name__, p)


def test_assembly_at_p5_is_under_the_default_cap():
    # against the exact 44,079,843,328 of count_twofold_exact(5)
    assert count_twofold(5) == 38745443488


def test_block_edges_are_the_windows_each_block_sets():
    # block m's windows are exactly the edges with tail m or m + 2^(p-1)
    for p in (1, 2, 3, 4):
        blocks = 2 ** (p - 1)
        table = _block_edges(p)
        assert len(table) == blocks
        for m, options in enumerate(table):
            assert [choice for choice, _ in options] == [U, UP, LO]
            for choice, pairs in options:
                config = tuple(choice if j == m else U for j in range(blocks))
                edges = subgraph_from_frequency(expand_configuration(config, p)).edges
                own = {e for e in edges if e[0] in (m, m + blocks)}
                assert sorted(pairs) == sorted(own), (p, m, choice)


def test_minor_adjacency_and_cofactors():
    assert minor_adjacency(1) == [[1, 1], [1, 1]]
    for p, table in ((3, TABLE_P3), (4, TABLE_P4)):
        for k in range(2 ** (p - 1) + 1):
            assert minor_cofactor(k) == table["cofactor"][k]


def test_twofold_helpers_refuse_large_sizes_quickly():
    # each ran for seconds or more before its cap: 2^(2^39) configurations,
    # a 4,000 x 4,000 adjacency and a dense determinant of order 3,999
    for call in (
        lambda: permutation_count(40, 0),
        lambda: minor_cofactor(2000),
        lambda: minor_adjacency(10**6),
        lambda: minor_cofactor_closed_form(MINOR_MAX_K + 1),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            call()
        assert time.perf_counter() - start < 0.5
    # the cap admits the k = 32 of p = 6
    assert MINOR_MAX_K >= 32
    assert minor_cofactor(MINOR_MAX_K) > 0


def test_closed_form_cofactor_partial_agreement():
    for k in (1, 2, 4, 8):
        assert minor_cofactor_closed_form(k) == pytest.approx(minor_cofactor(k))
    # known disagreement: the analytic expression is not an integer at k = 3
    value = minor_cofactor_closed_form(3)
    assert abs(value - round(value)) > 0.1


def test_contracted_minors_of_p2_examples():
    # both mixed p = 2 configurations contract to the 2x2 all-ones graph
    for config in ((U, LO), (LO, U)):
        minor = configuration_minor(config, 2)
        assert len(minor.vertices) == 2
        a, b = sorted(minor.vertices)
        assert minor.edges == {(a, a): 1, (a, b): 1, (b, a): 1, (b, b): 1}


def test_assembly_reproduces_published_counts():
    assert count_twofold(1) == 2
    assert count_twofold(2) == 5
    assert count_twofold(3) == 72
    assert count_twofold(4) == 43768


def test_twofold_table_rows():
    for p, table in ((3, TABLE_P3), (4, TABLE_P4)):
        rows = twofold_table(p)
        assert [r["k"] for r in rows] == list(range(2 ** (p - 1) + 1))
        for key in ("perm_no", "phi", "cofactor"):
            assert [r[key] for r in rows] == table[key]


def test_bruteforce_small_p():
    assert count_twofold_bruteforce(1) == 2
    assert count_twofold_bruteforce(2) == 5
    seqs = list_twofold_bruteforce(2)
    assert len(seqs) == 5
    assert "11010010" not in {str(s) for s in seqs}
    assert {"11001100", "11011000", "11100100"} < {str(s) for s in seqs}


def test_bruteforce_cap():
    with pytest.raises(ResourceCapError):
        count_twofold_bruteforce(4)
    with pytest.raises(ResourceCapError):
        list_twofold_bruteforce(4)


def test_bruteforce_cap_on_a_huge_length():
    # n = 2^1101 is far past any float; the bit cap still refuses it, and a
    # huge p is refused before l^p is built
    start = time.perf_counter()
    for args in ((1100,), (10**9,), (10**9, 3)):
        with pytest.raises(ResourceCapError):
            count_twofold_bruteforce(*args)
    with pytest.raises(ResourceCapError):
        list_twofold_bruteforce(10**9)
    assert time.perf_counter() - start < 0.5


def test_assembly_matches_bruteforce_up_to_p2():
    for p in (1, 2):
        assert count_twofold(p) == count_twofold_bruteforce(p)


def test_per_configuration_minors_count_the_fibers():
    # BEST on each configuration's own contracted minor equals direct
    # enumeration of its member sequences, configuration by configuration
    for p in (2, 3):
        for config in product(list(BlockChoice), repeat=2 ** (p - 1)):
            z = expand_configuration(config, p)
            members = len(enumerate_sequences_with_frequency(z))
            if not subgraph_from_frequency(z).is_connected():
                assert members == 0
                continue
            minor = configuration_minor(config, p)
            best = count_eulerian_cycles(minor) if minor.edges else 1
            assert best == members, config


def _configuration_sum(p):
    """BEST on each connected configuration's own contracted minor, summed
    over all 3^(2^(p-1)) block configurations."""
    total = 0
    for config in product(list(BlockChoice), repeat=2 ** (p - 1)):
        if config[0] is UP or config[-1] is UP:
            continue  # weight 2 on the first or last window: disconnected
        if not subgraph_from_frequency(expand_configuration(config, p)).is_connected():
            continue
        minor = configuration_minor(config, p)
        total += count_eulerian_cycles(minor) if minor.edges else 1
    return total


def test_exact_count_matches_bruteforce():
    for p in (1, 2, 3):
        assert count_twofold_exact(p) == count_twofold_bruteforce(p)
    assert [count_twofold_exact(p) for p in (1, 2, 3, 4)] == [2, 5, 82, 52496]


def test_exact_count_matches_configuration_sum():
    for p in (1, 2, 3, 4):
        assert count_twofold_exact(p) == _configuration_sum(p)


def test_sequence_count_matches_ffold_bruteforce():
    # f-fold l-ary de Bruijn sequences: every level-p window exactly f times
    cases = [(2, 2, 2), (3, 2, 2), (1, 3, 2), (1, 2, 3), (2, 2, 3), (1, 3, 3), (2, 3, 1), (3, 2, 1)]
    for p, l, f in cases:
        z = FrequencyVector(p, f * l**p, l, {j: f for j in range(l**p)})
        brute = count_twofold_bruteforce(p, l, f)
        assert count_sequences_with_frequency(z) == brute, (p, l, f)
        assert count_multi_debruijn(l, p, f) == brute, (p, l, f)


def test_multi_debruijn_matches_exact_twofold_count():
    for p in range(1, 9):
        assert count_multi_debruijn(2, p, 2) == count_twofold_exact(p), p
    assert count_multi_debruijn(2, 5, 2) == 44079843328


def test_exact_count_default_cap():
    # the default cap admits p = 8 (about 12 ms) and refuses p = 11 at once
    assert count_twofold_exact(8) == count_multi_debruijn(2, 8, 2)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        count_twofold_exact(11)
    assert time.perf_counter() - start < 0.5


def test_members_of_exact_count_are_twofold():
    # every sequence found by brute force has every 3-window exactly twice
    target = FrequencyVector(3, 16, 2, {j: 2 for j in range(8)})
    seqs = list_twofold_bruteforce(3)
    assert len(seqs) == 82
    for s in seqs:
        assert project(s, 3) == target


def test_caps_and_domains():
    with pytest.raises(ResourceCapError):
        count_twofold(6)
    with pytest.raises(DomainError):
        count_twofold(0)
    with pytest.raises(DomainError):
        phi(3, 5)
    with pytest.raises(DomainError):
        permutation_count(3, -1)
    # p < 1 has no blocks; 2 ** (p - 1) would be a float
    for call in (lambda: phi(0, 0), lambda: phi(-1, 0), lambda: permutation_count(0, 0)):
        with pytest.raises(DomainError):
            call()
