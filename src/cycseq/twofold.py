"""Counting binary two-fold de Bruijn sequences.

Every candidate frequency vector decomposes into independent 4-entry blocks,
each admitting three solutions: the uniform (1,1,1,1) pattern or one of two
doubled patterns. The count assembles per-k minor cofactors with the
connected-configuration counts Phi, and is cross-checked by brute force.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import combinations, product

from .debruijn import (
    Multigraph,
    contract_doubled_edges,
    count_sequences_with_frequency,
    integer_determinant,
    subgraph_from_frequency,
)

# Unused here, but bench/spans.py wraps this module attribute by name; it
# goes with the next change to the benchmark.
from .debruijn import count_eulerian_cycles  # noqa: F401
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, project
from .seqcore import CyclicSequence, enumerate_necklaces


class BlockChoice(Enum):
    UNIFORM = "uniform"  # (1, 1, 1, 1)
    UPPER = "upper"  # (2, 0, 0, 2)
    LOWER = "lower"  # (0, 2, 2, 0)


_PATTERNS = {
    BlockChoice.UNIFORM: (1, 1, 1, 1),
    BlockChoice.UPPER: (2, 0, 0, 2),
    BlockChoice.LOWER: (0, 2, 2, 0),
}


def expand_configuration(config: tuple[BlockChoice, ...], p: int) -> FrequencyVector:
    """Level-(p+1) frequency vector encoded by per-block choices.

    Block m (1-based) occupies positions 2m-1, 2m, 2m+2^p-1, 2m+2^p.
    """
    if p < 1:
        raise DomainError("need p >= 1")
    blocks = 2 ** (p - 1)
    if len(config) != blocks:
        raise DomainError(f"configuration must have {blocks} entries")
    counts: dict[int, int] = {}
    for m1, choice in enumerate(config, start=1):
        pattern = _PATTERNS[choice]
        positions = (2 * m1 - 2, 2 * m1 - 1, 2 * m1 + 2**p - 2, 2 * m1 + 2**p - 1)
        for pos, v in zip(positions, pattern):
            if v:
                counts[pos] = v
    return FrequencyVector(p + 1, 2 ** (p + 1), 2, counts)


def _check_p(p: int, max_p: int) -> None:
    if p < 1:
        raise DomainError("need p >= 1")
    if p > max_p:
        raise ResourceCapError(f"p = {p} exceeds the cap {max_p}")


def permutation_count(p: int, k: int) -> int:
    """Number of configurations with exactly k uniform blocks:
    2^(2^(p-1) - k) * C(2^(p-1), k)."""
    blocks = 2 ** (p - 1)
    if not (0 <= k <= blocks):
        raise DomainError(f"k must lie in 0..{blocks}")
    return 2 ** (blocks - k) * math.comb(blocks, k)


def phi(p: int, k: int, prune: bool = True) -> int:
    """Number of connected configurations with exactly k uniform blocks
    (the remaining blocks carry doubled edges).

    With prune=True, configurations whose expanded vector has weight 2 at
    the first or last position are skipped without a connectivity test;
    they are always disconnected, so the count is unchanged.
    """
    blocks = 2 ** (p - 1)
    if not (0 <= k <= blocks):
        raise DomainError(f"k must lie in 0..{blocks}")
    total = 0
    doubled = [BlockChoice.UPPER, BlockChoice.LOWER]
    for uniform_at in combinations(range(blocks), k):
        uniform_set = set(uniform_at)
        rest = [m for m in range(blocks) if m not in uniform_set]
        for assignment in product(doubled, repeat=len(rest)):
            config = [BlockChoice.UNIFORM] * blocks
            for m, choice in zip(rest, assignment):
                config[m] = choice
            config = tuple(config)
            if prune:
                # UPPER in the first block puts 2 at position 1; UPPER in
                # the last block puts 2 at the final position.
                if config[0] is BlockChoice.UPPER:
                    continue
                if config[-1] is BlockChoice.UPPER:
                    continue
            if subgraph_from_frequency(expand_configuration(config, p)).is_connected():
                total += 1
    return total


def minor_adjacency(k: int) -> list[list[int]]:
    """Adjacency of the contracted minor on 2k vertices: kron(q^T, I_k, q)."""
    if k < 1:
        raise DomainError("need k >= 1")
    size = 2 * k
    mat = [[0] * size for _ in range(size)]
    # Row index (b, c), column index (a, b'): entry is delta_{b, b'}.
    for b in range(k):
        for c in range(2):
            for a in range(2):
                mat[b * 2 + c][a * k + b] = 1
    return mat


def minor_cofactor(k: int) -> int:
    """Exact cofactor Co_1[2 I_{2k} - Q'_{2k}]; defined as 1 for k = 0."""
    if k == 0:
        return 1
    q = minor_adjacency(k)
    size = 2 * k
    m = [[(2 if i == j else 0) - q[i][j] for j in range(size)] for i in range(size)]
    minor = [row[1:] for row in m[1:]]
    return integer_determinant(minor)


def minor_cofactor_closed_form(k: int) -> float:
    """The printed analytic cofactor formula, for comparison only.

    Known to disagree with the exact determinant for some k (for instance
    k = 3 evaluates to a non-integer); the determinant path is authoritative.
    """
    if k < 1:
        raise DomainError("need k >= 1")
    gamma0 = 0
    kk = k
    while kk % 2 == 0:
        gamma0 += 1
        kk //= 2
    beta = 2 * k - 1 - (k // 2**gamma0) * sum(2**j for j in range(gamma0 + 1))
    value = 2 ** (2 * k - beta) / (4 * k)
    for j in range(int(beta // 2)):
        value *= 1 + 4 * math.cos(2 * math.pi * j / beta) ** 2
    return value


def count_twofold(p: int, max_p: int = 4) -> int:
    """Number of p-ary binary two-fold de Bruijn sequences.

    Sum over k of minor_cofactor(k) * phi(p, k): each connected configuration
    with k uniform blocks contributes the Eulerian-cycle count of its
    contracted minor.
    """
    return sum(row["cofactor"] * row["phi"] for row in twofold_table(p, max_p))


def count_twofold_exact(p: int, max_p: int = 5) -> int:
    """Two-fold count without the generic-minor assumption: the number of
    binary necklaces of length 2^(p+1) whose level-p window counts are all 2.

    The generic-minor assembly assumes every connected configuration with k
    uniform blocks contracts to the same minor; that fails for some
    configurations (first seen at p = 3), where the actual minor has more
    Eulerian cycles. This is one BEST + Burnside count on the doubled graph,
    count_sequences_with_frequency; it equals the sum of BEST counts over
    each configuration's own contracted minor.
    """
    _check_p(p, max_p)
    return count_sequences_with_frequency(
        FrequencyVector(p, 2 ** (p + 1), 2, {j: 2 for j in range(2**p)})
    )


def twofold_table(p: int, max_p: int = 4) -> list[dict]:
    """Per-k summary rows: k, PermNo, Phi, cofactor (matching the published
    tables for p = 3, 4).

    The cap max_p defaults to 4: phi at p = 5 walks 3^16 configurations and
    runs for more than ten minutes.
    """
    _check_p(p, max_p)
    blocks = 2 ** (p - 1)
    return [
        {
            "k": k,
            "perm_no": permutation_count(p, k),
            "phi": phi(p, k),
            "cofactor": minor_cofactor(k),
        }
        for k in range(blocks + 1)
    ]


def configuration_minor(config: tuple[BlockChoice, ...], p: int) -> Multigraph:
    """Contracted minor of one expanded configuration."""
    return contract_doubled_edges(expand_configuration(config, p))


def _uniform_window_scan(p: int, l: int, f: int, cap_bits: int) -> list[CyclicSequence]:
    """The necklaces of length f*l^p whose level-p window counts are all f,
    found by scanning every necklace of that length."""
    if p < 1 or l < 2 or f < 1:
        raise DomainError("need p >= 1, l >= 2, f >= 1")
    n = f * l**p
    necklaces = enumerate_necklaces(n, l, cap_bits)
    target = FrequencyVector(p, n, l, {j: f for j in range(l**p)})
    return [s for s in necklaces if project(s, p) == target]


def count_twofold_bruteforce(p: int, l: int = 2, f: int = 2, cap_bits: int = 17) -> int:
    """Count of cyclic sequences of length f*l^p whose level-p window counts
    are uniformly f, by scanning every necklace."""
    return len(_uniform_window_scan(p, l, f, cap_bits))


def list_twofold_bruteforce(p: int) -> list[CyclicSequence]:
    """The binary two-fold sequences themselves (p <= 3)."""
    return _uniform_window_scan(p, 2, 2, cap_bits=16)
