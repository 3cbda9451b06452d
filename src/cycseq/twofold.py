"""Counting binary two-fold de Bruijn sequences.

Every candidate frequency vector decomposes into independent 4-entry blocks,
each admitting three solutions: the uniform (1,1,1,1) pattern or one of two
doubled patterns. The count assembles per-k minor cofactors with the
connected-configuration counts Phi, and is cross-checked by brute force.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

from .debruijn import (
    Multigraph,
    contract_doubled_edges,
    count_sequences_with_frequency,
    integer_determinant,
)

# Unused here, but bench/spans.py wraps this module attribute by name; it
# goes with the next change to the benchmark.
from .debruijn import count_eulerian_cycles  # noqa: F401
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, project
from .seqcore import FACTORIAL_MAX_N, CyclicSequence, _check_enumerable, check_factorial_n
from .seqcore import enumerate_necklaces


class BlockChoice(Enum):
    UNIFORM = "uniform"  # (1, 1, 1, 1)
    UPPER = "upper"  # (2, 0, 0, 2)
    LOWER = "lower"  # (0, 2, 2, 0)


_PATTERNS = {
    BlockChoice.UNIFORM: (1, 1, 1, 1),
    BlockChoice.UPPER: (2, 0, 0, 2),
    BlockChoice.LOWER: (0, 2, 2, 0),
}


def _block_windows(m: int, p: int) -> tuple[int, int, int, int]:
    """The 0-based level-(p+1) windows of block m (0-based), in the order
    of the _PATTERNS entries: 2m, 2m + 1, 2m + 2^p and 2m + 2^p + 1."""
    return (2 * m, 2 * m + 1, 2 * m + 2**p, 2 * m + 2**p + 1)


def expand_configuration(config: tuple[BlockChoice, ...], p: int) -> FrequencyVector:
    """Level-(p+1) frequency vector encoded by per-block choices.

    Block m (1-based) occupies positions 2m-1, 2m, 2m+2^p-1, 2m+2^p.
    """
    if p < 1:
        raise DomainError("need p >= 1")
    # 2^(p-1) > len(config) once p - 1 reaches its bit length: a huge p is
    # refused before 2^(p-1) is built.
    if p - 1 >= len(config).bit_length() or len(config) != 2 ** (p - 1):
        raise DomainError("configuration must have 2^(p - 1) entries")
    counts: dict[int, int] = {}
    for m, choice in enumerate(config):
        for w, v in zip(_block_windows(m, p), _PATTERNS[choice]):
            if v:
                counts[w] = v
    return FrequencyVector(p + 1, 2 ** (p + 1), 2, counts)


def _blocks(p: int, k: int) -> int:
    """Number of blocks 2^(p-1) at level p, after checking p and k."""
    if p < 1:
        raise DomainError("need p >= 1")
    blocks = 2 ** (p - 1)
    if not (0 <= k <= blocks):
        raise DomainError(f"k must lie in 0..{blocks}")
    return blocks


def permutation_count(p: int, k: int) -> int:
    """Number of configurations with exactly k uniform blocks:
    2^(2^(p-1) - k) * C(2^(p-1), k). Refused where Phi is (_check_phi_p)."""
    _check_phi_p(p)
    blocks = _blocks(p, k)
    return 2 ** (blocks - k) * math.comb(blocks, k)


def _block_edges(p: int) -> list[tuple[tuple[BlockChoice, tuple], ...]]:
    """Per block m (0-based), each choice with the edges of G_2(p) it sets:
    the edge (w >> 1, w mod 2^p) of each window w of the block that the
    choice's pattern weights. Block m's windows run from tails m and
    m + 2^(p-1) to heads 2m and 2m + 1.
    """
    vsize = 2**p
    return [
        tuple(
            (choice, tuple((w >> 1, w % vsize) for w, v in zip(_block_windows(m, p), pat) if v))
            for choice, pat in _PATTERNS.items()
        )
        for m in range(2 ** (p - 1))
    ]


# Most frontier states _phi_row keeps after a block, and most blocks it
# starts on. Measured on a 2-core Intel Xeon VM (Python 3.11): the peak is
# 9 states at p = 4 and 657 at p = 5, whose whole row takes 35 ms; p = 6 to
# 13 pass the cap after 0.09 to 0.13 s, and from p = 14 on the 2^(p-1)
# blocks alone exceed it.
PHI_MAX_STATES = 4096


def _check_phi_p(p: int) -> None:
    """Refuse a level p whose 2^(p-1) blocks exceed PHI_MAX_STATES.

    p is compared with the cap's bit length, never through 2^(p-1), which
    for a huge p would itself take seconds or exhaust memory.
    """
    if p < 1:
        raise DomainError("need p >= 1")
    if p - 1 >= PHI_MAX_STATES.bit_length():
        raise ResourceCapError(
            f"Phi at this p has 2^(p - 1) blocks, more than {PHI_MAX_STATES}"
        )


def phi(p: int, k: int) -> int:
    """Number of connected configurations with exactly k uniform blocks
    (the remaining blocks carry doubled edges); an entry of _phi_row."""
    _check_phi_p(p)
    _blocks(p, k)
    return _phi_row(p)[k]


@functools.lru_cache(maxsize=None)
def _phi_row(p: int) -> tuple[int, ...]:
    """(Phi(p, 0), ..., Phi(p, 2^(p-1))) by one frontier DP over the blocks.

    Vertex v of G_2(p) is touched by two blocks, its tail block v mod 2^(p-1)
    and its head block v >> 1, and is live from the first of them to the
    last. The blocks run in the order m, m + 2^(p-2), which keeps the live
    set small. A state is the partition of the live vertices into the
    classes their edges have joined so far, labelled in order of first
    appearance; its value counts the configurations that reach it, by their
    number of uniform blocks. Every vertex is a tail of some block, so a
    configuration is connected exactly when it ends with one class. A class
    whose vertices have all retired is a finished component: it ends its
    branch, unless it is the last block and no other class remains.
    UPPER is never tried in the first or last block: it puts weight 2 on
    the first or last window, a self-loop on a vertex with no other edge,
    so those configurations are always disconnected.

    Raises ResourceCapError when there are more than PHI_MAX_STATES blocks,
    before any table is built, or more than PHI_MAX_STATES states are live
    after a block.
    """
    _check_phi_p(p)
    blocks = 2 ** (p - 1)
    order = sorted(range(blocks), key=lambda m: m % max(blocks // 2, 1))
    position = {m: t for t, m in enumerate(order)}
    # The positions of the first and the last block touching each vertex.
    spans = [sorted((position[v % blocks], position[v >> 1])) for v in range(2 * blocks)]
    table = _block_edges(p)
    states: dict[tuple[int, ...], list[int]] = {(): [1]}
    live: list[int] = []
    row = [0] * (blocks + 1)
    for t, m in enumerate(order):
        frontier = live + [v for v, (first, _) in enumerate(spans) if first == t]
        index = {v: i for i, v in enumerate(frontier)}
        keep = [i for i, v in enumerate(frontier) if spans[v][1] > t]
        retire = [i for i, v in enumerate(frontier) if spans[v][1] == t]
        options = [
            (choice is BlockChoice.UNIFORM, [(index[u], index[v]) for u, v in pairs])
            for choice, pairs in table[m]
            if not (choice is BlockChoice.UPPER and m in (0, blocks - 1))
        ]
        # Canonical labels of the live vertices lie below len(live), so the
        # entering vertices take fresh ones.
        fresh = list(range(len(live), len(frontier)))
        following: dict[tuple[int, ...], list[int]] = {}
        for labels, counts in states.items():
            start = [*labels, *fresh]
            for uniform, pairs in options:
                cls = start
                for i, j in pairs:
                    a, b = cls[i], cls[j]
                    if a != b:
                        cls = [a if c == b else c for c in cls]
                kept = [cls[i] for i in keep]
                reached = [0, *counts] if uniform else [*counts, 0]
                if any(cls[i] not in kept for i in retire):
                    # At the last block nothing is kept and every class closes.
                    if t == blocks - 1 and len(set(cls)) == 1:
                        row = [x + y for x, y in zip(row, reached)]
                    continue
                seen: dict[int, int] = {}
                key = tuple([seen.setdefault(c, len(seen)) for c in kept])
                old = following.get(key)
                following[key] = reached if old is None else [x + y for x, y in zip(old, reached)]
        if len(following) > PHI_MAX_STATES:
            raise ResourceCapError(
                f"Phi at p = {p} keeps more than {PHI_MAX_STATES} frontier states"
            )
        states, live = following, [frontier[i] for i in keep]
    return tuple(row)


# Largest k of the contracted minor, whose cofactor is a dense Bareiss
# determinant of order 2k - 1. On a 2-core Intel Xeon VM (Python 3.11) it
# took 0.013 s at k = 32 (the largest k at p = 6), 0.11 s at k = 64 and
# 0.95 s at k = 128.
MINOR_MAX_K = 64


def _check_minor_k(k: int) -> None:
    if k < 1:
        raise DomainError("need k >= 1")
    if k > MINOR_MAX_K:
        raise ResourceCapError(f"k exceeds the minor cap {MINOR_MAX_K}")


def minor_adjacency(k: int) -> list[list[int]]:
    """Adjacency of the contracted minor on 2k vertices: kron(q^T, I_k, q).
    Refused past MINOR_MAX_K."""
    _check_minor_k(k)
    size = 2 * k
    mat = [[0] * size for _ in range(size)]
    # Row index (b, c), column index (a, b'): entry is delta_{b, b'}.
    for b in range(k):
        for c in range(2):
            for a in range(2):
                mat[b * 2 + c][a * k + b] = 1
    return mat


def minor_cofactor(k: int) -> int:
    """Exact cofactor Co_1[2 I_{2k} - Q'_{2k}]; defined as 1 for k = 0.
    Refused past MINOR_MAX_K."""
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
    Refused past MINOR_MAX_K.
    """
    _check_minor_k(k)
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


def count_twofold(p: int) -> int:
    """Number of p-ary binary two-fold de Bruijn sequences.

    Sum over k of minor_cofactor(k) * phi(p, k): each connected configuration
    with k uniform blocks contributes the Eulerian-cycle count of its
    contracted minor.
    """
    return sum(row["cofactor"] * row["phi"] for row in twofold_table(p))


def count_twofold_exact(p: int) -> int:
    """Two-fold count without the generic-minor assumption: the number of
    binary necklaces of length 2^(p+1) whose level-p window counts are all 2.

    The generic-minor assembly assumes every connected configuration with k
    uniform blocks contracts to the same minor; that fails for some
    configurations (first seen at p = 3), where the actual minor has more
    Eulerian cycles. This is one BEST + Burnside count on the doubled graph,
    count_sequences_with_frequency; it equals the sum of BEST counts over
    each configuration's own contracted minor. debruijn.BEST_MAX_BRANCHING
    refuses p = 11 to 15; past 15, 2^(p+1) passes seqcore.FACTORIAL_MAX_N
    and is refused before it is built.
    """
    if p < 1:
        raise DomainError("need p >= 1")
    check_factorial_n(2 ** min(p + 1, FACTORIAL_MAX_N.bit_length()))
    return count_sequences_with_frequency(
        FrequencyVector(p, 2 ** (p + 1), 2, {j: 2 for j in range(2**p)})
    )


def twofold_table(p: int) -> list[dict]:
    """Per-k summary rows: k, PermNo, Phi, cofactor (matching the published
    tables for p = 3, 4).

    p = 5 is the largest p whose Phi row fits under PHI_MAX_STATES; past it,
    phi raises ResourceCapError in at most about 0.13 s, and from p = 14 on
    the p check refuses before any row is begun.
    """
    _check_phi_p(p)
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


# Widest scan of the brute-force two-fold oracles, as n log2(l) bits for
# n = f l^p: binary two-fold input up to p = 3. Each (p, l, f) it admits took
# at most 0.08 s (2-core Intel Xeon VM, Python 3.11).
SCAN_CAP_BITS = 17


def _uniform_window_scan(p: int, l: int, f: int) -> list[CyclicSequence]:
    """The necklaces of length f*l^p whose level-p window counts are all f,
    found by scanning every necklace of that length."""
    if p < 1 or l < 2 or f < 1:
        raise DomainError("need p >= 1, l >= 2, f >= 1")
    if p > SCAN_CAP_BITS:  # n >= 2^p passes the cap too; refused before l^p is built
        raise ResourceCapError(f"p is past the {SCAN_CAP_BITS}-bit scan cap")
    n = f * l**p
    _check_enumerable(n, l, SCAN_CAP_BITS)
    target = FrequencyVector(p, n, l, {j: f for j in range(l**p)})
    return [s for s in enumerate_necklaces(n, l) if project(s, p) == target]


def count_twofold_bruteforce(p: int, l: int = 2, f: int = 2) -> int:
    """Count of cyclic sequences of length f*l^p whose level-p window counts
    are uniformly f, by scanning every necklace."""
    return len(_uniform_window_scan(p, l, f))


def list_twofold_bruteforce(p: int) -> list[CyclicSequence]:
    """The binary two-fold sequences themselves (p <= 3)."""
    return _uniform_window_scan(p, 2, 2)
