"""The two-step lowering algorithm between frequency-vector levels:
block-decomposed non-negative Diophantine solving, then connectivity
filtering. The wavelet basis lives here as a numeric verification layer."""

from __future__ import annotations

import math
from itertools import chain, islice, product
from typing import Sequence

from .debruijn import _window_graph, count_sequences_with_frequency

# Unused here, but bench/spans.py wraps this module attribute by name; it
# goes with the next change to the benchmark.
from .debruijn import enumerate_sequences_with_frequency  # noqa: F401
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector

# Work cap of step 1: the product of the per-block solution counts. No node
# of the binary n <= 16 or ternary n <= 9 trees has more than 256 candidates;
# lowering ternary [16, 16, 16] (11,781 candidates) takes about 0.5 s, and
# reaching the cap on [100, 100, 100] about 0.15 s.
STEP1_CAP = 1 << 14


def _nonneg_matrices(row_sums: Sequence[int], col_sums: Sequence[int]):
    """All non-negative integer matrices with the given margins."""
    if sum(row_sums) != sum(col_sums):
        return
    l = len(row_sums)

    def fill(rows_done: list[list[int]], cols_left: list[int]):
        r = len(rows_done)
        if r == l - 1:
            last = cols_left
            if all(c >= 0 for c in last) and sum(last) == row_sums[r]:
                yield rows_done + [list(last)]
            return

        def row_options(remaining: int, j: int, prefix: list[int]):
            if j == l - 1:
                if 0 <= remaining <= cols_left[j]:
                    yield prefix + [remaining]
                return
            for v in range(min(remaining, cols_left[j]) + 1):
                yield from row_options(remaining - v, j + 1, prefix + [v])

        for row in row_options(row_sums[r], 0, []):
            yield from fill(
                rows_done + [row], [c - v for c, v in zip(cols_left, row)]
            )

    yield from fill([], list(col_sums))


def _check_work(candidates: int) -> None:
    if candidates > STEP1_CAP:
        raise ResourceCapError(
            f"step 1 would enumerate more than {STEP1_CAP} candidates"
        )


def _block_solutions(rows: tuple, cols: tuple, blocks: dict) -> list:
    """Solutions of one block as tuples of nonzero (b, a, count) entries,
    memoized in `blocks` by margins; more than STEP1_CAP of them exceed the
    work cap."""
    sols = blocks.get((rows, cols))
    if sols is None:
        sols = [
            tuple((b, a, v) for b, row in enumerate(mat) for a, v in enumerate(row) if v)
            for mat in islice(_nonneg_matrices(rows, cols), STEP1_CAP + 1)
        ]
        _check_work(len(sols))
        blocks[rows, cols] = sols
    return sols


def _step1(y: FrequencyVector, blocks: dict):
    """Step-1 candidates of y as {window index: count} dicts, in block
    product order; `blocks` memoizes the block solutions by margins.

    Every block's solutions are counted, and their product checked against
    STEP1_CAP, before the first candidate is built.
    """
    p, n, l = y.p, y.n, y.l
    if p == 0:
        # Level 0 -> 1: any composition of n into l parts.
        _check_work(math.comb(n + l - 1, l - 1))
        for comp in _compositions(n, l):
            yield {j: c for j, c in enumerate(comp) if c}
        return

    top, mid_size = l**p, l ** (p - 1)
    # Only blocks touched by nonzero Y entries can carry nonzero Z.
    mids = set()
    for w, _ in y.items():
        mids.add(w % mid_size)  # w = b . mid
        mids.add(w // l)  # w = mid . a
    choices = []
    work = 1
    for mid in sorted(mids):
        rows = tuple(y.entry(b * mid_size + mid) for b in range(l))
        cols = tuple(y.entry(mid * l + a) for a in range(l))
        sols = _block_solutions(rows, cols, blocks)
        if not sols:
            return
        work *= len(sols)
        _check_work(work)
        base = mid * l
        choices.append([tuple((b * top + base + a, v) for b, a, v in s) for s in sols])
    for choice in product(*choices):
        yield dict(chain.from_iterable(choice))


def solve_step1(y: FrequencyVector) -> list[FrequencyVector]:
    """All non-negative integer level-(p+1) vectors Z with L Z = R Z = Y.

    The system splits into independent blocks, one per length-(p-1) middle
    word: within a block the unknowns Z[b, mid, a] form an l x l matrix whose
    row sums are Y[b . mid] (outgoing flow) and column sums Y[mid . a]
    (incoming flow). Candidates are the Cartesian product of the per-block
    solutions, in lexicographic order of Z. More than STEP1_CAP candidates
    raise ResourceCapError before any is built.
    """
    out = [FrequencyVector(y.p + 1, y.n, y.l, c) for c in _step1(y, {})]
    return sorted(out, key=FrequencyVector.sort_key)


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def lower(y: FrequencyVector) -> list[FrequencyVector]:
    """Step I candidates filtered by subgraph connectivity; equals the exact
    preimage set {project(s, p+1) : project(s, p) = Y}.

    It calls solve_step1 by name, so that a tracer wrapping both sees the
    candidates of every lowering it is asked for; build_tree takes the
    leaner _lower instead.
    """
    vsize = y.l**y.p
    return [z for z in solve_step1(y) if _window_graph(z.items(), y.l, vsize)]


def _lower(y: FrequencyVector, blocks: dict) -> list[FrequencyVector]:
    """lower(y) with the block solutions memoized in `blocks`, which a whole
    cluster tree shares; only connected candidates become vectors."""
    p, n, l = y.p + 1, y.n, y.l
    vsize = l**y.p
    out = [
        FrequencyVector(p, n, l, c)
        for c in _step1(y, blocks)
        if _window_graph(c.items(), l, vsize)
    ]
    return sorted(out, key=FrequencyVector.sort_key)


def count_members(z: FrequencyVector) -> int:
    """Number of distinct cyclic sequences realizing z; 0 iff disconnected."""
    return count_sequences_with_frequency(z)


class WaveletBasis:
    """Orthonormal wavelet basis of the l^p-dimensional frequency space.

    The zero family pairs each Fourier vector chi_j with constant tails;
    the (gamma, j, alphas) family localizes chi_j behind a fixed prefix of
    elementary vectors. Used only to verify the block decomposition the
    integer solver relies on; production counting never touches floats.
    """

    def __init__(self, l: int, p: int):
        # numpy is an optional extra; nothing else in the package needs it.
        import numpy as np

        if l < 2 or p < 1:
            raise DomainError("need l >= 2 and p >= 1")
        self.l = l
        self.p = p
        chi = np.array(
            [
                [np.exp(2j * np.pi * i * j / l) for i in range(l)]
                for j in range(l)
            ]
        ).T  # chi[:, j]
        q = np.ones(l)
        e = np.eye(l)
        labels: list[tuple] = []
        vecs: list[np.ndarray] = []
        for j in range(l):
            v = chi[:, j]
            for _ in range(p - 1):
                v = np.kron(v, q)
            labels.append((0, j, ()))
            vecs.append(v * l ** (-p / 2))
        for gamma in range(1, p):
            for alphas in product(range(l), repeat=gamma):
                for j in range(1, l):
                    v = np.ones(1)
                    for a in alphas:
                        v = np.kron(v, e[a])
                    v = np.kron(v, chi[:, j])
                    for _ in range(p - gamma - 1):
                        v = np.kron(v, q)
                    labels.append((gamma, j, alphas))
                    vecs.append(v * l ** (-(p - gamma) / 2))
        self.labels = labels
        self.matrix = np.column_stack(vecs)

    def vector(self, label: tuple) -> np.ndarray:
        return self.matrix[:, self.labels.index(label)]


def wavelet_basis(l: int, p: int) -> WaveletBasis:
    return WaveletBasis(l, p)


def raising_matrix_action(vec: np.ndarray, l: int) -> np.ndarray:
    """Dense action of the raising map R_p: sums of l consecutive entries."""
    return vec.reshape(-1, l).sum(axis=1)


def lowering_incidence_action(vec: np.ndarray, l: int) -> np.ndarray:
    """Dense action of the incidence map L_p: sums over the leading letter."""
    return vec.reshape(l, -1).sum(axis=0)
