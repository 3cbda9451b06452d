"""The two-step lowering algorithm between frequency-vector levels:
block-decomposed non-negative Diophantine solving, then connectivity
filtering. The wavelet basis lives here as a numeric verification layer."""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, islice, product
from typing import Sequence

from .debruijn import _union_find

# Unused here, but bench/spans.py wraps this module attribute by name; it
# goes with the next change to the benchmark.
from .debruijn import enumerate_sequences_with_frequency  # noqa: F401
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, check_index_width, check_level

# Work cap of step 1: the product of the per-block solution counts, checked
# before any candidate is built. It bounds the public lower and solve_step1
# (the `lower` command; cluster trees do not lower), which cost about 16 us
# and 1.9 kB of traced memory per candidate, whatever the alphabet: a block
# is solved on the letters that occur in it, and a level-0 composition is
# built from its nonzero parts. On a 2-core Intel Xeon VM (Python 3.11)
# lowering [1] over 2^14 letters (2^14 candidates) takes 40-50 ms, ternary
# [16, 16, 16] (11,781 candidates) 0.16-0.18 s, and the largest equal
# composition admitted, [17, 17, 17] (14,706), 0.20-0.24 s, or 0.35-0.39 s
# at 46 MB of RSS as a command; with the cap lifted [24, 24, 24] (52,975)
# took 0.8-1.0 s and 100 MB traced. The cap refuses [100, 100, 100] in
# about 0.05 s, and one 50 x 50 block over 10^4 letters in 0.25-0.30 s.
STEP1_CAP = 1 << 14


def _nonneg_matrices(row_sums: Sequence[int], col_sums: Sequence[int]):
    """All non-negative integer matrices with the given row and column
    sums (r x c for r row sums and c column sums), in
    lexicographic order of their rows, each as a tuple of its nonzero
    (row, column, entry) cells.

    The rows above the last are stepped like an odometer, in place: each
    takes only what its columns have left, and the next row in order
    raises the rightmost entry that can still grow and refills the entries
    after it as far right as possible. With equal totals every such partial
    matrix completes (the last row takes what is left), so no branch is dead.
    """
    if sum(row_sums) != sum(col_sums):
        return
    width, last_row = len(col_sums), len(row_sums) - 1
    last = width - 1
    cols = list(col_sums)  # what each column has left below the rows placed
    cells: list[tuple[int, int, int]] = []  # nonzero cells of the rows placed
    rows: list = [None] * last_row
    r = 0
    while r >= 0:
        if r == last_row:
            yield tuple(cells + [(r, a, c) for a, c in enumerate(cols) if c])
            r -= 1
            continue
        row = rows[r]
        if row is None:
            row = rows[r] = [0] * width
            j, rem = -1, row_sums[r]
        else:
            # Entry j can grow when its column has some left and a later
            # entry of the row can give one up; entries j.. are taken back.
            tail, j = row[last], last - 1
            while j >= 0 and not (tail and cols[j]):
                tail += row[j]
                j -= 1
            start = max(j, 0)
            while cells and cells[-1][0] == r and cells[-1][1] >= start:
                cells.pop()
            for a in range(start, width):
                cols[a] += row[a]
            if j < 0:
                rows[r] = None
                r -= 1
                continue
            row[j] += 1
            rem = tail - 1
        k = last
        while rem:
            row[k] = v = cols[k] if cols[k] < rem else rem
            rem -= v
            k -= 1
        row[j + 1 : k + 1] = [0] * (k - j)
        for a in range(max(j, 0), width):
            v = row[a]
            if v:
                cols[a] -= v
                cells.append((r, a, v))
        r += 1


def _check_work(candidates: int) -> None:
    if candidates > STEP1_CAP:
        raise ResourceCapError(
            f"step 1 would enumerate more than {STEP1_CAP} candidates"
        )


def solve_step1(y: FrequencyVector) -> list[FrequencyVector]:
    """All non-negative integer level-(p+1) vectors Z with L Z = R Z = Y.

    The system splits into independent blocks, one per length-(p-1) middle
    word: within a block the unknowns Z[b, mid, a] form a matrix whose row
    sums are Y[b . mid] (outgoing flow) and column sums Y[mid . a]
    (incoming flow). A block is solved on its nonzero margins only, taken in
    one pass over y's entries, so unused letters cost nothing. Each block y
    touches, in order of mid, lists its solutions once, each translated into
    its windows as (index, count) pairs; window w = b . mid . a is the edge
    of A[Z] from w // l to w mod l^p. Candidates are the Cartesian product
    of the blocks' solutions, in lexicographic order of Z.

    More than STEP1_CAP candidates raise ResourceCapError before any is
    built: a block lists at most STEP1_CAP + 1 solutions, and the product of
    the counts so far is checked before the block is translated (at level 0,
    once STEP1_CAP + 1 compositions are built). A level p >= n, which
    project would refuse to lower into, raises DomainError.
    """
    p, n, l = y.p, y.n, y.l
    if p == 0:
        # Level 0 -> 1: any composition of n into l parts.
        comps = list(islice(_compositions(n, l), STEP1_CAP + 1))
        _check_work(len(comps))
        return [FrequencyVector(1, n, l, comp) for comp in comps]
    check_index_width(p + 1, l)
    check_level(p + 1, n)
    mid_size, top = l ** (p - 1), l**p
    # y's entries come in index order, so each block's letters are inserted
    # in ascending order.
    margins: dict[int, tuple[dict, dict]] = defaultdict(lambda: ({}, {}))
    for w, c in y.items():
        b, mid = divmod(w, mid_size)  # w = b . mid
        margins[mid][0][b] = c
        mid, a = divmod(w, l)  # w = mid . a
        margins[mid][1][a] = c
    blocks, work = [], 1
    for mid in sorted(margins):
        rows, cols = margins[mid]
        matrices = _nonneg_matrices(list(rows.values()), list(cols.values()))
        sols = list(islice(matrices, STEP1_CAP + 1))
        if not sols:
            return []
        work *= len(sols)
        _check_work(work)
        firsts, lasts = [b * top + mid * l for b in rows], list(cols)
        # sols is rebound, so no cells are left when the candidates are built.
        sols = [[(firsts[i] + lasts[j], v) for i, j, v in s] for s in sols]
        blocks.append(sols)
    # Each window lies in exactly one block, so no choice overwrites another.
    out = [
        FrequencyVector(p + 1, n, l, dict(chain.from_iterable(choice)))
        for choice in product(*blocks)
    ]
    return sorted(out, key=FrequencyVector.sort_key)


def _compositions(n: int, parts: int):
    """The compositions of n into `parts` parts >= 0, in lexicographic
    order, each as a dict of its nonzero parts by position. Each is stepped
    from the one before in place, touching two or three parts, so the parts
    of a large alphabet cost neither time nor recursion depth."""
    last = parts - 1
    comp = {last: n} if n else {}
    j = last if n else 0  # the last positive part past the first
    while True:
        yield dict(comp)
        if j == 0:
            return
        # Part j gives one to part j - 1, and the rest of it goes last.
        rest = comp.pop(j) - 1
        comp[j - 1] = comp.get(j - 1, 0) + 1
        if rest:
            comp[last] = rest
        j = last if rest else j - 1


def lower(y: FrequencyVector) -> list[FrequencyVector]:
    """Step I candidates filtered by subgraph connectivity; equals the exact
    preimage set {project(s, p+1) : project(s, p) = Y}.

    At level 0 every window sits on the one vertex of A[Z], so every
    composition survives, in solve_step1's order. It calls solve_step1 by
    name, so that a tracer wrapping both sees the candidates of every
    lowering it is asked for.
    """
    candidates = solve_step1(y)
    l, top = y.l, y.l**y.p
    out = []
    for z in candidates:
        # A[Z] is connected iff its edges join its vertices into one class.
        parent, merges = _union_find([(w // l, w % top) for w, _ in z.items()])
        if len(parent) - merges == 1:
            out.append(z)
    return out


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
