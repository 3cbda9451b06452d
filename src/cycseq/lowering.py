"""The two-step lowering algorithm between frequency-vector levels:
block-decomposed non-negative Diophantine solving, then connectivity
filtering. The wavelet basis lives here as a numeric verification layer."""

from __future__ import annotations

import math
from itertools import chain, islice, product
from typing import Sequence

from .debruijn import (
    _best_cofactor,
    _best_frame,
    _union_find,
    count_sequences_with_frequency,
    subgraph_from_frequency,
)

# Unused here, but bench/spans.py wraps this module attribute by name; it
# goes with the next change to the benchmark.
from .debruijn import enumerate_sequences_with_frequency  # noqa: F401
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, check_index_width, check_level
from .seqcore import _burnside, level1_cluster_size

# Work cap of step 1: the product of the per-block solution counts. No node
# of the binary n <= 16 or ternary n <= 9 trees has more than 256 candidates;
# lowering ternary [16, 16, 16] (11,781 candidates) takes about 0.5 s, and
# reaching the cap on [100, 100, 100] about 0.15 s.
STEP1_CAP = 1 << 14


def _nonneg_matrices(row_sums: Sequence[int], col_sums: Sequence[int]):
    """All non-negative integer matrices with the given margins, in
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
    l = len(row_sums)
    last = l - 1
    cols = list(col_sums)  # what each column has left below the rows placed
    cells: list[tuple[int, int, int]] = []  # nonzero cells of the rows placed
    rows: list = [None] * l
    r = 0
    while r >= 0:
        if r == last:
            yield tuple(cells + [(r, a, c) for a, c in enumerate(cols) if c])
            r -= 1
            continue
        row = rows[r]
        if row is None:
            row = rows[r] = [0] * l
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
            for a in range(start, l):
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
        for a in range(max(j, 0), l):
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


def _block_solutions(rows: tuple, cols: tuple, blocks: dict) -> list:
    """Solutions of one block as tuples of nonzero (b, a, count) entries,
    memoized in `blocks` by margins; more than STEP1_CAP of them exceed the
    work cap."""
    sols = blocks.get((rows, cols))
    if sols is None:
        sols = list(islice(_nonneg_matrices(rows, cols), STEP1_CAP + 1))
        _check_work(len(sols))
        blocks[rows, cols] = sols
    return sols


def _node_blocks(y: FrequencyVector, blocks: dict) -> list | None:
    """(mid, solutions) of every step-1 block of y (p >= 1) that its nonzero
    entries touch, in order of mid; None when some block has no solution.

    The margins come from one pass over y's entries. Every block's solutions
    are counted, and their product checked against STEP1_CAP, before the
    caller builds the first candidate.
    """
    check_index_width(y.p + 1, y.l)
    check_level(y.p + 1, y.n)
    l, mid_size = y.l, y.l ** (y.p - 1)
    margins: dict[int, tuple[list, list]] = {}
    for w, c in y.items():
        b, mid = divmod(w, mid_size)  # w = b . mid
        if mid not in margins:
            margins[mid] = ([0] * l, [0] * l)
        margins[mid][0][b] = c
        mid, a = divmod(w, l)  # w = mid . a
        if mid not in margins:
            margins[mid] = ([0] * l, [0] * l)
        margins[mid][1][a] = c
    out = []
    work = 1
    for mid in sorted(margins):
        rows, cols = margins[mid]
        sols = _block_solutions(tuple(rows), tuple(cols), blocks)
        if not sols:
            return None
        work *= len(sols)
        _check_work(work)
        out.append((mid, sols))
    return out


def _step1(y: FrequencyVector, blocks: dict):
    """Step-1 candidates of y as {window index: count} dicts, in block
    product order; `blocks` memoizes the block solutions by margins."""
    p, n, l = y.p, y.n, y.l
    if p == 0:
        # Level 0 -> 1: any composition of n into l parts.
        _check_work(math.comb(n + l - 1, l - 1))
        for comp in _compositions(n, l):
            yield {j: c for j, c in enumerate(comp) if c}
        return
    node_blocks = _node_blocks(y, blocks)
    if node_blocks is None:
        return
    top = l**p
    choices = [
        [tuple((b * top + mid * l + a, v) for b, a, v in s) for s in sols]
        for mid, sols in node_blocks
    ]
    for choice in product(*choices):
        yield dict(chain.from_iterable(choice))


def solve_step1(y: FrequencyVector) -> list[FrequencyVector]:
    """All non-negative integer level-(p+1) vectors Z with L Z = R Z = Y.

    The system splits into independent blocks, one per length-(p-1) middle
    word: within a block the unknowns Z[b, mid, a] form an l x l matrix whose
    row sums are Y[b . mid] (outgoing flow) and column sums Y[mid . a]
    (incoming flow). Candidates are the Cartesian product of the per-block
    solutions, in lexicographic order of Z. More than STEP1_CAP candidates
    raise ResourceCapError before any is built; a level p >= n, which
    project would refuse to lower into, raises DomainError.
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
    candidates of every lowering it is asked for; build_tree takes
    _children instead, which lowers and counts in one pass.
    """
    return [z for z in solve_step1(y) if subgraph_from_frequency(z).is_connected()]


def _children(y: FrequencyVector, blocks: dict) -> list[tuple[FrequencyVector, int]]:
    """(z, count) for every z of lower(y), in that order, where count is
    count_sequences_with_frequency(z) (level1_cluster_size at level 1);
    `blocks` memoizes the block solutions by margins, and a whole cluster
    tree shares it.

    A[Z] has the support of y as its vertex set whatever the candidate. A
    block with one solution is forced: all forced blocks are merged once
    into a union-find over that support, and their windows and share of the
    count are taken once. Each solution of the other blocks is translated
    once into its windows, the merges it makes between the forced
    components and its share of the count; a candidate is connected iff its
    merges join those components into one, and only then is it counted and
    made a vector.

    Every candidate z has out- and in-weight y_w at each vertex w of A[Z]
    (R z = L z = y), so the half of its BEST count that the out-weights fix
    (_best_frame) is found once per node. The share of a set of edges
    (tail, head, multiplicity v) is its flow delta, prod v!, the successors
    of its out-weight-1 tails and its edges out of branching tails: with
    them a candidate's count is the d = 1 Burnside term. The other terms
    need d | gcd(z), and gcd(z) divides gcd(y); the rare child whose counts
    share a factor is counted by count_sequences_with_frequency instead.
    """
    p, n, l = y.p + 1, y.n, y.l
    if y.p == 0:
        # _compositions gives the vectors in order.
        out = []
        for c in _step1(y, blocks):
            z = FrequencyVector(p, n, l, c)
            out.append((z, level1_cluster_size(z.dense())))
        return out
    node_blocks = _node_blocks(y, blocks)
    if node_blocks is None:
        return []
    mid_size = l ** (y.p - 1)
    weight = dict(y.items())
    factor, branching = _best_frame(weight)
    periodic = math.gcd(*weight.values()) > 1
    # Flow deltas are packed into one integer each, vertex w's net flow x_w
    # at bit offset shift[w]. A candidate's vector sums to n, so each
    # |x_w| <= n < 2^(width - 1), and a sum of deltas is 0 iff every x_w is.
    width = (2 * n).bit_length()
    shift = dict(zip(weight, range(0, width * len(weight), width)))

    forced = []  # edges of the forced blocks
    base_windows: dict[int, int] = {}
    base_flow, base_orderings, base_arcs = 0, 1, []
    # Every solution of a free block names the successor of each
    # out-weight-1 tail in it, so a candidate overwrites every entry of
    # this map that it does not share with the forced blocks.
    succ: dict[int, int] = {}
    free = []
    for mid, sols in node_blocks:
        if len(sols) > 1:
            free.append((mid, sols))
            continue
        for b, a, v in sols[0]:
            t, h = b * mid_size + mid, mid * l + a
            forced.append((t, h))
            base_windows[t * l + a] = v
            base_flow += (v << shift[t]) - (v << shift[h])
            base_orderings *= math.factorial(v)
            if weight[t] == 1:
                succ[t] = h
            else:
                base_arcs.append(((t, h), v))
    parent, _ = _union_find(forced, weight)
    label: dict[int, int] = {}  # forced component root -> 0..k-1
    comp = {}
    for w in parent:
        r = w
        while parent[r] != r:
            r = parent[r]
        comp[w] = label.setdefault(r, len(label))
    k = len(label)

    choices = []
    for mid, sols in free:
        options = []
        for s in sols:
            windows, merges, heads, arcs = [], set(), [], []
            flow, orderings = 0, 1
            for b, a, v in s:
                t, h = b * mid_size + mid, mid * l + a
                windows.append((t * l + a, v))
                if comp[t] != comp[h]:
                    merges.add((comp[t], comp[h]))
                flow += (v << shift[t]) - (v << shift[h])
                orderings *= math.factorial(v)
                if weight[t] == 1:
                    heads.append((t, h))
                else:
                    arcs.append(((t, h), v))
            options.append((windows, merges, flow, orderings, heads, arcs))
        choices.append(options)

    out = []
    for choice in product(*choices):
        if k > 1:
            # A union-find over the forced components, inlined: this runs
            # once per step-1 candidate.
            link = list(range(k))
            left = k
            for _, merges, _, _, _, _ in choice:
                for u, v in merges:
                    while link[u] != u:
                        link[u] = u = link[link[u]]
                    while link[v] != v:
                        link[v] = v = link[link[v]]
                    if u != v:
                        link[u] = v
                        left -= 1
            if left != 1:
                continue
        counts = dict(base_windows)
        flow, orderings, arcs = base_flow, base_orderings, list(base_arcs)
        for windows, _, delta, share, heads, edges in choice:
            counts.update(windows)
            flow += delta
            orderings *= share
            succ.update(heads)
            arcs += edges
        z = FrequencyVector(p, n, l, counts)
        if flow:
            raise DomainError("frequency vector is not flow-balanced")
        if periodic and math.gcd(*counts.values()) > 1:
            count = count_sequences_with_frequency(z)
        else:
            cofactor = _best_cofactor(branching, succ, arcs)
            count = _burnside(n, [(1, n * factor * cofactor, orderings)])
        out.append((z, count))
    if len(free) > 1:
        # With one free block the candidates come in the order of its
        # solutions, which is the order of their dense entries.
        out.sort(key=lambda pair: pair[0].sort_key())
    return out


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
