"""De Bruijn graphs, weighted subgraphs induced by frequency vectors,
exact Eulerian-cycle counting (BEST theorem), and sequence enumeration."""

from __future__ import annotations

import math
from typing import Iterable

from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, check_index_width, check_level, index_word
from .seqcore import (
    FACTORIAL_MAX_N,
    CyclicSequence,
    _burnside,
    _prenecklace,
    check_factorial_n,
    divisors,
    euler_totient,
)

# Unused here, but bench/spans.py wraps this module attribute by name; it
# goes with the next change to the benchmark.
from .seqcore import canonicalize  # noqa: F401

# Caps of enumerate_sequences_with_frequency: n, and the member count, which
# count_sequences_with_frequency gives in about 0.1 ms. Listing takes about
# 10 us per member, up to 40 us where the walk meets many dead ends (2-core
# Intel Xeon VM, Python 3.11): binary [10, 10] lists 9,252 in 0.08 s, ternary
# [6, 6, 6] 953,056 in 7.3 s at 285 MB of RSS. Ternary [7, 7, 6] has
# 6,651,216, about seven times as many.
SEQUENCE_CAP = 20
SEQUENCE_COUNT_CAP = 10_000

# Cap of full_graph: the l^(p+1) windows of G_l(p), checked before any is
# built. At the cap G_2(15) builds in 0.13 s at 44 MB of RSS, and G_2(16)
# would take 0.21 s and 68 MB, doubling with each p. Every vertex of G_l(p)
# branches, so this cap and BEST_MAX_BRANCHING are what bound euler-count.
FULL_GRAPH_MAX_WINDOWS = 1 << 16

# Size cap of one BEST count: the branching vertices (out-weight >= 2) left
# after the out-weight-1 contraction, checked before the Laplacian is built.
# Measured in-process: G_2(9) (512 of them) 4 ms, G_8(3) 11 ms, G_22(2)
# 26 ms; past the cap G_2(10) 10 ms, G_10(3) 18 ms, G_32(2) 74 ms. Twin
# merging collapses the de Bruijn graphs, but the cofactor's fill-in, not
# the vertex count, sets the cost where there are no twins: 512 hubs joined
# by random long cycles take 27 s. Under the cap, G_256(1) (256 of them,
# admitted by FULL_GRAPH_MAX_WINDOWS) took 1.8 to 3.5 s over three runs: each
# vertex has an edge to every other, so no two rows are twins and the
# cofactor is dense. The cap stays until a fill-in budget replaces it.
BEST_MAX_BRANCHING = 512


def _find(parent: dict | list, v):
    """Root of v's class; halves the path on the way up."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union_find(pairs: Iterable[tuple], vertices: Iterable = ()) -> tuple[dict, int]:
    """Parent map over `vertices` and the ends of every pair, with the two
    ends of every pair merged, and the number of merges made. A vertex is a
    class root exactly when it is its own parent, so the classes number
    len(parent) - merges."""
    parent = {v: v for v in vertices}
    merges = 0
    for u, v in pairs:
        # Most ends are roots already; only the others climb.
        ru = parent.setdefault(u, u)
        if ru != u:
            ru = _find(parent, ru)
        rv = parent.setdefault(v, v)
        if rv != v:
            rv = _find(parent, rv)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    return parent, merges


class Multigraph:
    """Directed multigraph with an explicit vertex set and edge multiplicities
    keyed by (tail, head); the one weighted-graph type of the package."""

    def __init__(self, vertices: Iterable = (), edges: dict | None = None):
        self.vertices = set(vertices)
        self.edges: dict[tuple, int] = {}
        for (u, v), m in (edges or {}).items():
            self.add_edge(u, v, m)

    def add_edge(self, u, v, mult: int = 1):
        if mult < 0:
            raise DomainError("edge multiplicity must be non-negative")
        if mult == 0:
            return
        self.vertices.add(u)
        self.vertices.add(v)
        self.edges[(u, v)] = self.edges.get((u, v), 0) + mult

    def is_balanced(self) -> bool:
        flow: dict = {}
        for (u, v), m in self.edges.items():
            flow[u] = flow.get(u, 0) + m
            flow[v] = flow.get(v, 0) - m
        return not any(flow.values())

    def is_connected(self) -> bool:
        """Connectivity of the undirected support over vertices that carry
        at least one edge; an edgeless graph is not connected."""
        if not self.edges:
            return False
        parent, merges = _union_find(self.edges)
        return len(parent) - merges == 1


# The old name of the type subgraph_from_frequency returns. Code that still
# names it, such as the span wrappers in bench/spans.py, keeps working.
WeightedSubgraph = Multigraph


def _windows(z: FrequencyVector) -> list[tuple[int, int, int]]:
    """(tail, head, count) of every window of z, as an edge of G_l(p-1)."""
    if z.p < 1:
        raise DomainError("need a frequency vector at level >= 1")
    check_index_width(z.p - 1, z.l)
    check_level(z.p, z.n)
    l, vsize = z.l, z.l ** (z.p - 1)
    return [(e // l, e % vsize, w) for e, w in z.items()]


def subgraph_from_frequency(z: FrequencyVector) -> Multigraph:
    """Weighted subgraph A[Z] of G_l(p) induced by a level-(p+1) vector:
    edge weights are window counts. The l loops of G_l(0) share the key
    (0, 0), so their weights add up."""
    g = Multigraph()
    edges = g.edges
    for t, h, w in _windows(z):
        edges[t, h] = edges.get((t, h), 0) + w
    g.vertices.update(*edges)
    return g


def full_graph(l: int, p: int) -> Multigraph:
    """G_l(p): the l^p words of length p, joined by the l^(p+1) words of
    length p + 1 with unit weight. It is A[Z] of the all-ones level-(p+1)
    vector, the window counts of every de Bruijn sequence. More than
    FULL_GRAPH_MAX_WINDOWS windows raise ResourceCapError."""
    if l < 2 or p < 0:
        raise DomainError("need l >= 2 and p >= 0")
    cap = FULL_GRAPH_MAX_WINDOWS
    # l >= 2, so l^k > cap once k reaches the bit length of cap, and an
    # admitted size is l^(p+1) itself.
    size = l ** min(p + 1, cap.bit_length())
    if size > cap:
        raise ResourceCapError(f"the l^(p+1) windows of G_l(p) exceed the cap {cap}")
    return subgraph_from_frequency(FrequencyVector(p + 1, size, l, dict.fromkeys(range(size), 1)))


def subgraph_to_dot(z: FrequencyVector) -> str:
    """DOT text of A[Z]: vertex labels = words, edge labels = weights."""
    l, p = z.l, z.p - 1
    windows = _windows(z)
    lines = ["digraph debruijn {"]
    for v in sorted({v for t, h, _ in windows for v in (t, h)}):
        label = "".join(map(str, index_word(v + 1, p, l))) or "()"
        lines.append(f'  v{v} [label="{label}"];')
    for t, h, w in windows:
        lines.append(f'  v{t} -> v{h} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)


def integer_determinant(mat: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def count_eulerian_cycles(g: Multigraph) -> int:
    """Eulerian cycles of a connected balanced directed multigraph with
    distinguishable edges, via the BEST theorem.

    Cofactor of the Laplacian times the product of (out-degree - 1)! over
    vertices.
    """
    if not g.edges:
        raise DomainError("graph has no edges")
    if not g.is_balanced():
        raise DomainError("graph is not balanced")
    if not g.is_connected():
        raise DomainError("graph is not connected")
    return _best_count(g.edges)


def _best_count(edges: dict[tuple, int]) -> int:
    """BEST count of a connected balanced multigraph given by its edge
    multiplicities: the product of (out-weight - 1)! times the Laplacian
    cofactor over the branching vertices (out-weight >= 2), rooted at the
    first. More than BEST_MAX_BRANCHING of them raise ResourceCapError
    before the Laplacian is built.

    A vertex with out-weight 1 uses its one out-edge in every arborescence,
    so it is contracted into its successor: one _union_find over those
    edges, seeded with the branching vertices, leaves each branching vertex
    the representative of its class. A class with none is a chain that
    closes on itself and raises ArithmeticError. With at most one branching
    vertex the cofactor is empty, so 1.
    """
    out: dict = {}
    for (u, _), m in edges.items():
        out[u] = out.get(u, 0) + m
    branching = sorted([v for v, d in out.items() if d > 1])
    if len(branching) > BEST_MAX_BRANCHING:
        raise ResourceCapError(
            f"{len(branching)} branching vertices exceed the BEST cap {BEST_MAX_BRANCHING}"
        )
    # Out-weight 1 contributes 0! = 1.
    factor = math.prod([math.factorial(out[v] - 1) for v in branching])
    if len(branching) < 2:
        return factor
    parent, _ = _union_find([e for e in edges if out[e[0]] == 1], branching)
    rep = {_find(parent, b): b for b in branching}
    # The Laplacian with the row and column of the root removed, as sparse
    # rows; a self-loop on a representative cancels.
    root = branching[0]
    rows: dict = {v: {} for v in branching[1:]}
    for (u, v), m in edges.items():
        row = rows.get(u)
        if row is None:
            continue
        r = rep.get(_find(parent, v))
        if r is None:
            raise ArithmeticError("a chain of out-weight-1 vertices closes on itself")
        if r != u:
            row[u] = row.get(u, 0) + m
            if r != root:
                row[r] = row.get(r, 0) - m
    return factor * _laplacian_cofactor(rows)


def _laplacian_cofactor(rows: dict) -> int:
    """Determinant of a reduced Laplacian given as sparse rows
    {i: {j: entry}} with no zero entries; the rows are consumed.

    First, twin rows are merged until none are left (_merge_twins), at
    every size. Rows u and v are twins when they have the same diagonal d,
    the same off-diagonal entries and no entry in each other's column.
    Subtracting row u from row v and then adding column v to column u keeps
    the determinant and turns row v into d e_v, so

        det = d * det(row and column v deleted, column v added to column u).

    In graph terms v, whose out-edges are u's, is merged into u, and the
    new matrix is the reduced Laplacian of the merged graph. G_l(p) is the
    line digraph of G_l(p-1): its words a s share their out-edges, so one
    pass merges the l words of each suffix s, and the next finds twins
    among the suffixes. Twins joined by an edge are left to the elimination.

    Then one vertex is eliminated at a time (a Schur complement), always on
    the diagonal, choosing the vertex of least Markowitz count
    (row nnz - 1)(column nnz - 1), the first in `rows` order on a tie. The
    matrix is a nonsingular M-matrix (a balanced connected graph is strongly
    connected, so every vertex reaches the root, also after merging), and
    Schur complements and positive row scalings keep it one, so every twin
    diagonal and pivot is positive and no row exchange is needed. Both are
    checked: a non-positive one raises ArithmeticError.

    Each row r with a nonzero a in the pivot column v becomes
    s row_r - t row_v, with g = gcd(pivot, a), s = pivot / g, t = a / g. That
    scales the determinant by s, so det = (product of twin diagonals and
    pivots) / (product of the s), divided out exactly at the end.
    """
    cols: dict = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    num = _merge_twins(rows, cols)
    den = 1
    while rows:
        v = min(rows, key=lambda i: (len(rows[i]) - 1) * (len(cols[i]) - 1))
        pivot_row = rows.pop(v)
        pivot = pivot_row.pop(v, 0)
        if pivot <= 0:
            raise ArithmeticError("non-positive pivot in a reduced Laplacian")
        num *= pivot
        below = cols.pop(v)
        below.discard(v)
        for j in pivot_row:
            cols[j].discard(v)
        for r in below:
            row = rows[r]
            a = row.pop(v)
            if not pivot_row:
                # Nothing else to subtract: the row just loses column v.
                continue
            g = math.gcd(pivot, a)
            s, t = pivot // g, a // g
            if s != 1:
                den *= s
                for j in row:
                    row[j] *= s
            for j, b in pivot_row.items():
                x = row.get(j, 0) - t * b
                if x:
                    if j not in row:
                        cols[j].add(r)
                    row[j] = x
                elif j in row:
                    del row[j]
                    cols[j].discard(r)
    det, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("the pivot product is not divisible by the row scalings")
    return det


def _merge_twins(rows: dict, cols: dict) -> int:
    """Merges the twin rows of _laplacian_cofactor's matrix, pass after pass
    until none are left, updating `rows` and the column sets `cols` in place;
    returns the product of the twin diagonals taken out of the determinant.

    Each pass keys every row once by its diagonal and off-diagonal
    entries, stops when all keys differ (at once on an empty matrix), and
    merges each class into its first row. Equal off-diagonal entries
    already rule out an entry in each other's column: u's entry in column v
    would be one of v's off-diagonal entries. A merge changes columns u and
    v only, on which the rows of another twin class agree, so one pass
    merges every class it found.
    """
    num = 1
    while True:
        twins: dict = {}
        for i, row in rows.items():
            d = row.get(i, 0)
            twins.setdefault((d, frozenset(row.items()) - {(i, d)}), []).append(i)
        if len(twins) == len(rows):
            break
        for (d, _), (u, *others) in twins.items():
            if others and d <= 0:
                raise ArithmeticError("non-positive twin diagonal in a reduced Laplacian")
            for v in others:
                num *= d
                for j in rows.pop(v):
                    cols[j].discard(v)
                for r in cols.pop(v):
                    row = rows[r]
                    x = row.pop(v) + row.get(u, 0)
                    if x:
                        row[u] = x
                        cols[u].add(r)
                    else:
                        del row[u]
                        cols[u].discard(r)
    return num


def count_sequences_with_frequency(z: FrequencyVector) -> int:
    """Number of distinct cyclic sequences whose level-p window counts equal
    z; 0 when the subgraph A[Z] is disconnected.

    Burnside over rotations: the words fixed by a rotation of order d are
    d-th powers, whose window counts are Z/d, so with g the gcd of the counts

        N(Z) = (1/n) sum_{d | g} phi(d) W(Z/d),
        W(Z') = (n/d) ec(A[Z']) / prod over windows of Z'_e!,

    where W counts the words with window counts Z' and ec is the BEST count
    with distinguishable edges. Z/d has the support of Z, so balance and
    connectivity are checked once, on Z. Refused past
    seqcore.FACTORIAL_MAX_N.
    """
    check_factorial_n(z.n)
    g = subgraph_from_frequency(z)
    if not g.is_balanced():
        raise DomainError("frequency vector is not flow-balanced")
    if not g.is_connected():
        return 0
    counts = [c for _, c in z.items()]
    terms = []
    for d in divisors(math.gcd(*counts)):
        labelled = (z.n // d) * _best_count({e: m // d for e, m in g.edges.items()})
        orderings = math.prod(math.factorial(c // d) for c in counts)
        terms.append((euler_totient(d), labelled, orderings))
    return _burnside(z.n, terms)


def count_multi_debruijn(l: int, p: int, f: int) -> int:
    """Number of cyclic sequences of length f * l^p in which every p-window
    occurs exactly f times (f-fold de Bruijn sequences), exact:

        (1/(f l^p)) sum_{d | f} phi(d) ((f l/d)!)^(l^(p-1)) / ((f/d)!)^(l^p).

    BEST on G_l(p-1) with every edge f times over, whose arborescences number
    l^(l^(p-1) - p), then Burnside over rotations; Tesler, "Multi de Bruijn
    sequences" (J. Comb. 2017). Each summand is a power of the multinomial
    (f l/d)! / ((f/d)!)^l. Refused past seqcore.FACTORIAL_MAX_N.
    """
    if p < 1 or l < 2:
        raise DomainError("need p >= 1 and l >= 2")
    if f < 1:
        raise DomainError("need f >= 1")
    # n = f l^p; l >= 2, so l^p passes the cap once p reaches its bit length.
    check_factorial_n(f * l ** min(p, FACTORIAL_MAX_N.bit_length()))
    vertices = l ** (p - 1)
    terms = []
    for d in divisors(f):
        multinomial = math.factorial(f * l // d) // math.factorial(f // d) ** l
        terms.append((euler_totient(d), multinomial**vertices, 1))
    return _burnside(f * l**p, terms)


def count_debruijn_sequences(l: int, p: int) -> int:
    """(l!)^(l^(p-1)) / l^p, exact: the f = 1 case of count_multi_debruijn."""
    return count_multi_debruijn(l, p, 1)


def enumerate_sequences_with_frequency(z: FrequencyVector) -> list[CyclicSequence]:
    """All distinct cyclic sequences whose level-p window counts equal z,
    descending by index.

    Backtracking over the Eulerian circuits of the weighted multigraph
    that spells each member once, as its maximal rotation. Empty when the
    subgraph is disconnected. Refused past SEQUENCE_CAP or
    SEQUENCE_COUNT_CAP. The count checks balance and connectivity first: it
    raises DomainError for an unbalanced vector and is 0 only when A[Z] is
    disconnected, since a connected balanced graph has a circuit. The walk
    itself is an oracle for the count: a listing of any other length raises
    ArithmeticError.
    """
    n, l = z.n, z.l
    if n > SEQUENCE_CAP:
        raise ResourceCapError(f"n exceeds the enumeration cap {SEQUENCE_CAP}")
    count = count_sequences_with_frequency(z)
    if count > SEQUENCE_COUNT_CAP:
        raise ResourceCapError(f"{count} sequences exceed the cap {SEQUENCE_COUNT_CAP}")
    if not count:
        return []
    p, vsize = z.p, l ** (z.p - 1)
    # The unused out-edges of each vertex, as counts by letter, largest first.
    remaining: dict[int, dict[int, int]] = {}
    for e, c in reversed(z.items()):
        remaining.setdefault(e // l, {})[e % l] = c
    # A maximal rotation starts with its largest window, so every member's
    # is spelt from that window on, letters in descending order. A prefix is
    # kept while it passes the scan of seqcore._prenecklace, one letter at a
    # time: none may exceed word[i - per], per the period. The window begins
    # every member's maximal rotation, so it passes.
    start = z.items()[-1][0]
    remaining[start // l][start % l] -= 1
    word = list(index_word(start + 1, p, l))
    per = _prenecklace(word)[1]
    found: list[CyclicSequence] = []
    _walk(word, remaining, found, n + p - 1, n, l, vsize, start % vsize, per)
    if len(found) != count:
        raise ArithmeticError(f"{len(found)} members listed for a count of {count}")
    return found


def _walk(word, remaining, found, end, n, l, vsize, vertex, per) -> None:
    """The walk of enumerate_sequences_with_frequency from the prefix
    `word`, which ends at `vertex` and passes the prenecklace test with
    period `per`: each member spelt by a circuit through the edges left in
    `remaining` is appended to `found`. The next letter is tried among the
    letters of the vertex's own out-edges, largest first, so the letters
    the vector does not use cost nothing. It recurses by its module name,
    not as a closure over itself, so a listing leaves no reference cycle."""
    i = len(word)
    if i == end:
        # The closing letters have led back to the start vertex.
        if n % per == 0:
            found.append(CyclicSequence(tuple(word[:n]), l))
        return
    # Past n letters each step only closes the circuit.
    top = word[i - per] if i < n else word[i - n]
    edges = remaining[vertex]
    for a in edges if i < n else (top,):
        if a <= top and edges.get(a):
            edges[a] -= 1
            word.append(a)
            nxt = per if a == top else i + 1
            _walk(word, remaining, found, end, n, l, vsize, (vertex * l + a) % vsize, nxt)
            word.pop()
            edges[a] += 1


def contract_doubled_edges(z: FrequencyVector) -> Multigraph:
    """Minor of A[Z] obtained by contracting every weight-2 edge; weight-1
    edges kept.

    All window counts must lie in {0, 1, 2}. The counts are read window by
    window, since the parallel loops of G_l(0) share one graph edge. The
    result is suitable for count_eulerian_cycles (a weight-2 self-loop on a
    merged class vanishes).
    """
    windows = _windows(z)
    if any(w > 2 for _, _, w in windows):
        raise DomainError("contraction requires edge weights in {0, 1, 2}")
    parent, _ = _union_find(
        [(t, h) for t, h, w in windows if w == 2],
        {v for t, h, _ in windows for v in (t, h)},
    )
    minor = Multigraph(vertices={_find(parent, v) for v in parent})
    for t, h, w in windows:
        if w == 1:
            minor.add_edge(_find(parent, t), _find(parent, h), 1)
    return minor
