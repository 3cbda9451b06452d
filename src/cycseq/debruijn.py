"""De Bruijn graphs, weighted subgraphs induced by frequency vectors,
exact Eulerian-cycle counting (BEST theorem), and sequence enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, check_index_width, check_level, index_word
from .seqcore import CyclicSequence, _burnside, divisors, euler_totient

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

# Size cap of one BEST count: the branching vertices (out-weight >= 2) left
# after the out-weight-1 contraction, checked before the Laplacian is built.
# Measured in-process: G_2(9) (512 of them) 0.1 s, G_8(3) 1.8 s, G_22(2)
# 2.4 s; past the cap G_2(10) 0.6 s, G_10(3) 24 s. The cofactor's fill-in,
# not the vertex count, sets the cost: 512 hubs joined by random long
# cycles take 28 s.
BEST_MAX_BRANCHING = 512


@dataclass(frozen=True)
class DeBruijnGraph:
    """G_l(p): vertices are the l^p words of length p (0-based indices),
    edges the l^(p+1) words of length p+1."""

    l: int
    p: int

    def __post_init__(self):
        if self.l < 2 or self.p < 0:
            raise DomainError("need l >= 2 and p >= 0")

    @property
    def vertex_count(self) -> int:
        return self.l**self.p

    @property
    def edge_count(self) -> int:
        return self.l ** (self.p + 1)

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        """Tail = first p letters of the edge word, head = last p letters."""
        if not (0 <= edge < self.edge_count):
            raise DomainError(f"edge index {edge} out of range")
        return edge // self.l, edge % self.vertex_count

    def adjacency(self) -> list[list[int]]:
        """Dense adjacency matrix; test/reference use only (small p)."""
        size = self.vertex_count
        mat = [[0] * size for _ in range(size)]
        for e in range(self.edge_count):
            t, h = self.edge_endpoints(e)
            mat[t][h] += 1
        return mat


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
    """G_l(p) with unit weight on every edge."""
    base = DeBruijnGraph(l, p)
    g = Multigraph()
    for e in range(base.edge_count):
        g.add_edge(*base.edge_endpoints(e))
    return g


def subgraph_to_dot(z: FrequencyVector) -> str:
    """DOT text of A[Z]: vertex labels = words, edge labels = weights."""
    l, p = z.l, z.p - 1
    windows = _windows(z)

    def label(v: int) -> str:
        digits = []
        for _ in range(p):
            digits.append(str(v % l))
            v //= l
        return "".join(reversed(digits)) if digits else "()"

    lines = ["digraph debruijn {"]
    for v in sorted({v for t, h, _ in windows for v in (t, h)}):
        lines.append(f'  v{v} [label="{label(v)}"];')
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
    multiplicities: the half its out-weights fix (_best_frame) times the
    half its edges fix (_best_cofactor)."""
    out: dict = {}
    succ: dict = {}
    for (u, v), m in edges.items():
        out[u] = out.get(u, 0) + m
        succ[u] = v
    factor, branching = _best_frame(out)
    return factor * _best_cofactor(branching, succ, edges.items())


def _best_frame(out: dict) -> tuple[int, list]:
    """The half of a BEST count that the out-weights {vertex: weight} fix:
    the product of (weight - 1)! and the branching vertices (weight >= 2),
    sorted, so that the first is the root of the arborescences. More than
    BEST_MAX_BRANCHING of them raise ResourceCapError."""
    branching = sorted([v for v, d in out.items() if d > 1])
    if len(branching) > BEST_MAX_BRANCHING:
        raise ResourceCapError(
            f"{len(branching)} branching vertices exceed the BEST cap {BEST_MAX_BRANCHING}"
        )
    # Out-weight 1 contributes 0! = 1.
    factor = math.prod([math.factorial(out[v] - 1) for v in branching])
    return factor, branching


def _best_cofactor(branching: list, succ: dict, arcs: Iterable) -> int:
    """The half of a BEST count that the edges fix: the Laplacian cofactor
    over the branching vertices of _best_frame, rooted at the first.

    `succ` maps each out-weight-1 vertex to the head of its one out-edge;
    `arcs` gives ((tail, head), multiplicity) of every edge out of a
    branching vertex other than the root, and may give others, which are
    skipped. A vertex with out-weight 1 uses its one out-edge in every
    arborescence, so it is contracted into its successor. With at most one
    branching vertex the cofactor is empty, so 1.
    """
    if len(branching) < 2:
        return 1
    # Every chain of out-weight-1 vertices ends at a branching vertex, its
    # representative: a closed chain would be a whole component without one.
    rep = {v: v for v in branching}
    # The Laplacian with the row and column of the root removed, as sparse
    # rows; a self-loop on a representative cancels.
    root = branching[0]
    rows: dict = {v: {} for v in branching[1:]}
    for (u, v), m in arcs:
        row = rows.get(u)
        if row is None:
            continue
        r = rep.get(v)
        if r is None:
            path = []
            while v not in rep:
                path.append(v)
                rep[v] = None  # on the path: meeting it again closes a chain
                v = succ[v]
            r = rep[v]
            if r is None:
                raise ArithmeticError("a chain of out-weight-1 vertices closes on itself")
            for w in path:
                rep[w] = r
        if r != u:
            row[u] = row.get(u, 0) + m
            if r != root:
                row[r] = row.get(r, 0) - m
    return _laplacian_cofactor(rows)


def _laplacian_cofactor(rows: dict) -> int:
    """Determinant of a reduced Laplacian given as sparse rows
    {i: {j: entry}} with no zero entries; the rows are consumed.

    One vertex is eliminated at a time (a Schur complement), always on the
    diagonal, choosing the vertex of least Markowitz count
    (row nnz - 1)(column nnz - 1), the first in `rows` order on a tie. The
    matrix is a nonsingular M-matrix (a balanced connected graph is strongly
    connected), and Schur complements and positive row scalings keep it one,
    so every pivot is positive and no row exchange is needed.

    Each row r with a nonzero a in the pivot column v becomes
    s row_r - t row_v, with g = gcd(pivot, a), s = pivot / g, t = a / g. That
    scales the determinant by s, so det = (product of pivots) / (product of
    the s), divided out exactly at the end.
    """
    cols: dict = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    num = den = 1
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


def count_sequences_with_frequency(z: FrequencyVector) -> int:
    """Number of distinct cyclic sequences whose level-p window counts equal
    z; 0 when the subgraph A[Z] is disconnected.

    Burnside over rotations: the words fixed by a rotation of order d are
    d-th powers, whose window counts are Z/d, so with g the gcd of the counts

        N(Z) = (1/n) sum_{d | g} phi(d) W(Z/d),
        W(Z') = (n/d) ec(A[Z']) / prod over windows of Z'_e!,

    where W counts the words with window counts Z' and ec is the BEST count
    with distinguishable edges. Z/d has the support of Z, so balance and
    connectivity are checked once, on Z.
    """
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
    (f l/d)! / ((f/d)!)^l.
    """
    if p < 1 or l < 2:
        raise DomainError("need p >= 1 and l >= 2")
    if f < 1:
        raise DomainError("need f >= 1")
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
    SEQUENCE_COUNT_CAP; the listing does its own checks and is an oracle
    for the count.
    """
    n, l = z.n, z.l
    if n > SEQUENCE_CAP:
        raise ResourceCapError(f"n exceeds the enumeration cap {SEQUENCE_CAP}")
    g = subgraph_from_frequency(z)
    # Flow balance at each vertex is a precondition for realizability.
    if not g.is_balanced():
        raise DomainError("frequency vector is not flow-balanced")
    if not g.is_connected():
        return []
    count = count_sequences_with_frequency(z)
    if count > SEQUENCE_COUNT_CAP:
        raise ResourceCapError(f"{count} sequences exceed the cap {SEQUENCE_COUNT_CAP}")
    p, vsize = z.p, l ** (z.p - 1)
    remaining = dict(z.items())
    # A maximal rotation starts with its largest window, so every member's
    # is spelt from that window on, letters in descending order. A prefix is
    # kept while it passes the prenecklace test of seqcore._is_max_rotation,
    # one letter at a time: none may exceed word[i - per], per the period.
    # The window begins every member's maximal rotation, so it passes.
    start = max(remaining)
    remaining[start] -= 1
    word = list(index_word(start + 1, p, l))
    per = 1
    for i in range(1, p):
        per = per if word[i] == word[i - per] else i + 1
    found: list[CyclicSequence] = []

    def walk(vertex: int, per: int):
        i = len(word)
        if i == n + p - 1:
            # The closing letters have led back to the start vertex.
            if n % per == 0:
                found.append(CyclicSequence(tuple(word[:n]), l))
            return
        # Past n letters each step only closes the circuit.
        top = word[i - per] if i < n else word[i - n]
        for a in range(top, -1, -1) if i < n else (top,):
            e = vertex * l + a
            if remaining.get(e):
                remaining[e] -= 1
                word.append(a)
                walk(e % vsize, per if a == top else i + 1)
                word.pop()
                remaining[e] += 1

    walk(start % vsize, per)
    return found


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
