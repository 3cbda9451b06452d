"""De Bruijn graphs, weighted subgraphs induced by frequency vectors,
exact Eulerian-cycle counting (BEST theorem), and sequence enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector
from .seqcore import CyclicSequence, canonicalize, divisors, euler_totient

DEFAULT_SEQUENCE_CAP = 20

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


def _find(parent: dict, v):
    """Root of v's class; halves the path on the way up."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union_find(vertices: Iterable, pairs: Iterable[tuple]) -> dict:
    """Parent map over `vertices` with the two ends of every pair merged;
    a vertex is a class root exactly when it is its own parent."""
    parent = {v: v for v in vertices}
    for u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
    return parent


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
        out: dict = {}
        inc: dict = {}
        for (u, v), m in self.edges.items():
            out[u] = out.get(u, 0) + m
            inc[v] = inc.get(v, 0) + m
        return all(out.get(v, 0) == inc.get(v, 0) for v in self.vertices)

    def is_connected(self) -> bool:
        """Connectivity of the undirected support over vertices that carry
        at least one edge; an edgeless graph is not connected."""
        if not self.edges:
            return False
        parent = _union_find({v for edge in self.edges for v in edge}, self.edges)
        return sum(1 for v, r in parent.items() if v == r) == 1


# The old name of the type subgraph_from_frequency returns. Code that still
# names it, such as the span wrappers in bench/spans.py, keeps working.
WeightedSubgraph = Multigraph


def _windows(z: FrequencyVector) -> list[tuple[int, int, int]]:
    """(tail, head, count) of every window of z, as an edge of G_l(p-1)."""
    if z.p < 1:
        raise DomainError("need a frequency vector at level >= 1")
    l, vsize = z.l, z.l ** (z.p - 1)
    return [(e // l, e % vsize, w) for e, w in z.items()]


def subgraph_from_frequency(z: FrequencyVector) -> Multigraph:
    """Weighted subgraph A[Z] of G_l(p) induced by a level-(p+1) vector:
    edge weights are window counts. The l loops of G_l(0) share the key
    (0, 0), so their weights add up."""
    g = Multigraph()
    edges, vertices = g.edges, g.vertices
    for t, h, w in _windows(z):
        edges[(t, h)] = edges.get((t, h), 0) + w
        vertices.add(t)
        vertices.add(h)
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
    multiplicities.

    A vertex with out-weight 1 uses its one out-edge in every arborescence,
    so it is contracted into its successor, and the Laplacian cofactor is
    taken over the branching vertices (out-weight >= 2) only. A graph with no
    branching vertex is one cycle; its empty cofactor is 1.
    """
    out: dict = {}
    succ: dict = {}
    for (u, v), m in edges.items():
        out[u] = out.get(u, 0) + m
        succ[u] = v
    branching = sorted(v for v, d in out.items() if d >= 2)
    if len(branching) > BEST_MAX_BRANCHING:
        raise ResourceCapError(
            f"{len(branching)} branching vertices exceed the BEST cap {BEST_MAX_BRANCHING}"
        )
    result = 1
    for d in out.values():
        result *= math.factorial(d - 1)
    if not branching:
        return result
    # Every chain of out-weight-1 vertices ends at a branching vertex: a
    # closed chain would be a whole component without one.
    rep = {v: v for v in branching}

    def representative(v):
        path = []
        while v not in rep:
            path.append(v)
            v = succ[v]
        for u in path:
            rep[u] = rep[v]
        return rep[v]

    # The Laplacian with the row and column of the first branching vertex
    # removed, as sparse rows; a self-loop on a representative cancels.
    root = branching[0]
    rows: dict = {v: {} for v in branching[1:]}
    for (u, v), m in edges.items():
        row = rows.get(u)
        if row is None:
            continue
        r = representative(v)
        if r != u:
            row[u] = row.get(u, 0) + m
            if r != root:
                row[r] = row.get(r, 0) - m
    return result * _laplacian_cofactor(rows)


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


def _window_graph(
    windows: Iterable[tuple[int, int]],
    l: int,
    vsize: int,
    edges: dict | None = None,
) -> bool:
    """Whether A[Z] is connected, from the (window index, count) pairs of a
    level-(p+1) vector, by a union-find over the l^p vertex indices.

    In the same pass, when given, `edges` collects the edge multiplicities
    keyed by (tail, head).
    """
    parent: dict[int, int] = {}
    merges = 0
    for e, w in windows:
        t, h = e // l, e % vsize
        if edges is not None:
            edges[t, h] = edges.get((t, h), 0) + w
        parent.setdefault(t, t)
        parent.setdefault(h, h)
        rt, rh = _find(parent, t), _find(parent, h)
        if rt != rh:
            parent[rt] = rh
            merges += 1
    return len(parent) - merges == 1


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
    if z.p < 1:
        raise DomainError("need a frequency vector at level >= 1")
    edges: dict[tuple[int, int], int] = {}
    connected = _window_graph(z.items(), z.l, z.l ** (z.p - 1), edges)
    return _count_from_edges(z, edges, connected)


def _count_from_edges(z: FrequencyVector, edges: dict, connected: bool = True) -> int:
    """count_sequences_with_frequency(z) from the edge multiplicities of
    A[Z], keyed by (tail, head) as _window_graph collects them."""
    flow: dict[int, int] = {}
    for (t, h), m in edges.items():
        flow[t] = flow.get(t, 0) + m
        flow[h] = flow.get(h, 0) - m
    if any(flow.values()):
        raise DomainError("frequency vector is not flow-balanced")
    if not connected:
        return 0
    counts = [c for _, c in z.items()]
    total = 0
    for d in divisors(math.gcd(*counts)):
        labelled = (z.n // d) * _best_count({e: m // d for e, m in edges.items()})
        orderings = math.prod(math.factorial(c // d) for c in counts)
        words, rem = divmod(labelled, orderings)
        if rem:
            raise ArithmeticError(f"{labelled} labelled circuits do not split into words")
        total += euler_totient(d) * words
    necklaces, rem = divmod(total, z.n)
    if rem:
        raise ArithmeticError(f"Burnside sum {total} is not divisible by n = {z.n}")
    return necklaces


def count_debruijn_sequences(l: int, p: int) -> int:
    """(l!)^(l^(p-1)) / l^p, exact."""
    if p < 1 or l < 2:
        raise DomainError("need p >= 1 and l >= 2")
    num = math.factorial(l) ** (l ** (p - 1))
    assert num % l**p == 0
    return num // l**p


def enumerate_sequences_with_frequency(
    z: FrequencyVector, cap_n: int = DEFAULT_SEQUENCE_CAP
) -> list[CyclicSequence]:
    """All distinct cyclic sequences whose level-p window counts equal z.

    Exhaustive Eulerian-circuit backtracking on the weighted multigraph,
    with rotation dedup via canonicalization. Empty when the subgraph is
    disconnected.
    """
    g = subgraph_from_frequency(z)
    n, l = z.n, z.l
    if n > cap_n:
        raise ResourceCapError(f"n = {n} exceeds the enumeration cap {cap_n}")
    # Flow balance at each vertex is a precondition for realizability.
    if not g.is_balanced():
        raise DomainError("frequency vector is not flow-balanced")
    if not g.is_connected():
        return []
    vsize = l ** (z.p - 1)

    remaining = dict(z.items())
    start_edge = min(remaining)
    start_vertex = start_edge // l
    found: set[CyclicSequence] = set()
    letters: list[int] = []

    def walk(vertex: int, used: int):
        if used == n:
            if vertex == start_vertex:
                found.add(canonicalize(letters, l))
            return
        base = vertex * l
        for a in range(l):
            e = base + a
            w = remaining.get(e, 0)
            if w:
                remaining[e] = w - 1
                letters.append(a)
                walk(e % vsize, used + 1)
                letters.pop()
                remaining[e] = w

    # Fixing the first traversed edge collapses rotations of each circuit.
    remaining[start_edge] -= 1
    letters.append(start_edge % l)
    walk(start_edge % vsize, 1)
    return sorted(found, key=lambda s: s.index(), reverse=True)


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
    parent = _union_find(
        {v for t, h, _ in windows for v in (t, h)},
        [(t, h) for t, h, w in windows if w == 2],
    )
    minor = Multigraph(vertices={_find(parent, v) for v in parent})
    for t, h, w in windows:
        if w == 1:
            minor.add_edge(_find(parent, t), _find(parent, h), 1)
    return minor
