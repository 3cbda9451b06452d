import gc
import math
import random
import time
from collections import Counter
from itertools import product

import pytest

from cycseq import (
    CyclicSequence,
    DomainError,
    FrequencyVector,
    Multigraph,
    ResourceCapError,
    build_tree,
    canonicalize,
    contract_doubled_edges,
    count_debruijn_sequences,
    count_eulerian_cycles,
    count_multi_debruijn,
    count_sequences_with_frequency,
    enumerate_sequences_with_frequency,
    full_graph,
    integer_determinant,
    lower,
    project,
    solve_step1,
    subgraph_from_frequency,
    subgraph_to_dot,
)
from cycseq import debruijn, seqcore
from cycseq.debruijn import BEST_MAX_BRANCHING, SEQUENCE_COUNT_CAP, _laplacian_cofactor

from conftest import all_necklaces, edge_ends, full_adjacency, naive_euler_circuits


def test_graph_shape():
    mat = full_adjacency(2, 3)
    assert len(mat) == 8
    assert len(edge_ends(mat)) == 16
    # edge word 1011: tail 101, head 011
    assert edge_ends(mat)[0b1011] == (0b101, 0b011)


def test_adjacency_row_sums():
    for l, p in ((2, 2), (3, 1), (2, 3)):
        mat = full_adjacency(l, p)
        assert all(sum(row) == l for row in mat)
        assert all(sum(col) == l for col in zip(*mat))


def test_line_graph_identity():
    # Edge adjacency of G_2(p) equals vertex adjacency of G_2(p+1).
    for p in range(0, 4):
        ends = edge_ends(full_adjacency(2, p))
        size = len(ends)
        edge_adj = [[0] * size for _ in range(size)]
        for e in range(size):
            _, h = ends[e]
            for f in range(size):
                t, _ = ends[f]
                if h == t:
                    edge_adj[e][f] = 1
        assert edge_adj == full_adjacency(2, p + 1)


def test_trace_relations():
    # Tr((Q*)^m) = l^m - 1 where Q* drops the first row and column.
    for l in (2, 3):
        for p in range(2, 5):
            mat = full_adjacency(l, p)
            size = l**p - 1
            q = [[mat[i + 1][j + 1] for j in range(size)] for i in range(size)]
            power = [row[:] for row in q]
            for m in range(1, p):
                tr = sum(power[i][i] for i in range(size))
                assert tr == l**m - 1, (l, p, m)
                power = [
                    [sum(power[i][k] * q[k][j] for k in range(size)) for j in range(size)]
                    for i in range(size)
                ]


def test_integer_determinant():
    assert integer_determinant([]) == 1
    assert integer_determinant([[7]]) == 7
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert integer_determinant([[1, 2], [2, 4]]) == 0


def test_integer_determinant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randrange(1, 8)
        m = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(k)]
        if k > 1 and rng.random() < 0.3:
            m[0][0] = 0  # forces a pivot search
        if k > 1 and rng.random() < 0.2:
            m[-1] = [2 * x for x in m[0]]  # singular
        assert integer_determinant(m) == sympy.Matrix(m).det()


def test_determinant_matches_float_reference():
    import random

    rng = random.Random(7)
    for _ in range(50):
        k = rng.randrange(1, 6)
        m = [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(k)]
        import numpy as np

        expected = round(float(np.linalg.det(np.array(m, dtype=float))))
        assert integer_determinant(m) == expected


def test_euler_counts_full_graphs():
    assert count_eulerian_cycles(full_graph(2, 1)) == 1
    assert count_eulerian_cycles(full_graph(2, 2)) == 2
    assert count_eulerian_cycles(full_graph(2, 3)) == 16
    assert count_eulerian_cycles(full_graph(3, 1)) == 24


def test_euler_count_matches_brute_force():
    cases = [
        full_graph(2, 1),
        full_graph(2, 2),
        subgraph_from_frequency(FrequencyVector(2, 6, 2, {0: 1, 1: 2, 2: 2, 3: 1})),
        subgraph_from_frequency(FrequencyVector(2, 8, 2, {0: 2, 1: 2, 2: 2, 3: 2})),
    ]
    for sub in cases:
        edges = []
        for (t, h), w in sorted(sub.edges.items()):
            edges.extend([(t, h)] * w)
        assert count_eulerian_cycles(sub) == naive_euler_circuits(edges)


def _chained_eulerian_edges(rng):
    """Edge list of a random balanced multigraph: closed walks through a few
    hub vertices, with a chain of fresh out-weight-1 vertices on each step."""
    while True:
        hubs = rng.randrange(1, 4)
        fresh = iter(range(hubs, 100))
        edges = []
        for _ in range(rng.randrange(1, 4)):
            walk = [rng.randrange(hubs) for _ in range(rng.randrange(1, 4))]
            for a, b in zip(walk, walk[1:] + walk[:1]):
                chain = [a, *(next(fresh) for _ in range(rng.randrange(0, 5))), b]
                edges.extend(zip(chain, chain[1:]))
        if len(edges) <= 14:
            return edges


def test_contracted_euler_count_matches_brute_force_on_chains():
    # count_eulerian_cycles contracts out-weight-1 vertices before the
    # determinant; circuits of the uncontracted graph are the reference
    rng = random.Random(3)
    checked = 0
    for _ in range(300):
        edges = _chained_eulerian_edges(rng)
        g = Multigraph(edges=Counter(edges))
        if not g.is_connected():
            continue
        assert count_eulerian_cycles(g) == naive_euler_circuits(edges), edges
        checked += 1
    assert checked > 100


def test_best_count_refuses_a_closed_chain():
    # the out-weight-1 cycle 5 -> 6 -> 5 hangs off the non-root branching
    # vertex 1 and holds no branching vertex to contract into; hung off the
    # root 0 instead, no row reads it
    with pytest.raises(ArithmeticError, match="closes on itself"):
        debruijn._best_count({(0, 1): 2, (1, 0): 1, (1, 5): 1, (5, 6): 1, (6, 5): 1})
    assert debruijn._best_count({(1, 0): 2, (0, 1): 1, (0, 5): 1, (5, 6): 1, (6, 5): 1}) == 2


def _random_balanced_edges(rng, hubs, chain, reach):
    """Edge multiplicities of a random balanced, strongly connected
    multigraph on hubs + chain vertices: one Hamiltonian cycle 0 -> 1 -> ...,
    and from every hub a closed walk through up to three more hubs (a
    self-loop when there are none), each at most `reach` places away along
    the hub order (anywhere when reach is None). The hubs are the branching
    vertices; the other `chain` vertices keep out-weight 1."""
    size = hubs + chain
    hub = sorted(rng.sample(range(size), hubs))
    edges = Counter(zip(range(size), [*range(1, size), 0]))
    for i, v in enumerate(hub):
        if reach is None:
            walk = [v, *rng.sample(hub, rng.randrange(0, 4))]
        else:
            steps = [rng.randrange(-reach, reach + 1) for _ in range(rng.randrange(0, 4))]
            walk = [v, *(hub[(i + d) % hubs] for d in steps)]
        edges.update(zip(walk, walk[1:] + walk[:1]))
    return dict(edges)


def _reduced_laplacian(edges):
    """Laplacian of a multigraph with the first vertex's row and column
    removed, as _laplacian_cofactor's sparse rows and as a dense matrix."""
    vertices = sorted({v for edge in edges for v in edge})
    root, idx = vertices[0], {v: i - 1 for i, v in enumerate(vertices)}
    rows = {v: {} for v in vertices[1:]}
    dense = [[0] * len(rows) for _ in rows]
    for (u, v), m in edges.items():
        if u == root or u == v:
            continue
        rows[u][u] = rows[u].get(u, 0) + m
        dense[idx[u]][idx[u]] += m
        if v != root:
            rows[u][v] = rows[u].get(v, 0) - m
            dense[idx[u]][idx[v]] -= m
    return rows, dense


def _dense_best_count(edges):
    """prod (d - 1)! times the Bareiss determinant of the dense Laplacian
    with the first vertex's row and column removed; no contraction."""
    out = Counter()
    for (u, _), m in edges.items():
        out[u] += m
    factorials = math.prod(math.factorial(d - 1) for d in out.values())
    return factorials * integer_determinant(_reduced_laplacian(edges)[1])


@pytest.mark.parametrize(
    "hubs, chain, reach", [(50, 30, None), (100, 0, None), (200, 50, 8), (400, 0, 4)]
)
def test_sparse_cofactor_matches_dense_bareiss(hubs, chain, reach):
    # the sparse Markowitz-order elimination against dense Bareiss on the
    # whole uncontracted Laplacian
    edges = _random_balanced_edges(random.Random(hubs), hubs, chain, reach)
    g = Multigraph(edges=edges)
    assert g.is_balanced() and g.is_connected()
    assert count_eulerian_cycles(g) == _dense_best_count(edges)


def test_sparse_cofactor_refuses_non_positive_pivots():
    # a matrix that is no reduced Laplacian: [[1, 2], [3, 4]] leaves the
    # pivot -2, [[0, -1], [0, 1]] starts on a zero diagonal, and rows 0 and
    # 1 of the last are twins on a zero diagonal
    with pytest.raises(ArithmeticError):
        _laplacian_cofactor({0: {0: 1, 1: 2}, 1: {0: 3, 1: 4}})
    with pytest.raises(ArithmeticError):
        _laplacian_cofactor({0: {1: -1}, 1: {1: 1}})
    with pytest.raises(ArithmeticError, match="twin"):
        _laplacian_cofactor({0: {2: -1}, 1: {2: -1}, 2: {2: 2}})


def _line_digraph(edges):
    """Edge multiplicities of the line digraph: one vertex per parallel
    edge, and an edge from each into every edge leaving its head."""
    arcs = [e for e, m in sorted(edges.items()) for _ in range(m)]
    return Counter(
        (i, j) for i, (_, head) in enumerate(arcs) for j, (tail, _) in enumerate(arcs) if head == tail
    )


def test_twin_merging_matches_dense_bareiss(monkeypatch):
    # vertices of a line digraph with the same head share their out-edges,
    # so its reduced Laplacian has twin rows; the random graphs have few
    merged = []
    merge_twins = debruijn._merge_twins

    def counted(rows, cols):
        size = len(rows)
        factor = merge_twins(rows, cols)
        merged.append(len(rows) < size)
        return factor

    monkeypatch.setattr(debruijn, "_merge_twins", counted)
    rng = random.Random(19)
    graphs = []
    for _ in range(400):
        edges = _random_balanced_edges(rng, rng.randrange(4, 8), rng.randrange(0, 6), None)
        graphs += [edges, _line_digraph(edges)]
    # G_2(5) holds the twins 01111 -> 11111, joined by an edge
    graphs.append(full_graph(2, 5).edges)
    for edges in graphs:
        rows, dense = _reduced_laplacian(edges)
        assert _laplacian_cofactor(rows) == integer_determinant(dense), edges
    assert sum(merged) > 300


@pytest.mark.parametrize(
    "l, p",
    [(2, p) for p in range(1, 9)]
    + [(3, p) for p in range(1, 6)]
    + [(4, p) for p in range(1, 5)]
    + [(5, 3), (6, 3), (8, 3), (16, 2), (22, 2)],
)
def test_euler_count_of_full_graph_is_debruijn_count(l, p):
    assert count_eulerian_cycles(full_graph(l, p)) == count_debruijn_sequences(l, p + 1)


def test_best_cap_admits_g2_9():
    # 512 branching vertices, the most the cap admits
    g = full_graph(2, 9)
    assert len(g.vertices) == BEST_MAX_BRANCHING
    assert count_eulerian_cycles(g) == count_debruijn_sequences(2, 10)


@pytest.mark.parametrize("l, p", [(2, 10), (10, 3)])
def test_best_cap_refuses_large_graphs_quickly(l, p):
    g = full_graph(l, p)
    uniform = FrequencyVector(p + 1, l ** (p + 1), l, {j: 1 for j in range(l ** (p + 1))})
    for count in (lambda: count_eulerian_cycles(g), lambda: count_sequences_with_frequency(uniform)):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError):
            count()
        assert time.perf_counter() - start < 0.5


def test_full_graph_refuses_too_many_windows_at_once():
    # 2^31 windows; the cap admits G_2(10) and G_10(3) above
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        full_graph(2, 30)
    assert time.perf_counter() - start < 0.5


def test_sequence_count_matches_enumeration_on_tree_nodes():
    # BEST + Burnside against listing the members, on every node below the
    # root of the binary n <= 12 and ternary n <= 7 cluster trees
    for l, max_n in ((2, 12), (3, 7)):
        for n in range(1, max_n + 1):
            stack = list(build_tree(n, l).root.children)
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                members = len(enumerate_sequences_with_frequency(node.freq))
                assert count_sequences_with_frequency(node.freq) == members, node.freq


def test_euler_count_rejects_bad_graphs():
    g = Multigraph()
    with pytest.raises(DomainError):
        count_eulerian_cycles(g)
    g.add_edge(0, 1)
    with pytest.raises(DomainError):
        count_eulerian_cycles(g)  # unbalanced
    g = Multigraph(edges={(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})
    with pytest.raises(DomainError):
        count_eulerian_cycles(g)  # balanced but disconnected


def test_debruijn_count_closed_form():
    assert count_debruijn_sequences(2, 2) == 1
    assert count_debruijn_sequences(2, 3) == 2
    assert count_debruijn_sequences(2, 4) == 16
    assert count_debruijn_sequences(3, 2) == 24
    for l, p in ((2, 2), (2, 3), (2, 4), (3, 2)):
        assert count_debruijn_sequences(l, p) == count_eulerian_cycles(
            full_graph(l, p - 1)
        )


def test_multi_debruijn_matches_the_uniform_vector_count():
    checked = 0
    for l in (2, 3, 4):
        for p in (1, 2, 3, 4):
            for f in (1, 2, 3, 4, 6):
                if f * l**p > 400:
                    continue
                z = FrequencyVector(p, f * l**p, l, {j: f for j in range(l**p)})
                assert count_multi_debruijn(l, p, f) == count_sequences_with_frequency(z), (l, p, f)
                checked += 1
    assert checked == 55


def test_multi_debruijn_refuses_bad_arguments():
    for l, p, f in ((1, 2, 1), (2, 0, 1), (2, 2, 0), (2, 2, -1)):
        with pytest.raises(DomainError):
            count_multi_debruijn(l, p, f)


def test_enumerate_debruijn_order3():
    z = FrequencyVector(3, 8, 2, {j: 1 for j in range(8)})
    seqs = enumerate_sequences_with_frequency(z)
    assert [str(s) for s in seqs] == ["11101000", "11100010"]


def _word_scan_fibers(n, l, p):
    """{level-p vector: its members, descending by index} by scanning every
    word of length n."""
    fibers = {}
    for s in reversed(all_necklaces(n, l)):
        fibers.setdefault(project(s, p), []).append(s)
    return fibers


def test_enumerate_agrees_with_word_scan():
    # every realized vector at every level reproduces its fiber, in order,
    # for binary n <= 12, ternary n <= 7 and quaternary n <= 5
    for l, max_n in ((2, 12), (3, 7), (4, 5)):
        for n in range(1, max_n + 1):
            for p in range(1, n + 1):
                for z, members in _word_scan_fibers(n, l, p).items():
                    assert enumerate_sequences_with_frequency(z) == members, z


def test_enumerate_calls_no_canonicalize(monkeypatch):
    # each member is spelt once as its maximal rotation: nothing is
    # canonicalized, so a canonicalize that raises changes nothing
    fibers = {**_word_scan_fibers(8, 2, 3), **_word_scan_fibers(6, 3, 2)}

    def refuse(*args):
        raise AssertionError("canonicalize called")

    monkeypatch.setattr(debruijn, "canonicalize", refuse)
    monkeypatch.setattr(seqcore, "canonicalize", refuse)
    for z, members in fibers.items():
        assert enumerate_sequences_with_frequency(z) == members, z


def test_enumerate_disconnected_gives_empty():
    # 00 twice and 11 twice: two separate self-loops
    z = FrequencyVector(2, 4, 2, {0: 2, 3: 2})
    assert enumerate_sequences_with_frequency(z) == []
    assert count_sequences_with_frequency(z) == 0


def test_enumerate_unbalanced_rejected():
    z = FrequencyVector(2, 3, 2, {1: 2, 2: 1})
    with pytest.raises(DomainError):
        enumerate_sequences_with_frequency(z)
    with pytest.raises(DomainError):
        count_sequences_with_frequency(z)
    assert lower(z) == solve_step1(z) == []


def test_enumerate_cap():
    z = FrequencyVector(1, 25, 2, {0: 25})
    with pytest.raises(ResourceCapError):
        enumerate_sequences_with_frequency(z)


def test_enumerate_count_cap():
    # ternary [7, 7, 6] has 6,651,216 members: refused from the count, before
    # any is listed
    z = FrequencyVector(1, 20, 3, {0: 7, 1: 7, 2: 6})
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        enumerate_sequences_with_frequency(z)
    assert time.perf_counter() - start < 0.5
    # binary [10, 10], the most members of any binary level-1 vector at
    # n = 20, stays under the cap
    assert count_sequences_with_frequency(FrequencyVector(1, 20, 2, {0: 10, 1: 10})) == 9252
    assert 9252 <= SEQUENCE_COUNT_CAP


def test_enumerate_count_cap_boundary(monkeypatch):
    # two members: listed at a cap of 2, refused at a cap of 1
    z = FrequencyVector(3, 8, 2, {j: 1 for j in range(8)})
    monkeypatch.setattr(debruijn, "SEQUENCE_COUNT_CAP", 2)
    assert len(enumerate_sequences_with_frequency(z)) == 2
    monkeypatch.setattr(debruijn, "SEQUENCE_COUNT_CAP", 1)
    with pytest.raises(ResourceCapError):
        enumerate_sequences_with_frequency(z)


def test_enumerate_checks_the_listing_against_the_count(monkeypatch):
    # binary [10, 10] has 9,252 members: a count one too high is caught
    z = FrequencyVector(1, 20, 2, {0: 10, 1: 10})
    true_count = count_sequences_with_frequency(z)
    monkeypatch.setattr(debruijn, "count_sequences_with_frequency", lambda z: true_count + 1)
    with pytest.raises(ArithmeticError, match="9252 members listed for a count of 9253"):
        enumerate_sequences_with_frequency(z)


def test_enumerate_steps_over_the_vertices_own_edges():
    # letters L - 1 and 0 once each over L = 10^12 letters: the walk tries
    # only the two letters of the vertex's out-edges, not every letter up
    # to L - 1
    L = 10**12
    z = FrequencyVector(1, 2, L, {0: 1, L - 1: 1})
    start = time.perf_counter()
    members = enumerate_sequences_with_frequency(z)
    assert time.perf_counter() - start < 1.0
    assert members == [CyclicSequence((L - 1, 0), L)]


def test_enumerate_leaves_no_cyclic_garbage():
    # the walk recurses by its module name: a walk that was a closure over
    # its own name made a reference cycle that held the whole listing until
    # the cyclic collector ran
    z = project(canonicalize([1, 1, 0, 1, 0, 0, 1, 0, 0, 0], 2), 3)
    enumerate_sequences_with_frequency(z)
    gc.collect()
    gc.disable()
    try:
        members = enumerate_sequences_with_frequency(z)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(members) == count_sequences_with_frequency(z) > 1


def test_contract_doubled_edges():
    # doubled 2-cycle contracts to a single vertex with no remaining edges
    z = FrequencyVector(2, 4, 2, {1: 2, 2: 2})
    minor = contract_doubled_edges(z)
    assert len(minor.vertices) == 1
    assert minor.edges == {}
    with pytest.raises(DomainError):
        contract_doubled_edges(FrequencyVector(2, 6, 2, {0: 3, 1: 1, 2: 1, 3: 1}))
    # G_2(0) has its two loops on one key (0, 0): the graph merges them into
    # weight 3, but contraction sees a weight-1 loop and a weight-2 loop.
    z = FrequencyVector(1, 3, 2, {0: 1, 1: 2})
    assert subgraph_from_frequency(z).edges == {(0, 0): 3}
    minor = contract_doubled_edges(z)
    assert minor.vertices == {0}
    assert minor.edges == {(0, 0): 1}


def test_to_dot_mentions_weights():
    text = subgraph_to_dot(FrequencyVector(2, 4, 2, {1: 2, 2: 2}))
    assert text == "\n".join([
        "digraph debruijn {",
        '  v0 [label="0"];',
        '  v1 [label="1"];',
        '  v0 -> v1 [label="2"];',
        '  v1 -> v0 [label="2"];',
        "}",
    ])


def _random_multigraphs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randrange(1, 6)
        g = Multigraph(vertices=range(rng.randrange(0, 3)))
        for _ in range(rng.randrange(0, 9)):
            g.add_edge(rng.randrange(size), rng.randrange(size), rng.randrange(0, 3))
        yield g


def test_connectivity_and_balance_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in _random_multigraphs(400, seed=11):
        ref = nx.MultiDiGraph()
        ref.add_nodes_from(g.vertices)
        for (u, v), m in g.edges.items():
            ref.add_edges_from([(u, v)] * m)
        # is_connected ignores isolated vertices; networkx does not.
        support = ref.subgraph([v for v in ref if ref.degree(v) > 0])
        assert g.is_connected() == (
            support.number_of_nodes() > 0 and nx.is_weakly_connected(support)
        )
        assert g.is_balanced() == all(
            ref.in_degree(v) == ref.out_degree(v) for v in ref
        )
