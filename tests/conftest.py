"""Shared reference implementations used as oracles.

Everything here is deliberately naive: maximize over all rotations, count
windows by slicing, enumerate circuits by brute force. The production code
must agree with these on small inputs.
"""

from itertools import product

import pytest

from cycseq import CyclicSequence, FrequencyVector, full_graph


def naive_canonical(word):
    """Maximal rotation by trying all of them."""
    n = len(word)
    rots = [tuple(word[k:]) + tuple(word[:k]) for k in range(n)]
    return max(rots)


def naive_window_counts(word, p, l):
    """Length-p cyclic window counts of a raw (not canonical) word."""
    n = len(word)
    counts = {}
    for i in range(n):
        v = 0
        for k in range(p):
            v = v * l + word[(i + k) % n]
        counts[v] = counts.get(v, 0) + 1
    return counts


def naive_project(word, p, l):
    n = len(word)
    if p == 0:
        return FrequencyVector(0, n, l, {0: n})
    return FrequencyVector(p, n, l, naive_window_counts(word, p, l))


def all_necklaces(n, l):
    """Canonical representatives by filtering the full word space."""
    out = []
    for word in product(range(l), repeat=n):
        if naive_canonical(word) == word:
            out.append(CyclicSequence(word, l))
    return out


def full_adjacency(l, p):
    """Dense adjacency matrix of G_l(p), read from full_graph(l, p).edges."""
    size = l**p
    mat = [[0] * size for _ in range(size)]
    for (t, h), m in full_graph(l, p).edges.items():
        mat[t][h] = m
    return mat


def edge_ends(mat):
    """(tail, head) of every edge of an adjacency matrix, row by row. For
    G_2(p) that is the order of the edge words e: tail e >> 1, then head
    e mod 2^p ascending."""
    return [(t, h) for t, row in enumerate(mat) for h, m in enumerate(row) for _ in range(m)]


def naive_euler_circuits(edges):
    """Eulerian circuits of a directed multigraph, given as a list of
    (tail, head) pairs with repetition. Counts circuits up to rotation,
    treating parallel edges as distinguishable (the BEST-theorem convention):
    fixing list entry 0 as the first edge picks one representative per
    rotation class.
    """
    if not edges:
        return 0
    m = len(edges)
    total = 0
    used = [False] * m
    first_tail, first_head = edges[0]
    used[0] = True

    def walk(vertex, steps):
        nonlocal total
        if steps == m:
            if vertex == first_tail:
                total += 1
            return
        for i in range(1, m):
            if not used[i] and edges[i][0] == vertex:
                used[i] = True
                walk(edges[i][1], steps + 1)
                used[i] = False

    walk(first_head, 1)
    return total


@pytest.fixture(scope="session")
def binary_necklaces_upto_8():
    return {n: all_necklaces(n, 2) for n in range(1, 9)}
