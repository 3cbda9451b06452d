import hashlib
import json

import pytest

from cycseq import (
    DomainError,
    ResourceCapError,
    build_tree,
    count_sequences_with_frequency,
    export_tree,
    gamma_max,
    max_branching_level,
    necklace_count,
    predicted_max_branching_level,
    project,
    subgraph_from_frequency,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    tree_to_newick,
)

from cycseq.cli import main
from cycseq.debruijn import _count_from_edges
from cycseq.lowering import _children, lower

from conftest import all_necklaces


def leaves(node):
    if not node.children:
        return [node]
    out = []
    for c in node.children:
        out.extend(leaves(c))
    return out


def conservation_ok(node):
    if not node.children:
        return True
    total = sum(c.count for c in node.children)
    return total == node.count and all(conservation_ok(c) for c in node.children)


def test_root_counts_necklaces():
    for n in (3, 5, 7):
        tree = build_tree(n, 2)
        assert tree.root.count == necklace_count(n, 2)
        assert tree.root.p == 0


def test_leaves_are_singletons():
    tree = build_tree(7, 2)
    for leaf in leaves(tree.root):
        assert leaf.count == 1
    assert len(leaves(tree.root)) == necklace_count(7, 2)
    assert conservation_ok(tree.root)


def test_tree_matches_exhaustive_clustering():
    # at every level p the tree nodes are exactly the realized frequency
    # vectors, with member counts equal to the fiber sizes
    n = 7
    tree = build_tree(n, 2)
    necklaces = all_necklaces(n, 2)

    def collect(node, by_level):
        by_level.setdefault(node.p, {})[node.freq] = node.count
        for c in node.children:
            collect(c, by_level)

    by_level = {}
    collect(tree.root, by_level)
    deepest = max(by_level)
    for p in range(0, deepest + 1):
        fibers = {}
        for s in necklaces:
            y = project(s, p)
            fibers[y] = fibers.get(y, 0) + 1
        # nodes whose parent was already a singleton are not refined further,
        # so the tree may omit deep levels of settled branches
        for y, count in by_level[p].items():
            assert fibers[y] == count
        if p <= 1:
            assert by_level[p] == fibers


def test_ultrametric_consistency():
    # two sequences sit in the same node at level p iff gamma_max >= p
    n = 6
    tree = build_tree(n, 2)
    necklaces = all_necklaces(n, 2)

    def members(node):
        return {s for s in necklaces if project(s, node.p) == node.freq}

    def visit(node):
        mem = members(node)
        for a in mem:
            for b in mem:
                if a != b:
                    assert gamma_max(a, b) >= node.p
        for c in node.children:
            visit(c)

    visit(tree.root)


def test_half_tree_n11():
    tree = build_tree(11, 2, half_tree=True)
    assert tree.root.count == 94
    level1 = sorted(c.count for c in tree.root.children)
    assert level1 == [1, 1, 5, 15, 30, 42]
    assert conservation_ok(tree.root)
    assert all(leaf.count == 1 for leaf in leaves(tree.root))
    # deepest splitting cluster: two sequences with composition [8, 3] share
    # all 6-window counts, so branching reaches level 6
    assert max_branching_level(tree) == 6


def test_predicted_branching_level():
    # the floor((n-3)/2) + 1 estimate matches the observed branching depth
    # for n = 7 but undercounts by one from n = 11 on: the final two-way
    # split inside the [n-3, 3] cluster survives one level deeper
    assert predicted_max_branching_level(7) == 3
    assert predicted_max_branching_level(11) == 5
    assert predicted_max_branching_level(13) == 6
    observed = {}
    for n in (7, 11, 13):
        tree = build_tree(n, 2, half_tree=True)
        observed[n] = max_branching_level(tree)
    assert observed == {7: 3, 11: 6, 13: 7}


def test_max_p_truncates():
    tree = build_tree(8, 2, max_p=2)
    def deepest(node):
        if not node.children:
            return node.p
        return max(deepest(c) for c in node.children)
    assert deepest(tree.root) == 2


def test_caps_and_domain_errors():
    with pytest.raises(ResourceCapError):
        build_tree(17, 2)
    with pytest.raises(ResourceCapError):
        build_tree(10, 3)
    with pytest.raises(DomainError):
        build_tree(6, 3, half_tree=True)
    build_tree(18, 2, max_n=18, max_p=1)  # explicit override


def test_json_round_trip():
    tree = build_tree(6, 2)
    text = tree_to_json(tree)
    back = tree_from_json(text)
    assert back.n == 6 and back.l == 2
    assert tree_to_json(back) == text
    # counts serialize as strings so arbitrarily large values survive JSON
    obj = json.loads(text)
    assert isinstance(obj["root"]["count"], str)


def test_dot_and_newick():
    tree = build_tree(5, 2)
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph")
    assert 'label="8"' in dot  # the root holds all 8 necklaces
    newick = tree_to_newick(tree)
    assert newick.endswith(";")
    assert newick.count("(") == newick.count(")")
    assert export_tree(tree, "newick") == newick
    with pytest.raises(DomainError):
        export_tree(tree, "svg")


def _internal_nodes(node):
    if node.children:
        yield node
        for c in node.children:
            yield from _internal_nodes(c)


@pytest.mark.parametrize("n, l", [(14, 2), (8, 3)])
def test_shared_block_cache_gives_fresh_lower_children(n, l):
    # build_tree shares one block-solution memo across all its lowerings
    tree = build_tree(n, l)
    for node in _internal_nodes(tree.root):
        assert [c.freq for c in node.children] == lower(node.freq)


@pytest.mark.parametrize("l, max_n, half", [(2, 14, False), (2, 14, True), (3, 8, False)])
def test_children_edge_maps_and_counts(l, max_n, half):
    # every child of every internal node: the edge map built while lowering
    # is A[Z]'s, and the count taken from it is the primitive's and the tree's
    blocks = {}
    for n in range(2, max_n + 1):
        for node in _internal_nodes(build_tree(n, l, half_tree=half).root):
            pairs = _children(node.freq, blocks)
            assert [z for z, _ in pairs] == lower(node.freq)
            kids = {c.freq: c.count for c in node.children}
            for z, edges in pairs:
                assert edges == subgraph_from_frequency(z).edges
                count = _count_from_edges(z, edges)
                assert count == count_sequences_with_frequency(z) == kids.get(z, count), (n, z)


# sha256 of the stdout of `cycseq tree --n N --alphabet L --format F [--half]`,
# pinned so that a faster lowering or counting path cannot reorder or change
# a single node.
TREE_DIGESTS = [
    (13, 2, False, "newick", "8d7e99587fa3781674b38f681a489311f12a70b543a999eb3bd83b707366944a"),
    (14, 2, False, "dot", "ca68e400ca6ffb32d8566f2e15b9ebc72fb1371941eca26ea00995bd18d71a42"),
    (15, 2, False, "json", "8896e649f495e240163261411e09e39dcf0a7f150eefbe17e9c324f01d655eba"),
    (14, 2, True, "json", "b2a41d5d5e72205b0bb0731f8b1b65511bd607c302a0b2be68a55e98c2a4da2d"),
    (15, 2, True, "newick", "b684129d510b9435ab7fd39983688518b528d9013a0f2dd9aa84f0bdcc900d7c"),
    (16, 2, True, "dot", "89b02e90c791c9196513320b5fd1e5ca31184e7e0840496ff6ac406f143f1d64"),
    (7, 3, False, "dot", "ea65231aff2f79bbd3092414db2ab42db48dbee6d5310d482170845070976772"),
    (8, 3, False, "json", "d566ef206b8aadaf938e60316fbcdf99c67ce990f0083f039a1c0c66f037b7b2"),
    (9, 3, False, "newick", "96078931bf89fb2d57834ba1f4c8cde0dce68d57a19c4ccbc35658e9f0a719f0"),
    (12, 2, False, "json", "880fd74733bd6a6a3b929afc3868514c72244a5bb6ab1de0530362d5f7a4fd21"),
    (16, 2, False, "json", "97597ad677d5bf8760e15eda7488c721603b4286143fac3fcbdf20e52ce48902"),
]


@pytest.mark.parametrize(
    "n, l, half, fmt, digest",
    TREE_DIGESTS,
    ids=[f"{n}-{l}-{fmt}{'-half' * half}" for n, l, half, fmt, _ in TREE_DIGESTS],
)
def test_tree_output_is_pinned(capsys, n, l, half, fmt, digest):
    argv = ["tree", "--n", str(n), "--alphabet", str(l), "--format", fmt]
    assert main(argv + ["--half"] * half) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
