import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import time
import tracemalloc
from itertools import permutations

import pytest

from cycseq import (
    DomainError,
    FrequencyVector,
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

from cycseq import clustertree, seqcore
from cycseq.cli import main
from cycseq.clustertree import _max_n
from cycseq.freqspace import index_word, word_index
from cycseq.lowering import STEP1_CAP, lower
from cycseq.seqcore import LIST_MAX_NECKLACES

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


def test_half_root_count_does_not_depend_on_max_p(capsys):
    # the half root count sums the level-1 compositions with at most n/2
    # ones, which max_p = 0 keeps off the tree but not out of the count
    for n in range(2, 15):
        full = build_tree(n, 2, half_tree=True).root
        for max_p in (0, -1):
            bare = build_tree(n, 2, half_tree=True, max_p=max_p).root
            assert (bare.count, bare.children) == (full.count, []), (n, max_p)
    assert main(["tree", "--n", "5", "--half", "--max-p", "0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["root"]["count"], obj["root"]["children"]) == ("4", [])
    # a negative cap keeps the level-1 children off the tree as well
    assert main(["tree", "--n", "5", "--half", "--max-p", "-1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["root"]["count"], obj["root"]["children"]) == ("4", [])


def test_caps_and_domain_errors():
    with pytest.raises(ResourceCapError):
        build_tree(17, 2)
    with pytest.raises(ResourceCapError):
        build_tree(10, 3)
    with pytest.raises(DomainError):
        build_tree(6, 3, half_tree=True)
    for l in (1, 0, -1):
        with pytest.raises(DomainError):
            build_tree(3, l)


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
def test_tree_children_are_the_vectors_lower_gives(n, l):
    # every internal node's children are the vectors lower gives, in order
    tree = build_tree(n, l)
    for node in _internal_nodes(tree.root):
        assert [c.freq for c in node.children] == lower(node.freq)


@pytest.mark.parametrize(
    "l, max_n, half",
    [(2, 14, False), (2, 14, True), (3, 8, False), (2, 16, True), (3, 9, False)],
)
def test_children_share_their_parents_invariants(l, max_n, half):
    # every child z of every internal node y: A[Z] has out-weight y_w at
    # each vertex w, gcd(z) divides gcd(y), and the count the tree took for
    # z is the primitive's, also where z's counts share a factor (periodic
    # children of periodic nodes, which some node of every shape has)
    periodic_children = 0
    for n in range(2, max_n + 1):
        for node in _internal_nodes(build_tree(n, l, half_tree=half).root):
            y = node.freq
            g = math.gcd(*(c for _, c in y.items()))
            for child in node.children:
                z = child.freq
                out = {}
                for (t, _), m in subgraph_from_frequency(z).edges.items():
                    out[t] = out.get(t, 0) + m
                assert out == dict(y.items()), (n, z)
                assert g % math.gcd(*(c for _, c in z.items())) == 0, (n, z)
                assert child.count == count_sequences_with_frequency(z), (n, z)
                periodic_children += y.p > 0 and math.gcd(*(c for _, c in z.items())) > 1
    assert periodic_children > 0


def _act(y, letters, reverse):
    """g(y) for g = (letter permutation, reversal or not), window by window
    through index_word / word_index."""
    if y.p == 0:
        return y
    counts = {}
    for j, c in y.items():
        word = [letters[a] for a in index_word(j + 1, y.p, y.l)]
        if reverse:
            word.reverse()
        counts[word_index(word, y.l) - 1] = c
    return FrequencyVector(y.p, y.n, y.l, counts)


def _counted_lower(y):
    """(z, count) for every z of lower(y), in that order, each counted by
    the definitional primitive."""
    return [(z, count_sequences_with_frequency(z)) for z in lower(y)]


def _group(l):
    return [(g, r) for g in permutations(range(l)) for r in (False, True)]


def test_children_are_equivariant_under_letter_maps_and_reversal():
    # lower(g(y)) = g(lower(y)) with equal counts, for g in S_l x {id, rev}:
    # a letter map or a reversal maps the hierarchy onto itself, checked at
    # every internal node of these trees
    cases = [(2, n, half) for n in range(2, 13) for half in (False, True)]
    cases += [(3, n, False) for n in range(2, 8)]
    nodes = set()
    for l, n, half in cases:
        nodes.update(node.freq for node in _internal_nodes(build_tree(n, l, half_tree=half).root))
    for y in nodes:
        pairs = _counted_lower(y)
        for letters, reverse in _group(y.l):
            image = sorted(
                ((_act(z, letters, reverse), count) for z, count in pairs),
                key=lambda pair: pair[0].sort_key(),
            )
            assert _counted_lower(_act(y, letters, reverse)) == image, (y, letters, reverse)


def _lowered_tree(n, l, max_p, half):
    """(freq, count, children) of the tree that lowers every node and
    counts every child with the counting primitive, with no use of
    symmetry."""

    def grow(y, count):
        kids = []
        if count > 1 and y.p < max_p:
            kids = [
                grow(z, k)
                for z, k in _counted_lower(y)
                if not (half and z.p == 1 and z.entry(1) > n // 2)
            ]
        return (y, count, kids)

    root = grow(FrequencyVector(0, n, l, {0: n}), necklace_count(n, l))
    if half:
        # the half root counts its level-1 classes whatever max_p is
        kept = [k for z, k in _counted_lower(root[0]) if z.entry(1) <= n // 2]
        root = (root[0], sum(kept), root[2])
    return root


@pytest.mark.parametrize("max_p", [None, 1, 2, 4, 0])
@pytest.mark.parametrize(
    "n, l, half",
    [(12, 2, False), (12, 2, True), (11, 2, True), (7, 3, False), (6, 3, False), (6, 4, False), (5, 5, False)]
    + [(n, 2, half) for n in (1, 2, 3) for half in (False, True)],
)
def test_build_tree_equals_the_tree_lowered_node_by_node(n, l, half, max_p):
    # the necklace listing grouped from the root gives the same nodes,
    # counts and child order as lowering every node; (6, 4) and (5, 5) take
    # the CAPS fallback, and the half tree at n = 1 has a root of one
    # necklace that is still split
    want = [_lowered_tree(n, l, n if max_p is None else max_p, half)]
    got = [build_tree(n, l, max_p=max_p, half_tree=half).root]
    while want:
        (y, count, kids), node = want.pop(), got.pop()
        assert (node.p, node.freq, node.count) == (y.p, y, count)
        assert len(node.children) == len(kids), y
        want.extend(kids)
        got.extend(node.children)


def _dropping_one(listing):
    """listing without its third word from the end: 10001000 at n = 8, 10100
    at n = 5, each in a class of more than one necklace that the half tree
    keeps."""

    def listed(n, l):
        words = list(listing(n, l))
        return words[:-3] + words[-2:]

    return listed


def test_build_tree_refuses_a_short_member_list(monkeypatch):
    # a listing that drops a necklace would give a wrong subtree whose counts
    # still add up: the listing's count check refuses it, and past that
    # check the Burnside size of each level-1 class
    cases = ((8, 2, False), (8, 2, True), (5, 3, False))
    with monkeypatch.context() as patch:
        patch.setattr(seqcore, "_necklace_letters", _dropping_one(seqcore._necklace_letters))
        for n, l, half in cases:
            with pytest.raises(DomainError, match="every necklace once"):
                build_tree(n, l, half_tree=half)
    monkeypatch.setattr(clustertree, "_checked_necklaces", _dropping_one(seqcore._checked_necklaces))
    for n, l, half in cases:
        with pytest.raises(ArithmeticError, match="class of"):
            build_tree(n, l, half_tree=half)


def test_caps_admit_only_listable_classes():
    # every tree within CAPS lists its necklaces within the listing cap, and
    # has at most STEP1_CAP level-1 classes but for the shapes build_tree
    # refuses for that: n = 2 with l = 181..256 and n = 1 with l =
    # 16,385..65,536, the last alphabet CAPS admits
    refused = set()
    l = 2
    while _max_n(l) >= 1:
        for n in range(1, _max_n(l) + 1):
            assert necklace_count(n, l) <= LIST_MAX_NECKLACES, (n, l)
            if math.comb(n + l - 1, l - 1) > STEP1_CAP:
                refused.add((n, l))
        l += 1
    assert l == 65537
    assert refused == {(2, l) for l in range(181, 257)} | {(1, l) for l in range(16385, 65537)}
    assert _max_n(2) == 16 and _max_n(3) == 9


def test_largest_level1_splits_build_quickly():
    # the admitted trees with the most level-1 classes, 16,384 and 16,290,
    # are built from their listings; one letter more is refused at once
    for n, l in ((1, 16384), (2, 180)):
        start = time.perf_counter()
        tree = build_tree(n, l)
        assert time.perf_counter() - start < 5.0, (n, l)
        assert len(tree.root.children) == math.comb(n + l - 1, l - 1)
        assert conservation_ok(tree.root)
    for n, l in ((1, 16385), (2, 181)):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="level-1 classes"):
            build_tree(n, l)
        assert time.perf_counter() - start < 1.0, (n, l)


def test_build_tree_leaves_no_cyclic_garbage():
    # the tree and its memos are freed by reference counting on return,
    # with no reference cycle left for the cyclic collector
    build_tree(5, 2)
    gc.collect()
    gc.disable()
    try:
        for n, l, half in ((14, 2, False), (14, 2, True), (8, 3, False)):
            build_tree(n, l, half_tree=half)
            assert gc.collect() == 0, (n, l, half)
        # nor do the readers of a tree
        tree = build_tree(14, 2)
        gc.collect()
        for read in (tree_to_dot, tree_to_newick, max_branching_level):
            read(tree)
            assert gc.collect() == 0, read.__name__
    finally:
        gc.enable()


def _old_node_obj(node):
    return {
        "p": node.p,
        "freq": node.freq.to_obj(),
        "count": str(node.count),
        "children": [_old_node_obj(c) for c in node.children],
    }


def _old_json(tree):
    """The JSON export as it was written before streaming: one json.dumps
    of the nested-object form."""
    return json.dumps({"n": tree.n, "l": tree.l, "root": _old_node_obj(tree.root)})


def _old_dot(tree):
    """The DOT export as a list of lines, numbered in preorder."""
    lines = ["digraph clusters {", "  node [shape=circle];"]
    ids = itertools.count()

    def visit(node):
        my_id = next(ids)
        lines.append(f'  n{my_id} [label="{node.count}"];')
        for c in node.children:
            lines.append(f"  n{my_id} -> n{visit(c)};")
        return my_id

    visit(tree.root)
    lines.append("}")
    return "\n".join(lines)


def _old_newick(tree):
    def text(node):
        if not node.children:
            return str(node.count)
        return "(" + ",".join(text(c) + ":1" for c in node.children) + f"){node.count}"

    return text(tree.root) + ";"


OLD_EXPORTS = {"json": _old_json, "dot": _old_dot, "newick": _old_newick}
ORACLE_TREES = [(n, 2, half) for n in range(1, 11) for half in (False, True)]
ORACLE_TREES += [(n, 3, False) for n in range(1, 7)]


@pytest.mark.parametrize("n, l, half", ORACLE_TREES)
def test_streamed_exports_equal_the_old_serializers(n, l, half):
    tree = build_tree(n, l, half_tree=half)
    for fmt, old in OLD_EXPORTS.items():
        want = old(tree)
        assert export_tree(tree, fmt) == want, fmt
        out = io.StringIO()
        assert export_tree(tree, fmt, out) is None
        assert out.getvalue() == want, fmt
    text = tree_to_json(tree)
    assert tree_from_json(text) == tree
    assert tree_to_json(tree_from_json(text)) == text


def test_tree_command_holds_little_beyond_the_tree():
    # the export streams node by node: past the tree itself, `tree --n 15
    # --format json` holds less than three times its text (the StringIO
    # that takes the text included), where the nested objects, the
    # encoder's chunks and the joined string used to take 7.5 MB
    main(["tree", "--n", "4"])  # imports and first-call set-up, untraced
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = build_tree(15, 2)
        tree_size = tracemalloc.get_traced_memory()[0] - base
        del tree
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["tree", "--n", "15", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    text = out.getvalue()
    assert peak - tree_size < 3 * len(text), (peak, tree_size, len(text))


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
