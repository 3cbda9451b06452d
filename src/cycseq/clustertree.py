"""Hierarchical cluster trees of cyclic sequences under p-closeness,
built by grouping the listed necklaces from the root, with DOT/JSON/Newick
export."""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import TextIO

from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector
from .lowering import STEP1_CAP

# Unused here, but bench/spans.py wraps these module attributes by name;
# they go with the next change to the benchmark.
from .lowering import count_members, lower  # noqa: F401
from .seqcore import _checked_necklaces, _letters, level1_cluster_size, necklace_count

# Largest n of build_tree per alphabet size l, else int(16 / log2(l)). At the
# cap (2-core Intel Xeon VM, Python 3.11, JSON written to a file) l = 2, 3, 4
# (n = 16, 9, 8) build in 0.14, 0.04, 0.13 s and export in 0.07, 0.02, 0.06 s,
# at a max RSS of 25, 19, 25 MB; l = 32 (n = 3) builds in 0.17 s and exports
# in 0.06 s at 26 MB. Past the cap, binary n = 18 and 20 take 0.6 + 0.15 s
# at 50 MB and 3.1 + 0.8 s at 152 MB, nearly all of it the tree itself.
# Every tree the cap admits lists its necklaces within
# seqcore.LIST_MAX_NECKLACES. Those with more than lowering.STEP1_CAP
# level-1 classes (n = 2 with l > 180, n = 1 with l > 16,384) are refused;
# the largest admitted, (1, 16384) and (2, 180), build in 0.15 and 0.23 s.
CAPS = {2: 16, 3: 9}


def _max_n(l: int) -> int:
    return CAPS.get(l, int(16 / math.log2(l)))


@dataclass(slots=True)
class ClusterNode:
    p: int
    freq: FrequencyVector
    count: int
    children: list["ClusterNode"] = field(default_factory=list)


@dataclass
class ClusterTree:
    n: int
    l: int
    root: ClusterNode


def build_tree(n: int, l: int, max_p: int | None = None, half_tree: bool = False) -> ClusterTree:
    """Cluster tree rooted at the level-0 vector [n].

    Every necklace of length n is listed once (seqcore's checked FKM
    listing) and the listing is grouped from the root down by
    _split_members: a node's children are its members grouped by their
    level-(p+1) window counts, so the root's children are the letter
    compositions, each counted as level1_cluster_size says. Refinement
    stops once a cluster is a singleton or max_p is reached. half_tree
    (l = 2 only) keeps the necklaces with at most floor(n/2) ones, and its
    root count is theirs whatever max_p is. n past CAPS (_max_n), and more
    level-1 classes than lowering.STEP1_CAP, are refused before any
    necklace is listed.
    """
    if l < 2:
        raise DomainError("alphabet size must be >= 2")
    max_n = _max_n(l)
    if n > max_n:
        raise ResourceCapError(f"n exceeds the cap {max_n} for this alphabet size")
    if half_tree and l != 2:
        raise DomainError("half_tree is defined for the binary alphabet only")
    if max_p is None:
        max_p = n

    root = ClusterNode(0, FrequencyVector(0, n, l, {0: n}), necklace_count(n, l))
    if math.comb(n + l - 1, l - 1) > STEP1_CAP:
        raise ResourceCapError(f"the tree would have more than {STEP1_CAP} level-1 classes")
    words = _checked_necklaces(n, l)
    if half_tree:
        words = [w for w in words if w.count("1") <= n // 2]
        root.count = len(words)
    # The root is split whenever max_p allows, even when it holds one
    # necklace (the half tree at n = 1).
    if max_p > 0:
        _split_members(root, words, max_p)
        for child in root.children:
            size = level1_cluster_size([c for _, c in child.freq.items()])
            if child.count != size:
                raise ArithmeticError(f"{child.count} necklaces listed for a class of {size}")
    return ClusterTree(n, l, root)


_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def _split_members(root: ClusterNode, words: list, max_p: int) -> None:
    """Refine the tree below root, whose members are the listed necklaces
    `words`, down to singletons or level max_p.

    Each member keeps its letters twice over, so that its rotation by p
    starts at p, and the indices of its windows, the one starting at i
    first: at level 0 all are 0; a level deeper, window w becomes
    w * l + s[i + p], so a node's children are the groups of its members
    with equal sorted indices. Of two such sorted tuples the larger is the
    vector with the smaller sort_key, so the children come in sort_key
    order when their tuples are taken in descending order.
    """
    n, l = root.freq.n, root.freq.l
    zeros = [0] * n
    if l <= 10:
        group = [((word + word).encode().translate(_FROM_DIGITS), zeros) for word in words]
    else:
        group = [(tuple(_letters(word + word)), zeros) for word in words]
    stack = [(root, group)]
    while stack:
        node, group = stack.pop()
        p = node.p
        groups: dict = {}
        for s, windows in group:
            windows = [w * l + a for w, a in zip(windows, s[p:])]
            groups.setdefault(tuple(sorted(windows)), []).append((s, windows))
        kids = []
        for key in sorted(groups, reverse=True):
            group = groups[key]
            counts: dict = {}
            for w in key:
                counts[w] = counts.get(w, 0) + 1
            kid = ClusterNode(p + 1, FrequencyVector(p + 1, n, l, counts), len(group))
            kids.append(kid)
            if len(group) > 1 and p + 1 < max_p:
                stack.append((kid, group))
        node.children = kids


def max_branching_level(tree: ClusterTree) -> int:
    """Deepest level p at which some cluster splits into >= 2 children."""
    best = -1
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if len(node.children) >= 2:
            best = max(best, node.p)
        stack.extend(node.children)
    return best


def predicted_max_branching_level(n: int) -> int:
    """floor((n - 3) / 2) + 1, the claimed maximal branching level."""
    return (n - 3) // 2 + 1


def _node_from_obj(obj: dict) -> ClusterNode:
    return ClusterNode(
        p=int(obj["p"]),
        freq=FrequencyVector.from_obj(obj["freq"]),
        count=int(obj["count"]),
        children=[_node_from_obj(c) for c in obj["children"]],
    )


def _push_children(stack: list, children: list, sep: str) -> None:
    """Push children onto stack, with sep between them, so that they pop
    in order."""
    for k in range(len(children) - 1, 0, -1):
        stack.append(children[k])
        stack.append(sep)
    if children:
        stack.append(children[0])


def _json_pieces(tree: ClusterTree):
    """The text of json.dumps({"n", "l", "root"}), each node the object
    {"p", "freq", "count", "children"} with its count as a string (so any
    size survives JSON), one piece per node or bracket."""
    yield f'{{"n": {tree.n}, "l": {tree.l}, "root": '
    stack: list = [tree.root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        yield (
            f'{{"p": {item.p}, "freq": {item.freq.to_json()}, '
            f'"count": "{item.count}", "children": ['
        )
        stack.append("]}")
        _push_children(stack, item.children, ", ")
    yield "}"


def _dot_pieces(tree: ClusterTree):
    """DOT with circle nodes labeled by member counts, numbered in
    preorder; the edge to a node follows its subtree."""
    yield "digraph clusters {\n  node [shape=circle];"
    ids = itertools.count()
    stack: list = [(tree.root, None)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        node, parent = item
        my_id = next(ids)
        yield f'\n  n{my_id} [label="{node.count}"];'
        if parent is not None:
            stack.append(f"\n  n{parent} -> n{my_id};")
        for c in reversed(node.children):
            stack.append((c, my_id))
    yield "\n}"


def _newick_pieces(tree: ClusterTree):
    """Newick text with unit branch length per level, labels = counts; the
    root carries no branch."""
    stack: list = [tree.root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
        elif not item.children:
            yield str(item.count)
        else:
            yield "("
            stack.append(f":1){item.count}")
            _push_children(stack, item.children, ":1,")
    yield ";"


_WRITERS = {"json": _json_pieces, "dot": _dot_pieces, "newick": _newick_pieces}


def export_tree(tree: ClusterTree, fmt: str, out: TextIO | None = None) -> str | None:
    """The tree as JSON, DOT or Newick text. With a text stream `out` the
    text is written to it node by node, so that neither the whole text
    nor a nested copy of the tree is held, and None is returned;
    otherwise the text is returned."""
    pieces = _WRITERS.get(fmt)
    if pieces is None:
        raise DomainError(f"unknown export format {fmt!r}")
    sink = io.StringIO() if out is None else out
    for piece in pieces(tree):
        sink.write(piece)
    return sink.getvalue() if out is None else None


def tree_to_json(tree: ClusterTree) -> str:
    return export_tree(tree, "json")


def tree_from_json(text: str) -> ClusterTree:
    obj = json.loads(text)
    return ClusterTree(int(obj["n"]), int(obj["l"]), _node_from_obj(obj["root"]))


def tree_to_dot(tree: ClusterTree) -> str:
    return export_tree(tree, "dot")


def tree_to_newick(tree: ClusterTree) -> str:
    return export_tree(tree, "newick")
