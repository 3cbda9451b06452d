"""Hierarchical cluster trees of cyclic sequences under p-closeness,
built by repeated lowering, with DOT/JSON/Newick export."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, index_word, word_index
from .lowering import _children

# Unused here, but bench/spans.py wraps these module attributes by name;
# they go with the next change to the benchmark.
from .lowering import count_members, lower  # noqa: F401
from .seqcore import level1_cluster_size  # noqa: F401
from .seqcore import necklace_count

# Largest n of build_tree per alphabet size l, else int(16 / log2(l)). At the
# cap (2-core Intel Xeon VM, Python 3.11) l = 2, 3, 4 (n = 16, 9, 8) build in
# at most 0.35, 0.07, 0.20 s; l = 32 (n = 3) in 0.37 s, plus 1.3 s of JSON.
CAPS = {2: 16, 3: 9}


@dataclass
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

    Children are produced by the lowering operator; refinement stops once a
    cluster is a singleton or max_p is reached. half_tree (l = 2 only) keeps
    the level-1 compositions with at most floor(n/2) ones, and its root
    count is their sum whatever max_p is. n past CAPS is refused.

    Relabelling the letters or reversing a sequence maps the hierarchy onto
    itself: for g in S_l x {id, reversal}, project(g(s), p) = g(project(s, p))
    and g is a bijection on necklaces, so lower(g(y)) = g(lower(y)) with
    equal counts. Hence only one level-1 subtree per orbit of compositions
    under letter permutations is refined; the others are its image. Within
    it, a node whose reversal was lowered already takes the reversed
    children. Children are re-sorted after either map, so the tree is the
    one that lowering every node gives.
    """
    if l < 2:
        raise DomainError("alphabet size must be >= 2")
    max_n = CAPS.get(l, int(16 / math.log2(l)))
    if n > max_n:
        raise ResourceCapError(f"n exceeds the cap {max_n} for this alphabet size")
    if half_tree and l != 2:
        raise DomainError("half_tree is defined for the binary alphabet only")
    if max_p is None:
        max_p = n

    root_freq = FrequencyVector(0, n, l, {0: n})
    root = ClusterNode(0, root_freq, necklace_count(n, l))
    # The root holds at least the l constant sequences, so it is refined
    # whenever max_p allows. A half tree's root count is the sum over its
    # level-1 children, so those are found whatever max_p is.
    if max_p > 0 or half_tree:
        # Block solutions of step 1, by margins; shared by every lowering.
        blocks: dict = {}
        # Lowered children by (p, items), until the reversal takes them.
        lowered: dict = {}
        # Window-index images by (g, p): g a letter map, or None for reversal.
        images: dict = {}
        root.children = [
            ClusterNode(1, z, count)
            for z, count in _children(root_freq, blocks)
            if not (half_tree and z.entry(1) > n // 2)
        ]
        if half_tree:
            root.count = sum(c.count for c in root.children)
        else:
            _check_partition(root)
        if max_p <= 0:
            root.children = []
        refined: dict = {}  # sorted composition -> its refined level-1 node
        for child in root.children:
            rep = refined.setdefault(tuple(sorted(child.freq.dense())), child)
            if rep is child:
                _refine(child, max_p, blocks, lowered, images)
            else:
                letters = _letter_map(rep.freq.dense(), child.freq.dense())
                _mirror(rep, child, letters, images)
    return ClusterTree(n, l, root)


def _check_partition(node: ClusterNode) -> None:
    total = sum(c.count for c in node.children)
    if total != node.count:
        raise ArithmeticError(
            f"partition violated at p={node.p}: {total} != {node.count}"
        )


def _refine(top: ClusterNode, max_p: int, blocks: dict, lowered: dict, images: dict) -> None:
    """Refine the subtree of top down to singletons or level max_p.

    A node's children are its reversal's, reversed, when that node was
    lowered before (its entry in `lowered` is taken then, since every
    vector occurs once in a tree); otherwise they come from _children.
    """
    stack = [top]
    while stack:
        node = stack.pop()
        if node.count <= 1 or node.p >= max_p:
            continue
        y = node.freq
        key = (y.p, y.items())
        mirror_key = (y.p, _image_items(y, None, images))
        pairs = lowered.pop(mirror_key, None)
        if pairs is None:
            pairs = _children(y, blocks)
            if mirror_key != key:
                lowered[key] = pairs
        else:
            pairs = [(_image(z, None, images), count) for z, count in pairs]
            if len(pairs) > 1:
                pairs.sort(key=lambda pair: pair[0].sort_key())
        node.children = [ClusterNode(z.p, z, count) for z, count in pairs]
        _check_partition(node)
        stack.extend(node.children)


def _mirror(src: ClusterNode, dst: ClusterNode, letters: tuple, images: dict) -> None:
    """Give dst the subtree of src mapped through the letter map `letters`
    (dst.freq is its image of src.freq), children re-sorted."""
    stack = [(src, dst)]
    while stack:
        a, b = stack.pop()
        kids = [ClusterNode(c.p, _image(c.freq, letters, images), c.count) for c in a.children]
        stack.extend(zip(a.children, kids))
        if len(kids) > 1:
            kids.sort(key=lambda c: c.freq.sort_key())
        b.children = kids


def _letter_map(source: list, target: list) -> tuple:
    """A letter permutation sigma with target[sigma[a]] = source[a]: it maps
    a sequence of composition `source` to one of composition `target`."""
    sigma = [0] * len(source)
    by_count = sorted(range(len(target)), key=target.__getitem__)
    for a, b in zip(sorted(range(len(source)), key=source.__getitem__), by_count):
        sigma[a] = b
    return tuple(sigma)


def _image_items(y: FrequencyVector, g: tuple | None, images: dict) -> tuple:
    """The items of g(y); window images are kept in `images` per (g, y.p)."""
    table = images.get((g, y.p))
    if table is None:
        table = images[g, y.p] = {}
    out = []
    for j, c in y.items():
        k = table.get(j)
        if k is None:
            w = index_word(j + 1, y.p, y.l)
            w = w[::-1] if g is None else [g[a] for a in w]
            k = table[j] = word_index(w, y.l) - 1
        out.append((k, c))
    out.sort()
    return tuple(out)


def _image(y: FrequencyVector, g: tuple | None, images: dict) -> FrequencyVector:
    return FrequencyVector(y.p, y.n, y.l, dict(_image_items(y, g, images)))


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


def _node_to_obj(node: ClusterNode) -> dict:
    return {
        "p": node.p,
        "freq": node.freq.to_obj(),
        "count": str(node.count),
        "children": [_node_to_obj(c) for c in node.children],
    }


def _node_from_obj(obj: dict) -> ClusterNode:
    return ClusterNode(
        p=int(obj["p"]),
        freq=FrequencyVector.from_obj(obj["freq"]),
        count=int(obj["count"]),
        children=[_node_from_obj(c) for c in obj["children"]],
    )


def tree_to_json(tree: ClusterTree) -> str:
    return json.dumps(
        {"n": tree.n, "l": tree.l, "root": _node_to_obj(tree.root)}
    )


def tree_from_json(text: str) -> ClusterTree:
    obj = json.loads(text)
    return ClusterTree(int(obj["n"]), int(obj["l"]), _node_from_obj(obj["root"]))


def _dot_lines(node: ClusterNode, lines: list, ids) -> int:
    """Append the DOT lines of node's subtree, numbered in preorder from
    the iterator `ids`; returns node's number."""
    my_id = next(ids)
    lines.append(f'  n{my_id} [label="{node.count}"];')
    for c in node.children:
        cid = _dot_lines(c, lines, ids)
        lines.append(f"  n{my_id} -> n{cid};")
    return my_id


def tree_to_dot(tree: ClusterTree) -> str:
    """DOT with circle nodes labeled by member counts."""
    lines = ["digraph clusters {", "  node [shape=circle];"]
    _dot_lines(tree.root, lines, itertools.count())
    lines.append("}")
    return "\n".join(lines)


def _newick(node: ClusterNode) -> str:
    """Newick text of node's subtree, without its branch length."""
    if not node.children:
        return str(node.count)
    inner = ",".join(_newick(c) + ":1" for c in node.children)
    return f"({inner}){node.count}"


def tree_to_newick(tree: ClusterTree) -> str:
    """Newick text with unit branch length per level, labels = counts; the
    root carries no branch."""
    return _newick(tree.root) + ";"


def export_tree(tree: ClusterTree, fmt: str) -> str:
    if fmt == "json":
        return tree_to_json(tree)
    if fmt == "dot":
        return tree_to_dot(tree)
    if fmt == "newick":
        return tree_to_newick(tree)
    raise DomainError(f"unknown export format {fmt!r}")
