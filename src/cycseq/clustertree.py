"""Hierarchical cluster trees of cyclic sequences under p-closeness,
built by grouping the listed necklaces from the root, with DOT/JSON/Newick
export."""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field
from typing import TextIO

from .errors import DomainError, brief
from .freqspace import FrequencyVector, _as_int, _vector_json

# Unused here, but bench/spans.py wraps these module attributes by name;
# they go with the next change to the benchmark.
from .debruijn import count_sequences_with_frequency as count_members  # noqa: F401
from .lowering import lower  # noqa: F401
from .seqcore import _check_listable, _checked_necklaces, level1_cluster_size, necklace_count

# Most necklaces build_tree lists; a tree's cost follows necklace_count(n, l)
# times its depth. At the cap (2-core Intel Xeon VM, Python 3.11, JSON written
# to /dev/null, medians of five processes) the largest trees of l = 2, 3, 4, 5,
# at n = 19, 11, 9, 7 (27,596, 16,107, 29,144, 11,165 necklaces), build in
# 0.45, 0.20, 0.22, 0.07 s and export in 0.49, 0.26, 0.23, 0.11 s at a max RSS
# of 39, 26, 32, 21 MB; the widest, (3, 46), (2, 255) and (1, 32768), build in
# 0.34-0.44 s and export in 0.18-0.31 s at 33-38 MB. Past it binary n = 20
# (52,488) takes 1.0 + 1.4 s at 61 MB. It bounds the level-1 classes too: l
# at n = 1 and l(l + 1)/2 at n = 2 are the necklace counts, and at n >= 3
# there are fewer.
TREE_MAX_NECKLACES = 1 << 15


@dataclass(slots=True)
class ClusterNode:
    """A p-closeness class of `count` necklaces, held as the ascending
    level-p window indices its members share (n of them, all 0 at the
    root) over l letters."""

    p: int
    l: int
    windows: list[int]
    count: int
    children: list["ClusterNode"] = field(default_factory=list)

    @property
    def freq(self) -> FrequencyVector:
        """The class's level-p vector, built from the runs of its windows
        on each read."""
        return FrequencyVector(self.p, len(self.windows), self.l, _runs(self.windows))


def _runs(windows: list[int]) -> dict[int, int]:
    """The runs of the ascending windows, {index: length} in index order:
    the (index, count) pairs of their vector."""
    counts: dict = {}
    for w in windows:
        counts[w] = counts.get(w, 0) + 1
    return counts


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
    stops once a cluster is a singleton or max_p is reached; a negative
    max_p is a DomainError. Each node keeps its sorted windows, and its
    vector is built only when its freq is read. half_tree
    (l = 2 only) keeps the necklaces with at most floor(n/2) ones, and its
    root count is theirs whatever max_p is. More than TREE_MAX_NECKLACES
    necklaces are refused before any is listed.
    """
    _check_listable(n, l, TREE_MAX_NECKLACES)
    if half_tree and l != 2:
        raise DomainError("half_tree is defined for the binary alphabet only")
    if max_p is None:
        max_p = n
    elif max_p < 0:
        raise DomainError(f"max_p must be >= 0, not {brief(max_p)}")

    root = ClusterNode(0, l, [0] * n, necklace_count(n, l))
    words = _checked_necklaces(n, l)
    if half_tree:
        words = [w for w in words if w.count("1") <= n // 2]
        root.count = len(words)
    # The root is split whenever max_p allows, even when it holds one
    # necklace (the half tree at n = 1).
    if max_p > 0:
        _split_members(root, words, max_p)
        for child in root.children:
            size = level1_cluster_size(list(_runs(child.windows).values()))
            if child.count != size:
                raise ArithmeticError(f"{child.count} necklaces listed for a class of {size}")
    return ClusterTree(n, l, root)


def _split_members(root: ClusterNode, words: list, max_p: int) -> None:
    """Refine the tree below root, whose members are the listed necklaces
    `words`, down to singletons or level max_p.

    Each member is its sorted-rotation matrix M (the Burrows-Wheeler
    matrix): its n rotations, with letter a written as chr(a) (the
    listing writes chr(48 + a)), sorted and joined row by row into one
    string. Sorting the rotations sorts their length-p prefixes too, so
    the sorted level-p windows are the first p columns of M, row by row,
    and one level deeper the sorted window indices are
    [w * l + a for w, a in zip(W, M[p::n])], W being the sorted level-p
    indices and M[p::n] column p. The members of a node share W, so its
    children are the groups of its members with equal column p; the
    equal rows of a periodic necklace are interchangeable. Two columns
    compare as the sorted window lists they give, and of two such lists
    the larger is the vector with the smaller sort_key, so the children
    come in sort_key order when their columns are taken in descending
    order.
    """
    n, l = len(root.windows), root.l
    letters = {48 + a: a for a in range(l)}
    group = []
    for word in words:
        ww = (word + word).translate(letters)
        group.append("".join(sorted([ww[r:r + n] for r in range(n)])))
    stack = [(root, group)]
    while stack:
        node, group = stack.pop()
        p, parent_windows = node.p, node.windows
        groups: dict = {}
        for m in group:
            groups.setdefault(m[p::n], []).append(m)
        kids = []
        for column in sorted(groups, reverse=True):
            group = groups[column]
            # The rows of M are sorted, so these windows ascend, each in
            # [0, l^(p+1)).
            windows = [w * l + a for w, a in zip(parent_windows, map(ord, column))]
            kid = ClusterNode(p + 1, l, windows, len(group))
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


def _node_from_obj(obj, n: int, l: int, p: int) -> ClusterNode:
    """The node of obj, which sits at level p of a tree of necklaces of
    length n over l letters; its windows are expanded from its vector."""
    try:
        level, freq, count, children = obj["p"], obj["freq"], obj["count"], obj["children"]
    except (KeyError, TypeError):
        raise DomainError("a cluster node needs the fields p, freq, count and children") from None
    if not isinstance(children, list):
        raise DomainError("'children' must be a list of cluster nodes")
    level, z, count = _as_int(level), FrequencyVector.from_obj(freq), _as_int(count)
    if level != p:
        raise DomainError(f"a node at level {p} of the tree has p = {brief(level)}")
    if (z.p, z.n, z.l) != (p, n, l):
        raise DomainError(
            f"a node at level {p} of a tree with n = {n}, l = {l} holds a vector"
            f" with p = {brief(z.p)}, n = {brief(z.n)}, l = {brief(z.l)}"
        )
    if count < 0:
        raise DomainError(f"negative node count {brief(count)}")
    windows = [j for j, c in z.items() for _ in range(c)]
    kids = [_node_from_obj(c, n, l, p + 1) for c in children]
    return ClusterNode(p, l, windows, count, kids)


def _write_json(node: ClusterNode, write) -> None:
    """node as the object {"p", "freq", "count", "children"}, its count a
    string (so any size survives JSON), written node by node."""
    p, windows = node.p, node.windows
    freq = _vector_json(p, len(windows), node.l, _runs(windows).items())
    write(f'{{"p": {p}, "freq": {freq}, "count": "{node.count}", "children": [')
    sep = ""
    for child in node.children:
        write(sep)
        _write_json(child, write)
        sep = ", "
    write("]}")


def _write_dot(node: ClusterNode, parent: int | None, ids, write) -> None:
    """node and its subtree as DOT lines, numbered in preorder from ids;
    the edge from parent to node follows node's subtree."""
    my_id = next(ids)
    write(f'\n  n{my_id} [label="{node.count}"];')
    for child in node.children:
        _write_dot(child, my_id, ids, write)
    if parent is not None:
        write(f"\n  n{parent} -> n{my_id};")


def _write_newick(node: ClusterNode, write) -> None:
    """node's Newick subtree, unit branch length per level, labels =
    counts; node's own branch is left to its parent."""
    if not node.children:
        write(str(node.count))
        return
    sep = "("
    for child in node.children:
        write(sep)
        _write_newick(child, write)
        sep = ":1,"
    write(f":1){node.count}")


def export_tree(tree: ClusterTree, fmt: str, out: TextIO | None = None) -> str | None:
    """The tree as JSON, DOT or Newick text. With a text stream `out` the
    text is written to it node by node, so that neither the whole text
    nor a nested copy of the tree is held, and None is returned;
    otherwise the text is returned. The writers recurse by their module
    names, not as closures, so an export leaves no reference cycle; a
    listed tree is at most n + 1 <= 20 levels deep."""
    if fmt not in ("json", "dot", "newick"):
        raise DomainError(f"unknown export format {fmt!r}")
    sink = io.StringIO() if out is None else out
    write = sink.write
    if fmt == "json":
        write(f'{{"n": {tree.n}, "l": {tree.l}, "root": ')
        _write_json(tree.root, write)
        write("}")
    elif fmt == "dot":
        write("digraph clusters {\n  node [shape=circle];")
        _write_dot(tree.root, None, itertools.count(), write)
        write("\n}")
    else:
        _write_newick(tree.root, write)
        write(";")
    return sink.getvalue() if out is None else None


def tree_to_json(tree: ClusterTree) -> str:
    return export_tree(tree, "json")


def tree_from_json(text: str) -> ClusterTree:
    """The tree of a JSON export. Text that is not JSON, or not a tree of
    nodes with their fields, raises DomainError; so does a node whose p is
    not its depth, or whose vector is not of its level and of the tree's n
    and l, or whose count is negative. A tree of more necklaces than
    build_tree lists raises ResourceCapError before any node is read."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"tree text is not JSON: {exc}") from None
    try:
        n, l, root = obj["n"], obj["l"], obj["root"]
    except (KeyError, TypeError):
        raise DomainError("a cluster tree needs the fields n, l and root") from None
    n, l = _as_int(n), _as_int(l)
    _check_listable(n, l, TREE_MAX_NECKLACES)
    return ClusterTree(n, l, _node_from_obj(root, n, l, 0))


def tree_to_dot(tree: ClusterTree) -> str:
    return export_tree(tree, "dot")


def tree_to_newick(tree: ClusterTree) -> str:
    return export_tree(tree, "newick")
