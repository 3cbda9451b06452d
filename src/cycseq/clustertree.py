"""Hierarchical cluster trees of cyclic sequences under p-closeness,
built by grouping the listed members of each letter composition, with
DOT/JSON/Newick export."""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import TextIO

from . import debruijn
from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector, index_word, word_index
from .lowering import _children

# Unused here, but bench/spans.py wraps these module attributes by name;
# they go with the next change to the benchmark.
from .lowering import count_members, lower  # noqa: F401
from .seqcore import level1_cluster_size  # noqa: F401
from .seqcore import necklace_count

# Largest n of build_tree per alphabet size l, else int(16 / log2(l)). At the
# cap (2-core Intel Xeon VM, Python 3.11, JSON written to a file) l = 2, 3, 4
# (n = 16, 9, 8) build in 0.15, 0.03, 0.12 s and export in 0.09, 0.03, 0.15 s,
# at a max RSS of 24, 18, 24 MB. l = 32 (n = 3) builds in 0.3 s at 27 MB,
# but its 32 MB of dense level-2 vectors still take 1.0 s to export. Past
# the cap, binary n = 18 and 20 take 0.55 + 0.3 s at 48 MB and 3.0 + 1.5 s
# at 142 MB, nearly all of it the tree itself. Every level-1 class the cap
# admits must be listable within SEQUENCE_CAP and SEQUENCE_COUNT_CAP.
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

    The root's children are the level-1 compositions, counted by
    level1_cluster_size. Below them each node's children are its members
    grouped by their level-(p+1) window counts (_split_members); refinement
    stops once a cluster is a singleton or max_p is reached. half_tree
    (l = 2 only) keeps the compositions with at most floor(n/2) ones, and
    its root count is their sum whatever max_p is. n past CAPS (_max_n)
    is refused.

    A letter map g in S_l maps the hierarchy onto itself: project(g(s), p)
    = g(project(s, p)) and g permutes the necklaces. Hence one level-1
    subtree per orbit of compositions is refined, and the others are its
    image with children re-sorted: the tree that lowering every node gives.
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

    root_freq = FrequencyVector(0, n, l, {0: n})
    root = ClusterNode(0, root_freq, necklace_count(n, l))
    # The root holds at least the l constant sequences, so it is refined
    # whenever max_p allows. A half tree's root count is the sum over its
    # level-1 children, so those are found whatever max_p is.
    if max_p > 0 or half_tree:
        root.children = [
            ClusterNode(1, z, count)
            for z, count in _children(root_freq, {})
            if not (half_tree and z.entry(1) > n // 2)
        ]
        total = sum(c.count for c in root.children)
        if half_tree:
            root.count = total
        elif total != root.count:
            raise ArithmeticError(f"partition violated at the root: {total} != {root.count}")
        if max_p <= 0:
            root.children = []
        images: dict = {}  # window-index images by (letter map, p)
        refined: dict = {}  # sorted composition -> its refined level-1 node
        for child in root.children:
            rep = refined.setdefault(tuple(sorted(child.freq.dense())), child)
            if rep is child:
                _split_members(child, max_p)
            else:
                letters = _letter_map(rep.freq.dense(), child.freq.dense())
                _mirror(rep, child, letters, images)
    return ClusterTree(n, l, root)


def _split_members(top: ClusterNode, max_p: int) -> None:
    """Refine the subtree of the level-1 node top down to singletons or
    level max_p from its members, which must number top.count.

    Each member keeps the indices of its windows, the one starting at i
    first; a level deeper, window w becomes w * l + s[i + p], so a node's
    children are the groups of its members with equal sorted indices.
    """
    if top.count <= 1 or top.p >= max_p:
        return
    members = debruijn.enumerate_sequences_with_frequency(top.freq)
    if len(members) != top.count:
        raise ArithmeticError(f"{len(members)} members listed for a class of {top.count}")
    n, l = top.freq.n, top.freq.l
    stack = [(top, [(s.symbols, s.symbols) for s in members])]
    while stack:
        node, group = stack.pop()
        p = node.p
        groups: dict = {}
        for s, windows in group:
            windows = [w * l + a for w, a in zip(windows, s[p:] + s[:p])]
            groups.setdefault(tuple(sorted(windows)), []).append((s, windows))
        kids = []
        for key, group in groups.items():
            counts: dict = {}
            for w in key:
                counts[w] = counts.get(w, 0) + 1
            kid = ClusterNode(p + 1, FrequencyVector(p + 1, n, l, counts), len(group))
            kids.append(kid)
            if len(group) > 1 and p + 1 < max_p:
                stack.append((kid, group))
        if len(kids) > 1:
            kids.sort(key=lambda c: c.freq.sort_key())
        node.children = kids


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


def _image(y: FrequencyVector, g: tuple, images: dict) -> FrequencyVector:
    """g(y) for the letter map g; window images are kept in `images` per
    (g, y.p)."""
    table = images.setdefault((g, y.p), {})
    counts = {}
    for j, c in y.items():
        k = table.get(j)
        if k is None:
            k = table[j] = word_index([g[a] for a in index_word(j + 1, y.p, y.l)], y.l) - 1
        counts[k] = c
    return FrequencyVector(y.p, y.n, y.l, counts)


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
