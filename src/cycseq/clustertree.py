"""Hierarchical cluster trees of cyclic sequences under p-closeness,
built by repeated lowering, with DOT/JSON/Newick export."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import DomainError, ResourceCapError
from .freqspace import FrequencyVector
from .lowering import _children

# Unused here, but bench/spans.py wraps these module attributes by name;
# they go with the next change to the benchmark.
from .lowering import count_members, lower  # noqa: F401
from .seqcore import level1_cluster_size  # noqa: F401
from .seqcore import necklace_count

DEFAULT_CAPS = {2: 16, 3: 9}


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


def build_tree(
    n: int,
    l: int,
    max_p: int | None = None,
    half_tree: bool = False,
    max_n: int | None = None,
) -> ClusterTree:
    """Cluster tree rooted at the level-0 vector [n].

    Children are produced by the lowering operator; refinement stops once a
    cluster is a singleton or max_p is reached. half_tree (l = 2 only) keeps
    the level-1 compositions with at most floor(n/2) ones.
    """
    if max_n is None:
        max_n = DEFAULT_CAPS.get(l, int(16 / math.log2(l)))
    if n > max_n:
        raise ResourceCapError(f"n = {n} exceeds the cap {max_n} for l = {l}")
    if half_tree and l != 2:
        raise DomainError("half_tree is defined for the binary alphabet only")
    if max_p is None:
        max_p = n

    # Block solutions of step 1, by margins; shared by every node's lowering.
    blocks: dict = {}

    def refine(node: ClusterNode):
        if node.count <= 1 or node.p >= max_p:
            return
        # The lowering pass counts each child as it makes it.
        node.children = [
            ClusterNode(z.p, z, count)
            for z, count in _children(node.freq, blocks)
            if not (half_tree and z.p == 1 and z.entry(1) > n // 2)
        ]
        for child in node.children:
            refine(child)
        if not (half_tree and node.p == 0):
            total = sum(c.count for c in node.children)
            if total != node.count:
                raise ArithmeticError(
                    f"partition violated at p={node.p}: {total} != {node.count}"
                )

    root_freq = FrequencyVector(0, n, l, {0: n})
    root = ClusterNode(0, root_freq, necklace_count(n, l))
    refine(root)
    if half_tree:
        root.count = sum(c.count for c in root.children)
    return ClusterTree(n, l, root)


def max_branching_level(tree: ClusterTree) -> int:
    """Deepest level p at which some cluster splits into >= 2 children."""
    best = -1

    def visit(node: ClusterNode):
        nonlocal best
        if len(node.children) >= 2:
            best = max(best, node.p)
        for c in node.children:
            visit(c)

    visit(tree.root)
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


def tree_to_dot(tree: ClusterTree) -> str:
    """DOT with circle nodes labeled by member counts."""
    lines = ["digraph clusters {", "  node [shape=circle];"]
    counter = [0]

    def visit(node: ClusterNode) -> int:
        my_id = counter[0]
        counter[0] += 1
        lines.append(f'  n{my_id} [label="{node.count}"];')
        for c in node.children:
            cid = visit(c)
            lines.append(f"  n{my_id} -> n{cid};")
        return my_id

    visit(tree.root)
    lines.append("}")
    return "\n".join(lines)


def tree_to_newick(tree: ClusterTree) -> str:
    """Newick text with unit branch length per level, labels = counts."""

    def visit(node: ClusterNode) -> str:
        if not node.children:
            return f"{node.count}:1"
        inner = ",".join(visit(c) for c in node.children)
        return f"({inner}){node.count}:1"

    # The root carries no branch.
    if not tree.root.children:
        return f"{tree.root.count};"
    inner = ",".join(visit(c) for c in tree.root.children)
    return f"({inner}){tree.root.count};"


def export_tree(tree: ClusterTree, fmt: str) -> str:
    if fmt == "json":
        return tree_to_json(tree)
    if fmt == "dot":
        return tree_to_dot(tree)
    if fmt == "newick":
        return tree_to_newick(tree)
    raise DomainError(f"unknown export format {fmt!r}")
