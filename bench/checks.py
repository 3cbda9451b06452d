"""Independent answer checks.

Nothing here imports `cycseq`: every expected value is recomputed with
small, direct code (Burnside sums, window counting by slicing, union-find),
so a bug in the code being timed cannot also hide in its check. Each
`check_*` function returns None for a correct answer, or a one-line reason.
"""

from __future__ import annotations

import json
import math
import re

# Binary two-fold counts. `twofold` gives the published generic-minor
# assembly; `count_twofold_exact` gives the per-configuration count that
# exhaustive enumeration confirms. TWOFOLD_ROWS holds the published per-k
# Phi and cofactor columns, k = 0 .. 2^(p-1).
TWOFOLD_COUNT = {3: 72, 4: 43768}
TWOFOLD_EXACT = {3: 82, 4: 52496}
TWOFOLD_ROWS = {
    3: ([2, 8, 11, 6, 1], [1, 1, 2, 4, 16]),
    4: ([16, 128, 380, 584, 519, 274, 84, 14, 1], [1, 1, 2, 4, 16, 48, 128, 448, 2048]),
}


# ----------------------------------------------------------- number theory
def totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def necklace_total(n: int, l: int) -> int:
    """Burnside: (1/n) * sum over d | n of phi(d) * l^(n/d)."""
    total = sum(totient(d) * l ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def composition_class_size(counts) -> int:
    """Necklaces with the given letter counts, by Burnside."""
    n = sum(counts)
    g = 0
    for a in counts:
        g = math.gcd(g, a)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            term = math.factorial(n // d)
            for a in counts:
                term //= math.factorial(a // d)
            total += totient(d) * term
    return total // n


def half_tree_total(n: int) -> int:
    """Binary necklaces with at most floor(n/2) ones."""
    return sum(composition_class_size((n - k, k)) for k in range(n // 2 + 1))


def euler_total(l: int, p: int) -> int:
    """Eulerian cycles of the full de Bruijn graph G_l(p): (l!)^(l^p) / l^(p+1)."""
    return math.factorial(l) ** (l**p) // l ** (p + 1)


# ------------------------------------------------------- frequency vectors
def window_counts(word, p: int, l: int) -> dict[int, int]:
    """Length-p cyclic window counts as {0-based base-l index: count}."""
    n = len(word)
    if p == 0:
        return {0: n}
    doubled = tuple(word) + tuple(word)
    counts: dict[int, int] = {}
    for i in range(n):
        v = 0
        for a in doubled[i:i + p]:
            v = v * l + a
        counts[v] = counts.get(v, 0) + 1
    return counts


def vector_obj(counts: dict[int, int], p: int, n: int, l: int) -> dict:
    """The CLI's frequency-vector JSON object: dense up to 4096 entries."""
    obj: dict = {"p": p, "n": n, "l": l}
    size = l**p
    if size <= 4096:
        obj["dense"] = [counts.get(j, 0) for j in range(size)]
    else:
        obj["sparse"] = {str(j + 1): c for j, c in sorted(counts.items())}
    return obj


def counts_of(obj: dict) -> tuple[int, int, int, dict[int, int]]:
    """(p, n, l, counts) of a frequency-vector JSON object."""
    p, n, l = obj["p"], obj["n"], obj["l"]
    if "dense" in obj:
        counts = {j: c for j, c in enumerate(obj["dense"]) if c}
    else:
        counts = {int(j) - 1: c for j, c in obj["sparse"].items() if c}
    return p, n, l, counts


def max_rotation(word: str) -> str:
    return max(word[k:] + word[:k] for k in range(len(word)))


def support_connected(counts: dict[int, int], p: int, l: int) -> bool:
    """Union-find over the edges of a level-p vector (tail = first p-1
    letters, head = last p-1 letters); True iff one component carries all
    edges. Level 1 is one vertex with loops, always connected."""
    if p <= 1:
        return bool(counts)
    vsize = l ** (p - 1)
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for e in counts:
        a, b = find(e // l), find(e % vsize)
        if a != b:
            parent[a] = b
    return len({find(v) for v in list(parent)}) == 1


# --------------------------------------------------------------- trees
def _parse_json_tree(text: str):
    obj = json.loads(text)

    def node(o):
        return int(o["count"]), [node(c) for c in o["children"]], o
    return node(obj["root"])


_NEWICK_TOKEN = re.compile(r"\(|\)|,|;|[0-9]+:1|[0-9]+")


def _parse_newick(text: str):
    tokens = _NEWICK_TOKEN.findall(text.strip())
    if "".join(tokens) != text.strip():
        raise ValueError("unexpected characters in Newick text")
    pos = 0

    def node():
        nonlocal pos
        children = []
        if tokens[pos] == "(":
            pos += 1
            children.append(node())
            while tokens[pos] == ",":
                pos += 1
                children.append(node())
            if tokens[pos] != ")":
                raise ValueError("unbalanced Newick text")
            pos += 1
        label = tokens[pos]
        pos += 1
        return int(label.split(":")[0]), children, None

    root = node()
    if tokens[pos:] != [";"]:
        raise ValueError("Newick text does not end after the root")
    return root


_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="(\d+)"\];$')
_DOT_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


def _parse_dot(text: str):
    labels: dict[int, int] = {}
    kids: dict[int, list[int]] = {}
    lines = text.strip().splitlines()
    if lines[0] != "digraph clusters {" or lines[-1] != "}":
        raise ValueError("not a clusters digraph")
    for line in lines[2:-1]:
        m = _DOT_NODE.match(line)
        if m:
            labels[int(m.group(1))] = int(m.group(2))
            continue
        m = _DOT_EDGE.match(line)
        if not m:
            raise ValueError(f"unexpected DOT line {line!r}")
        kids.setdefault(int(m.group(1)), []).append(int(m.group(2)))

    def node(i):
        return labels[i], [node(c) for c in kids.get(i, [])], None
    return node(0)


def check_tree(output: str, meta: dict) -> str | None:
    n, l, half, fmt = meta["n"], meta["l"], meta["half"], meta["fmt"]
    parse = {"json": _parse_json_tree, "newick": _parse_newick, "dot": _parse_dot}[fmt]
    try:
        root = parse(output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable {fmt} tree: {exc}"
    expected = half_tree_total(n) if half else necklace_total(n, l)
    if root[0] != expected:
        return f"root count {root[0]} != {expected}"
    leaves = 0
    stack = [(root, 0)]
    while stack:
        (count, children, obj), depth = stack.pop()
        if obj is not None and (obj["p"] != depth or obj["freq"]["n"] != n):
            return f"node at depth {depth} has p = {obj['p']}"
        if count < 1:
            return f"empty cluster at depth {depth}"
        if not children:
            leaves += count
        elif sum(c[0] for c in children) != count:
            return f"children of a cluster at depth {depth} do not partition it"
        stack.extend((c, depth + 1) for c in children)
    if leaves != expected:
        return f"leaf counts sum to {leaves}, not {expected}"
    return None


# ----------------------------------------------------------- counting
def check_twofold(output: str, meta: dict) -> str | None:
    p = meta["p"]
    obj = json.loads(output)
    if obj.get("p") != p or obj.get("count") != str(TWOFOLD_COUNT[p]):
        return f"two-fold count {obj.get('count')} != {TWOFOLD_COUNT[p]}"
    phis, cofs = TWOFOLD_ROWS[p]
    blocks = 2 ** (p - 1)
    want = [
        {"k": k, "perm_no": str(2 ** (blocks - k) * math.comb(blocks, k)),
         "phi": str(phis[k]), "cofactor": str(cofs[k])}
        for k in range(blocks + 1)
    ]
    if obj.get("table") != want:
        return "two-fold table rows differ from the published table"
    return None


def check_twofold_exact(output: str, meta: dict) -> str | None:
    want = TWOFOLD_EXACT[meta["p"]]
    return None if output == str(want) else f"count_twofold_exact = {output}, not {want}"


def check_euler(output: str, meta: dict) -> str | None:
    want = str(euler_total(meta["l"], meta["p"]))
    got = json.loads(output).get("count")
    return None if got == want else f"euler-count {got} != {want}"


def check_necklaces(output: str, meta: dict) -> str | None:
    n, l = meta["n"], meta["l"]
    obj = json.loads(output)
    want = necklace_total(n, l)
    seqs = obj.get("necklaces", [])
    if obj.get("count") != str(want) or len(seqs) != want:
        return f"{len(seqs)} necklaces listed, count {obj.get('count')}, Burnside {want}"
    letters = "".join(str(a) for a in range(l))
    for prev, cur in zip(seqs, seqs[1:]):
        if not prev > cur:
            return f"necklaces not strictly descending at {cur}"
    for s in seqs:
        if len(s) != n or s.strip(letters) or s != max_rotation(s):
            return f"{s} is not a canonical length-{n} necklace"
    return None


# -------------------------------------------------------------- queries
def check_project(output: str, meta: dict) -> str | None:
    word, p, l = meta["word"], meta["p"], meta["l"]
    want = vector_obj(window_counts(word, p, l), p, len(word), l)
    return None if json.loads(output) == want else "projection differs from recount"


def check_raise(output: str, meta: dict) -> str | None:
    word, p, l = meta["word"], meta["p"], meta["l"]
    counts: dict[int, int] = {}
    for j, c in window_counts(word, p, l).items():
        counts[j // l] = counts.get(j // l, 0) + c
    want = vector_obj(counts, p - 1, len(word), l)
    return None if json.loads(output) == want else "raised vector differs from block sums"


def check_distance(output: str, meta: dict) -> str | None:
    a, b, l = meta["word"], meta["other"], meta["l"]
    obj = json.loads(output)
    sa, sb = "".join(map(str, a)), "".join(map(str, b))
    if max_rotation(sa) == max_rotation(sb):
        return None if obj == {"gamma": None, "distance": 0.0} else "equal sequences need distance 0"
    gamma = max(p for p in range(len(a)) if window_counts(a, p, l) == window_counts(b, p, l))
    if obj.get("gamma") != gamma or not math.isclose(obj.get("distance"), math.exp(-gamma)):
        return f"gamma {obj.get('gamma')} != {gamma}"
    return None


def check_lower(output: str, meta: dict) -> str | None:
    word, p, l = meta["word"], meta["p"], meta["l"]
    n = len(word)
    y = window_counts(word, p, l)
    size = l**p
    seen = set()
    for cand in json.loads(output)["candidates"]:
        q, m, k, z = counts_of(cand)
        if (q, m, k) != (p + 1, n, l):
            return f"candidate at level {q}, not {p + 1}"
        right: dict[int, int] = {}
        left: dict[int, int] = {}
        for j, c in z.items():
            right[j // l] = right.get(j // l, 0) + c
            left[j % size] = left.get(j % size, 0) + c
        if right != y or left != y:
            return "a candidate does not block-sum back to the input"
        if not support_connected(z, p + 1, l):
            return "a candidate's subgraph is disconnected"
        seen.add(tuple(sorted(z.items())))
    own = tuple(sorted(window_counts(word, p + 1, l).items()))
    if own not in seen:
        return "the input word's own projection is missing"
    return None


def check_members(output: str, meta: dict) -> str | None:
    word, p, l = meta["word"], meta["p"], meta["l"]
    obj = json.loads(output)
    seqs = obj["sequences"]
    if obj["count"] != str(len(seqs)) or len(set(seqs)) != len(seqs):
        return f"count {obj['count']} does not match {len(seqs)} distinct entries"
    y = window_counts(word, p, l)
    for s in seqs:
        if s != max_rotation(s) or window_counts(tuple(map(int, s)), p, l) != y:
            return f"member {s} does not have the input's window counts"
    if max_rotation("".join(map(str, word))) not in seqs:
        return "the input word itself is missing from the members"
    return None


CHECKS = {
    "tree": check_tree,
    "twofold": check_twofold,
    "lib": check_twofold_exact,
    "euler": check_euler,
    "necklaces": check_necklaces,
    "project": check_project,
    "raise": check_raise,
    "distance": check_distance,
    "lower": check_lower,
    "members": check_members,
}


def check(kind: str, output: str, meta: dict) -> str | None:
    """Reason the answer is wrong, or None. Malformed output is wrong."""
    try:
        return CHECKS[kind](output, meta)
    except Exception as exc:  # any unreadable answer is a failed request
        return f"malformed {kind} output: {type(exc).__name__}: {exc}"
