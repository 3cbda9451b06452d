"""Seeded request streams for the four benchmark workloads.

A workload is an endless sequence of rounds. Round r of a run with seed s is
built from its own random generator, seeded with (workload, s, r), so the
same seed always gives the same requests and any round can be rebuilt on
its own. Within a workload every round costs about the same on any seed:
the seed changes the order of requests and the random words of `queries`,
not the sizes of the large jobs.

Inputs are built by the benchmark's own code (`checks.window_counts`), never
by `cycseq`, so a change to the library cannot change what it is asked.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

from checks import vector_obj, window_counts


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    `argv` is passed to `cycseq.cli.main`, except for kind "lib", where it
    names a library call (there is no CLI entry for it). `meta` carries what
    the checker needs to recompute the answer independently.
    """

    kind: str
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False, hash=False)
    deadline_s: float = 60.0

    def key(self) -> tuple:
        return (self.kind, self.argv)


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


# --------------------------------------------------------------------- tree
# Every round builds each of these trees once: (n, l, half, export format).
# The format is fixed per shape, so that a round's cost and peak memory do
# not depend on the seed; each format serves a small, a middle and a large
# tree.
TREE_SHAPES = [
    (13, 2, False, "newick"),
    (14, 2, False, "dot"),
    (15, 2, False, "json"),
    (14, 2, True, "json"),
    (15, 2, True, "newick"),
    (16, 2, True, "dot"),
    (7, 3, False, "dot"),
    (8, 3, False, "json"),
    (9, 3, False, "newick"),
]


def _tree_request(n: int, l: int, half: bool, fmt: str) -> Request:
    argv = ["tree", "--n", str(n), "--alphabet", str(l), "--format", fmt]
    if half:
        argv.append("--half")
    return Request("tree", tuple(argv), {"n": n, "l": l, "half": half, "fmt": fmt}, 60.0)


def tree_round(seed: int, round_no: int) -> list[Request]:
    reqs = [_tree_request(*shape) for shape in TREE_SHAPES]
    _rng("tree", seed, round_no).shuffle(reqs)
    return reqs


def tree_warmup() -> list[Request]:
    return [_tree_request(8, 2, False, "json"), _tree_request(8, 2, True, "newick"),
            _tree_request(5, 3, False, "dot")]


# ----------------------------------------------------------------- counting
# `twofold --p 5` is left out on purpose: it runs for more than ten minutes,
# although its default cap admits it.
def _euler_request(l: int, p: int) -> Request:
    return Request("euler", ("euler-count", "--alphabet", str(l), "--p", str(p)),
                   {"l": l, "p": p}, 30.0)


def _twofold_table_request(p: int) -> Request:
    return Request("twofold", ("twofold", "--p", str(p), "--table"), {"p": p}, 30.0)


def _twofold_exact_request(p: int) -> Request:
    return Request("lib", ("count_twofold_exact", str(p)), {"p": p}, 30.0)


def counting_round(seed: int, round_no: int) -> list[Request]:
    reqs = [
        _twofold_table_request(4),
        _twofold_exact_request(4),
        _euler_request(2, 7),
        _euler_request(2, 8),
        _euler_request(3, 4),
    ]
    _rng("counting", seed, round_no).shuffle(reqs)
    return reqs


def counting_warmup() -> list[Request]:
    return [_twofold_table_request(3), _twofold_exact_request(3), _euler_request(2, 3)]


# ---------------------------------------------------------------- necklaces
NECKLACE_SHAPES = [(18, 2), (19, 2), (20, 2), (10, 3), (11, 3)]


def _necklace_request(n: int, l: int) -> Request:
    return Request("necklaces", ("necklaces", "--n", str(n), "--alphabet", str(l), "--list"),
                   {"n": n, "l": l}, 30.0)


def necklaces_round(seed: int, round_no: int) -> list[Request]:
    reqs = [_necklace_request(n, l) for n, l in NECKLACE_SHAPES]
    _rng("necklaces", seed, round_no).shuffle(reqs)
    return reqs


def necklaces_warmup() -> list[Request]:
    return [_necklace_request(8, 2), _necklace_request(5, 3)]


# ------------------------------------------------------------------ queries
QUERY_KINDS = ("project", "raise", "distance", "lower", "members")
QUERY_PER_KIND = 40  # requests of each kind in a round
QUERY_BINARY = 24  # of which binary; the rest are ternary
# Levels are chosen so that no single request takes more than ~50 ms on the
# seed code: ternary level-1 and level-2 `members` lists run to 10^4-10^6.
QUERY_LEVELS = {
    "project": {2: (1, 6), 3: (1, 6)},
    "raise": {2: (1, 6), 3: (1, 6)},
    "distance": {2: (0, 0), 3: (0, 0)},
    "lower": {2: (1, 6), 3: (3, 5)},
    "members": {2: (2, 7), 3: (3, 5)},
}


def _word_string(word) -> str:
    return "".join(str(a) for a in word)


def _vector_json(word, p: int, l: int) -> str:
    return json.dumps(vector_obj(window_counts(word, p, l), p, len(word), l))


def query_request(rng: random.Random, kind: str, l: int, p: int, n: int) -> Request:
    word = tuple(rng.randrange(l) for _ in range(n))
    meta = {"word": word, "l": l, "p": p}
    if kind == "project":
        argv = ("project", "--seq", _word_string(word), "--p", str(p), "--alphabet", str(l))
    elif kind == "distance":
        other = list(word)
        i, j = rng.sample(range(n), 2)
        other[i], other[j] = other[j], other[i]
        meta["other"] = tuple(other)
        argv = ("distance", "--a", _word_string(word), "--b", _word_string(other),
                "--alphabet", str(l))
    else:
        argv = (kind, "--vector", _vector_json(word, p, l))
    return Request(kind, argv, meta, 5.0)


def queries_round(seed: int, round_no: int) -> list[Request]:
    """Every round has the same mix of kinds, alphabets, levels and lengths;
    the seed draws the words and the order."""
    rng = _rng("queries", seed, round_no)
    reqs = []
    for kind in QUERY_KINDS:
        for j in range(QUERY_PER_KIND):
            l = 2 if j < QUERY_BINARY else 3
            lo, hi = QUERY_LEVELS[kind][l]
            reqs.append(query_request(rng, kind, l, lo + j % (hi - lo + 1), 12 + j % 7))
    rng.shuffle(reqs)
    return reqs


def queries_warmup() -> list[Request]:
    rng = random.Random("queries:warmup")
    return [query_request(rng, kind, 2, QUERY_LEVELS[kind][2][0], 12) for kind in QUERY_KINDS]


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[int, int], list[Request]]  # (seed, round number)
    warmup: Callable[[], list[Request]]
    trace_rounds: int  # rounds in each pass of a traced run


WORKLOADS = {
    "tree": Workload("tree", tree_round, tree_warmup, 1),
    "counting": Workload("counting", counting_round, counting_warmup, 4),
    "queries": Workload("queries", queries_round, queries_warmup, 16),
    "necklaces": Workload("necklaces", necklaces_round, necklaces_warmup, 1),
}
