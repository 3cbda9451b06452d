"""Layer timings of the exact counting primitives, stdlib only.

Each case is timed with time.perf_counter over five runs and reported as
the median in seconds:

- count_eulerian_cycles(full_graph(l, p)) at (l, p) = (2, 7), (2, 8),
  (2, 9), (3, 4), (3, 5), (8, 3) and (16, 2): one BEST count, whose cost is
  the Laplacian cofactor;
- count_sequences_with_frequency over every node of the binary n = 16 half
  tree (levels p >= 1): thousands of small BEST + Burnside counts;
- count_sequences_with_frequency on the level-12 vectors of three random
  binary words of 1,000 letters (random.Random(5)): about 760 vertices each,
  about 190 of them branching, so the out-weight-1 contraction and the
  cofactor of a graph with few twins;
- build_tree(16, 2), build_tree(16, 2, half_tree=True),
  build_tree(2, 180), a tree of 16,290 level-1 classes, and
  build_tree(3, 32), whose necklaces (10,944) are written in letters past
  the ten digits: the checked necklace listing grouped from the root by
  the columns of each necklace's sorted-rotation matrix, as the tree
  command runs it;
- build_tree(16, 2) with every node's freq read once: a node holds its
  sorted windows and builds its vector on each read, so this row is the
  build plus what a library caller pays for reading every vector;
- build_tree(1, 32768) and its JSON export: 32,768 level-1 classes, one
  per letter, whose level-1 check and JSON text read the runs of each
  child's windows;
- twofold_table(4) and twofold_table(5): the per-k Phi, PermNo and
  cofactor rows that `twofold --p 4 --table` and `--p 5 --table` print.
  The cache of the Phi row (twofold._phi_row) is cleared before every
  run, outside the timed region, so the Phi computation is timed and not
  a cache lookup;
- count_twofold_exact(8): one BEST + Burnside count on the doubled
  graph G_2(8);
- count_twofold_exact(4), 200 calls: the workload request with the
  smallest cofactors, two matrices of 5 rows after twin merging.
- enumerate_necklaces(20, 2): FKM generation with a checked CyclicSequence
  per necklace, as the library lists them;
- necklace_strings(11, 3) and necklace_strings(20, 2), the largest shape
  of the benchmark's `necklaces` workload: FKM generation straight to the
  strings that `necklaces --list` prints, the whole listing checked at
  once;
- necklace_strings(24, 2) and necklace_strings(15, 3), the largest digit
  listings LIST_MAX_NECKLACES admits, and necklace_strings(2, 1447), the
  largest at n = 2, in the comma form: at n = 2 the listing reuses no
  suffix completions, and each word is checked and converted on its own;
- enumerate_sequences_with_frequency on binary [10, 10] (9,252 members)
  and ternary [15, 3, 2] (7,752 members): the member listing of
  `members`, at the largest lists that SEQUENCE_COUNT_CAP admits;
- build_tree and export_tree over the nine TREE_SHAPES of the benchmark's
  `tree` workload (bench/workloads.py), each in its export format: one
  round of that workload without the CLI around it;
- lower over the internal nodes of build_tree(12, 2) and build_tree(7, 3),
  and lower on ternary [16, 16, 16] (11,781 step-1 candidates): the public
  lowering that `lower` runs, which the trees do not call;
- lower of one 50 x 50 block, the letters 97 * a for a < 50 once each over
  10^4 letters: its ResourceCapError at STEP1_CAP, caught inside the timed
  call, so the row times how fast a wide alphabet is refused.

For the counting and lowering cases the trees are built once, outside the
timed region.

One more row per TREE_SHAPES request is not a time but the tracemalloc
peak, in MB (2^20 bytes), of one `cycseq.cli.main` call on it, with stdout
in a StringIO: the tree, the text written and whatever the export holds
besides. Unlike the timings, these peaks repeat from process to process
to within a few kB.

Only public entry points are called, besides clearing the Phi cache, so
the script runs on any version of the package that has them.

Usage:

  python3 scripts/bench_layers.py [--src DIR]
  python3 scripts/bench_layers.py --parent DIR [--src DIR]

`--src` names the directory the `cycseq` package is imported from (default:
this checkout's `src`); `--parent` names one too, such as another
checkout's `src`. A directory that holds no `cycseq/__init__.py` is
refused before any case runs. The first form times that one package in one
process. Timings of two versions taken one after the other differ by the
drift of the machine between the runs, so it is no comparison.

The second form compares two versions of the package. Each case runs in
PROCS = 5 fresh processes per side, the `--parent` and `--src` sides
alternating and taking turns to go first, so that drift of the machine over
the run reaches both sides alike. Each process reports its median of five
calls; the document holds, per case, the median of those five values for
each side and their ratio. The k-th parent process and the k-th change
process run one right after the other, so each such pair gives a ratio of
its own: the document holds the smallest and largest of these next to the
ratio of the medians, and marks a row whose pairs straddle 1 (some pair
reads the change faster, another slower), a row the run does not resolve.
The per-process values are listed in the order they ran, pair k at
index k.

Both forms print one JSON document to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import TREE_SHAPES  # noqa: E402

EULER_CASES = [(2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (8, 3), (16, 2)]
TREE_CASES = [(16, 2, False), (16, 2, True), (2, 180, False), (3, 32, False)]
LOWER_TREES = [(12, 2), (7, 3)]
RUNS = 5
PROCS = 5


def _median_s(fn, before=None) -> float:
    """Median of RUNS timed calls of fn; `before`, when given, runs ahead of
    each call, outside the timed region."""
    times = []
    for _ in range(RUNS):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _tree_nodes(n: int, l: int, half_tree: bool = False) -> list:
    from cycseq.clustertree import build_tree

    stack, out = [build_tree(n, l, half_tree=half_tree).root], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def _euler(l: int, p: int):
    from cycseq.debruijn import count_eulerian_cycles, full_graph

    g = full_graph(l, p)
    return f"count_eulerian_cycles(full_graph({l}, {p}))", lambda: count_eulerian_cycles(g), None


def _counting():
    from cycseq.debruijn import count_sequences_with_frequency

    vectors = [node.freq for node in _tree_nodes(16, 2, half_tree=True) if node.p >= 1]
    name = f"count_sequences_with_frequency x {len(vectors)} (build_tree(16, 2, half_tree=True))"
    return name, lambda: [count_sequences_with_frequency(z) for z in vectors], None


def _counting_words():
    from cycseq.debruijn import count_sequences_with_frequency
    from cycseq.freqspace import project
    from cycseq.seqcore import canonicalize

    rng = random.Random(5)
    words = [[rng.randrange(2) for _ in range(1000)] for _ in range(3)]
    vectors = [project(canonicalize(word, 2), 12) for word in words]
    name = "count_sequences_with_frequency x 3 (level 12 of random binary words of 1,000 letters)"
    return name, lambda: [count_sequences_with_frequency(z) for z in vectors], None


def _tree(n: int, l: int, half: bool):
    from cycseq.clustertree import build_tree

    name = f"build_tree({n}, {l}{', half_tree=True' if half else ''})"
    return name, lambda: build_tree(n, l, half_tree=half), None


def _tree_vectors():
    name = "build_tree(16, 2) and every node's freq"
    return name, lambda: [node.freq for node in _tree_nodes(16, 2)], None


def _wide_tree_json():
    from cycseq.clustertree import build_tree, export_tree

    name = "build_tree(1, 32768) and export_tree json"
    return name, lambda: export_tree(build_tree(1, 32768), "json"), None


def _twofold_table(p: int):
    from cycseq import twofold

    return f"twofold_table({p})", lambda: twofold.twofold_table(p), twofold._phi_row.cache_clear


def _twofold_exact(p: int, calls: int = 1):
    from cycseq.twofold import count_twofold_exact

    name = f"count_twofold_exact({p})" + (f" x {calls}" if calls > 1 else "")
    return name, lambda: [count_twofold_exact(p) for _ in range(calls)], None


def _necklaces():
    from cycseq.seqcore import enumerate_necklaces

    return "enumerate_necklaces(20, 2)", lambda: enumerate_necklaces(20, 2), None


def _necklace_strings(n: int, l: int):
    from cycseq.seqcore import necklace_strings

    return f"necklace_strings({n}, {l})", lambda: necklace_strings(n, l), None


def _members():
    from cycseq.debruijn import enumerate_sequences_with_frequency
    from cycseq.freqspace import FrequencyVector

    vectors = [
        FrequencyVector(1, 20, 2, {0: 10, 1: 10}),
        FrequencyVector(1, 20, 3, {0: 15, 1: 3, 2: 2}),
    ]
    name = "enumerate_sequences_with_frequency on [10, 10] and [15, 3, 2]"
    return name, lambda: [enumerate_sequences_with_frequency(z) for z in vectors], None


def _tree_round():
    from cycseq.clustertree import build_tree, export_tree

    name = f"build_tree + export_tree x {len(TREE_SHAPES)} (TREE_SHAPES)"
    return name, lambda: [
        export_tree(build_tree(n, l, half_tree=half), fmt) for n, l, half, fmt in TREE_SHAPES
    ], None


def _tree_peak(n: int, l: int, half: bool, fmt: str) -> tuple[str, float]:
    from cycseq.cli import main

    argv = ["tree", "--n", str(n), "--alphabet", str(l), "--format", fmt] + ["--half"] * half
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            if main(argv) != 0:
                raise RuntimeError(f"{' '.join(argv)} failed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return f"peak MB of cli.main {' '.join(argv)}", peak / 2**20


def _lower_tree_nodes():
    from cycseq.lowering import lower

    vectors = [node.freq for shape in LOWER_TREES for node in _tree_nodes(*shape) if node.children]
    name = f"lower x {len(vectors)} (internal nodes of build_tree(12, 2) and build_tree(7, 3))"
    return name, lambda: [lower(y) for y in vectors], None


def _lower_ternary():
    from cycseq.freqspace import FrequencyVector
    from cycseq.lowering import lower

    y = FrequencyVector.from_dense(1, 48, 3, [16, 16, 16])
    return "lower([16, 16, 16])", lambda: lower(y), None


def _lower_wide_refusal():
    from cycseq.errors import ResourceCapError
    from cycseq.freqspace import FrequencyVector
    from cycseq.lowering import lower

    y = FrequencyVector(1, 50, 10**4, {97 * a: 1 for a in range(50)})

    def refused():
        try:
            lower(y)
        except ResourceCapError:
            return
        raise RuntimeError("a 50 x 50 block was not refused")

    return "lower refusing one 50 x 50 block over 10^4 letters", refused, None


def _timed(setup):
    """The case that times setup's fn: setup() imports the package from
    whatever `src` is first on sys.path and gives (name, fn, before)."""

    def case() -> tuple[str, float]:
        name, fn, before = setup()
        return name, _median_s(fn, before)

    return case


# One case per row, in report order: case() gives (name, value).
TIMED_SETUPS = (
    [lambda l=l, p=p: _euler(l, p) for l, p in EULER_CASES]
    + [_counting, _counting_words]
    + [lambda c=c: _tree(*c) for c in TREE_CASES]
    + [
        _tree_vectors,
        _wide_tree_json,
        lambda: _twofold_table(4),
        lambda: _twofold_table(5),
        lambda: _twofold_exact(8),
        lambda: _twofold_exact(4, 200),
        _necklaces,
        lambda: _necklace_strings(11, 3),
        lambda: _necklace_strings(20, 2),
        lambda: _necklace_strings(24, 2),
        lambda: _necklace_strings(15, 3),
        lambda: _necklace_strings(2, 1447),
        _members,
        _tree_round,
        _lower_tree_nodes,
        _lower_ternary,
        _lower_wide_refusal,
    ]
)
CASES = [_timed(setup) for setup in TIMED_SETUPS] + [
    lambda shape=shape: _tree_peak(*shape) for shape in TREE_SHAPES
]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _machine() -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "cpu_count": os.cpu_count(),
    }


def measure() -> dict:
    cases = dict(case() for case in CASES)
    statistic = "median seconds; the peak MB rows, one tracemalloc peak"
    return {"runs": RUNS, "statistic": statistic, **_machine(), "cases": cases}


def _case_in_fresh_process(src: Path, index: int) -> tuple[str, float]:
    argv = [sys.executable, __file__, "--src", str(src), "--case", str(index)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    name, value = json.loads(out)
    return name, value


def _row(parent: list[float], change: list[float]) -> dict:
    """One case's comparison from the per-process values of each side,
    in the order they ran, parent[k] and change[k] one pair."""
    pairs = [c / p for p, c in zip(parent, change)]
    medians = {"parent": statistics.median(parent), "change": statistics.median(change)}
    return {
        **medians,
        "change/parent": medians["change"] / medians["parent"],
        "pair_ratio_min": min(pairs),
        "pair_ratio_max": max(pairs),
        "pairs_straddle_1": min(pairs) <= 1 <= max(pairs),
        "parent_procs": parent,
        "change_procs": change,
    }


def compare(parent: Path, change: Path) -> dict:
    """Every case in PROCS fresh processes per side, alternating."""
    sides = {"parent": parent, "change": change}
    cases = {}
    for index in range(len(CASES)):
        times: dict[str, list] = {"parent": [], "change": []}
        for k in range(PROCS):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                name, value = _case_in_fresh_process(sides[side], index)
                times[side].append(value)
        cases[name] = _row(times["parent"], times["change"])
    return {
        "procs": PROCS,
        "runs": RUNS,
        "statistic": (
            "per side, the median over fresh processes of each one's median seconds,"
            " or of its tracemalloc peak for the peak MB rows; pair_ratio_min and"
            " pair_ratio_max, the extremes of change/parent over the PROCS pairs of"
            " processes that ran one after the other"
        ),
        **_machine(),
        "cases": cases,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--parent", type=Path, default=None)
    parser.add_argument("--case", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for option, path in (("--src", args.src), ("--parent", args.parent)):
        if path is not None and not (path / "cycseq" / "__init__.py").is_file():
            parser.error(
                f"{option} {path} holds no cycseq/__init__.py:"
                " give the directory of the package, a checkout's src"
            )
    src = args.src.resolve()
    if args.parent is not None:
        result = compare(args.parent.resolve(), src)
    else:
        sys.path.insert(0, str(src))
        if args.case is not None:
            # One case, in a process of its own, for compare().
            print(json.dumps(CASES[args.case]()))
            return 0
        result = measure()
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
