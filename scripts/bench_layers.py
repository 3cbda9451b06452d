"""Layer timings of the exact counting primitives, stdlib only.

Each case is timed with time.perf_counter over five runs and reported as
the median in seconds:

- count_eulerian_cycles(full_graph(l, p)) at (l, p) = (2, 7), (2, 8), (3, 4)
  and (16, 2): one BEST count, whose cost is the Laplacian cofactor;
- count_sequences_with_frequency over every node of the binary n = 16 half
  tree (levels p >= 1): thousands of small BEST + Burnside counts;
- build_tree(16, 2) and build_tree(16, 2, half_tree=True): lowering and
  counting together, as the tree command runs them;
- twofold_table(4) and twofold_table(5, max_p=5): the per-k Phi, PermNo and
  cofactor rows that `twofold --p 4 --table` and `--p 5 --table` print.
  Where the package caches the Phi row (twofold._phi_row), the cache is
  cleared before every run, outside the timed region, so the Phi
  computation is timed and not a cache lookup;
- count_twofold_exact(8, max_p=8): one BEST + Burnside count on the doubled
  graph G_2(8).
- enumerate_necklaces(20, 2) and [str(s) for s in enumerate_necklaces(11, 3)]:
  FKM generation with the canonical check of every necklace, and printing,
  as `necklaces --list` runs them.
- build_tree and export_tree over the nine TREE_SHAPES of the benchmark's
  `tree` workload (bench/workloads.py), each in its export format: one
  round of that workload without the CLI around it.

For the counting case the tree is built once, outside the timed region. Only public entry points
are called (and the Phi cache cleared when there is one), so the script runs
on any version of the package that has them.

Usage: python3 scripts/bench_layers.py [--label NAME --into FILE]

Without --into it prints one JSON document; with it, the document is stored
under NAME in FILE (created if missing), next to the other labels there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import TREE_SHAPES  # noqa: E402

from cycseq import twofold  # noqa: E402
from cycseq.clustertree import build_tree, export_tree  # noqa: E402
from cycseq.debruijn import (  # noqa: E402
    count_eulerian_cycles,
    count_sequences_with_frequency,
    full_graph,
)
from cycseq.seqcore import enumerate_necklaces  # noqa: E402
from cycseq.twofold import count_twofold_exact, twofold_table  # noqa: E402

EULER_CASES = [(2, 7), (2, 8), (3, 4), (16, 2)]
TREE_CASES = [(16, 2, False), (16, 2, True)]
RUNS = 5


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


def _tree_vectors(n: int, l: int, half_tree: bool) -> list:
    stack, out = [build_tree(n, l, half_tree=half_tree).root], []
    while stack:
        node = stack.pop()
        if node.p >= 1:
            out.append(node.freq)
        stack.extend(node.children)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def measure() -> dict:
    cases = {}
    for l, p in EULER_CASES:
        g = full_graph(l, p)
        name = f"count_eulerian_cycles(full_graph({l}, {p}))"
        cases[name] = _median_s(lambda: count_eulerian_cycles(g))
    vectors = _tree_vectors(16, 2, half_tree=True)
    name = f"count_sequences_with_frequency x {len(vectors)} (build_tree(16, 2, half_tree=True))"
    cases[name] = _median_s(lambda: [count_sequences_with_frequency(z) for z in vectors])
    for n, l, half in TREE_CASES:
        name = f"build_tree({n}, {l}{', half_tree=True' if half else ''})"
        cases[name] = _median_s(lambda: build_tree(n, l, half_tree=half))
    phi_cache = getattr(twofold, "_phi_row", None)
    clear = phi_cache.cache_clear if phi_cache is not None else None
    cases["twofold_table(4)"] = _median_s(lambda: twofold_table(4), clear)
    cases["twofold_table(5, max_p=5)"] = _median_s(lambda: twofold_table(5, max_p=5), clear)
    cases["count_twofold_exact(8, max_p=8)"] = _median_s(lambda: count_twofold_exact(8, max_p=8))
    cases["enumerate_necklaces(20, 2)"] = _median_s(lambda: enumerate_necklaces(20, 2))
    cases["[str(s) for s in enumerate_necklaces(11, 3)]"] = _median_s(
        lambda: [str(s) for s in enumerate_necklaces(11, 3)]
    )
    cases[f"build_tree + export_tree x {len(TREE_SHAPES)} (TREE_SHAPES)"] = _median_s(
        lambda: [
            export_tree(build_tree(n, l, half_tree=half), fmt)
            for n, l, half, fmt in TREE_SHAPES
        ]
    )
    return {
        "runs": RUNS,
        "statistic": "median seconds",
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cases": cases,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="result")
    parser.add_argument("--into", type=Path, default=None)
    args = parser.parse_args(argv)
    result = measure()
    if args.into is None:
        print(json.dumps(result, indent=2))
        return 0
    doc = json.loads(args.into.read_text()) if args.into.exists() else {}
    doc[args.label] = result
    args.into.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
