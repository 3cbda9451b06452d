"""Layer timings of the exact counting primitives, stdlib only.

Each case is timed with time.perf_counter over five runs and reported as
the median in seconds:

- count_eulerian_cycles(full_graph(l, p)) at (l, p) = (2, 7), (2, 8), (3, 4)
  and (16, 2): one BEST count, whose cost is the Laplacian cofactor;
- count_sequences_with_frequency over every node of the binary n = 16 half
  tree (levels p >= 1): thousands of small BEST + Burnside counts;
- build_tree(16, 2) and build_tree(16, 2, half_tree=True): lowering and
  counting together, as the tree command runs them.

For the counting case the tree is built once, outside the timed region. Only public entry points
are called, so the script runs on any version of the package that has them.

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

from cycseq.clustertree import build_tree  # noqa: E402
from cycseq.debruijn import (  # noqa: E402
    count_eulerian_cycles,
    count_sequences_with_frequency,
    full_graph,
)

EULER_CASES = [(2, 7), (2, 8), (3, 4), (16, 2)]
TREE_CASES = [(16, 2, False), (16, 2, True)]
RUNS = 5


def _median_s(fn) -> float:
    times = []
    for _ in range(RUNS):
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
