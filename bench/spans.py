"""Spans around the calls into each cycseq module, recorded from outside.

`Tracer.install()` replaces public functions with timing wrappers at the
name the caller looks them up by (for example `clustertree.lower`, the name
`build_tree` uses, as well as `lowering.lower`, the name `cli` uses).
Nothing in `src/` is edited; `uninstall()` puts every original back.

A span is (name, start, end, parent, request, extra): `parent` is the index
of the enclosing span or -1, `request` the id of the request that caused it
and `extra` a small record of the call's work (a result length, a matrix
size). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path


def _len_result(args, kwargs, result):
    return len(result)


def _det_dim(args, kwargs, result):
    return len(args[0])


def _phi_extra(args, kwargs, result):
    p, k = args[0], args[1]
    blocks = 2 ** (p - 1)
    return (result, 2 ** (blocks - k) * math.comb(blocks, k))


def _tree_nodes(args, kwargs, result):
    nodes, stack = 0, [result.root]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children)
    return nodes


def wrap_points(cycseq) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, extra) for every wrapped call site.

    Besides the layers the metrics name, every library function `cli`
    calls is wrapped, so that `cli.main`'s self time is the CLI's own work
    (argument parsing, JSON, printing) and nothing else."""
    cli, clustertree, debruijn = cycseq.cli, cycseq.clustertree, cycseq.debruijn
    freqspace, lowering, seqcore, twofold = (
        cycseq.freqspace, cycseq.lowering, cycseq.seqcore, cycseq.twofold)
    fv = freqspace.FrequencyVector
    return [
        (cli, "build_parser", "cli.build_parser", None),
        (clustertree, "build_tree", "clustertree.build_tree", _tree_nodes),
        (clustertree, "export_tree", "clustertree.export_tree", None),
        (clustertree, "lower", "lowering.lower", _len_result),
        (clustertree, "count_members", "lowering.count_members", None),
        (clustertree, "necklace_count", "seqcore.necklace_count", None),
        (clustertree, "level1_cluster_size", "seqcore.level1_cluster_size", None),
        (lowering, "lower", "lowering.lower", _len_result),
        (lowering, "solve_step1", "lowering.solve_step1", _len_result),
        (lowering, "enumerate_sequences_with_frequency", "debruijn.enumerate_sequences", _len_result),
        (debruijn, "enumerate_sequences_with_frequency", "debruijn.enumerate_sequences", _len_result),
        (debruijn, "canonicalize", "seqcore.canonicalize", None),
        (debruijn.WeightedSubgraph, "is_connected", "debruijn.is_connected", None),
        (debruijn.Multigraph, "is_connected", "debruijn.is_connected", None),
        (debruijn, "integer_determinant", "debruijn.integer_determinant", _det_dim),
        (debruijn, "count_eulerian_cycles", "debruijn.count_eulerian_cycles", None),
        (debruijn, "full_graph", "debruijn.full_graph", None),
        (twofold, "integer_determinant", "debruijn.integer_determinant", _det_dim),
        (twofold, "count_eulerian_cycles", "debruijn.count_eulerian_cycles", None),
        (twofold, "contract_doubled_edges", "debruijn.contract_doubled_edges", None),
        (twofold, "phi", "twofold.phi", _phi_extra),
        (twofold, "count_twofold", "twofold.count_twofold", None),
        (twofold, "twofold_table", "twofold.twofold_table", None),
        (twofold, "count_twofold_exact", "twofold.count_twofold_exact", None),
        (seqcore, "canonicalize", "seqcore.canonicalize", None),
        (seqcore, "enumerate_necklaces", "seqcore.enumerate_necklaces", _len_result),
        (seqcore, "necklace_count", "seqcore.necklace_count", None),
        (seqcore, "sequence_from_string", "seqcore.sequence_from_string", None),
        (freqspace, "project", "freqspace.project", None),
        (freqspace, "raise_level", "freqspace.raise_level", None),
        (freqspace, "gamma_max", "freqspace.gamma_max", None),
        (freqspace, "ultrametric_distance", "freqspace.ultrametric_distance", None),
        (fv, "from_json", "freqspace.vector_json", None),
        (fv, "to_obj", "freqspace.vector_json", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span recorded by the benchmark itself."""
        return self._wrapper(fn, name, None)(*args, **kwargs)

    def _wrapper(self, fn, name: str, extra):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, cycseq) -> None:
        for owner, attr, name, extra in wrap_points(cycseq):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(raw.__func__, name, extra))
            else:
                new = self._wrapper(raw, name, extra)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "request", "extra"],
                "names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
            }, fh, separators=(",", ":"))


def layer_metrics(spans: list[list], speeds: list[float]) -> dict[str, float]:
    """Per-layer counts, times and ratios computed from the spans.

    Durations are scaled by `speeds[request]`, the machine speed measured
    around the span's request. A name's time counts only its outermost
    spans, so a call nested in a call of the same name (a Multigraph check
    inside a subgraph check) is not counted twice. Self time is a span's
    duration minus its children's.
    """
    duration = [(s[2] - s[1]) * speeds[s[4]] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            child_time[s[3]] += d
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    extras: dict[str, list] = {}
    for i, (name, _start, _end, parent, _req, extra) in enumerate(spans):
        if parent >= 0 and spans[parent][0] == name:
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration[i]
        self_time[name] = self_time.get(name, 0.0) + duration[i] - child_time[i]
        if extra is not None:
            extras.setdefault(name, []).append(extra)

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def sum_extra(name):
        return sum(extras.get(name, []))

    # Step-1 candidates counted inside `lower`, so that the ratio below
    # compares like with like.
    candidates = sum(
        s[5] for s in spans
        if s[0] == "lowering.solve_step1" and s[3] >= 0 and spans[s[3]][0] == "lowering.lower"
    )
    survivors = sum_extra("lowering.lower")
    dims = extras.get("debruijn.integer_determinant", [])
    phis = extras.get("twofold.phi", [])
    phi_attempts = sum(a for _, a in phis)
    cli_ops = n("cli.main")
    return {
        "cli.self_ms_per_op": 1e3 * self_time.get("cli.main", 0.0) / cli_ops if cli_ops else 0.0,
        "cli.build_parser.s": t("cli.build_parser"),
        "freqspace.vector_json.calls": n("freqspace.vector_json"),
        "freqspace.vector_json.s": t("freqspace.vector_json"),
        "freqspace.project.calls": n("freqspace.project"),
        "freqspace.project.s": t("freqspace.project"),
        "seqcore.canonicalize.calls": n("seqcore.canonicalize"),
        "seqcore.canonicalize.s": t("seqcore.canonicalize"),
        "seqcore.enumerate_necklaces.s": t("seqcore.enumerate_necklaces"),
        "seqcore.enumerate_necklaces.emitted": sum_extra("seqcore.enumerate_necklaces"),
        "lowering.lower.calls": n("lowering.lower"),
        "lowering.lower.s": t("lowering.lower"),
        "lowering.solve_step1.s": t("lowering.solve_step1"),
        "lowering.step1.candidates": candidates,
        "lowering.lower.survivors": survivors,
        "lowering.connected_ratio": survivors / candidates if candidates else 0.0,
        "debruijn.is_connected.calls": n("debruijn.is_connected"),
        "debruijn.is_connected.s": t("debruijn.is_connected"),
        "debruijn.enumerate_sequences.calls": n("debruijn.enumerate_sequences"),
        "debruijn.enumerate_sequences.s": t("debruijn.enumerate_sequences"),
        "debruijn.enumerate_sequences.found": sum_extra("debruijn.enumerate_sequences"),
        "debruijn.integer_determinant.calls": n("debruijn.integer_determinant"),
        "debruijn.integer_determinant.s": t("debruijn.integer_determinant"),
        "debruijn.integer_determinant.max_dim": max(dims, default=0),
        "debruijn.integer_determinant.dim3_sum": sum(d**3 for d in dims),
        "debruijn.count_eulerian_cycles.s": t("debruijn.count_eulerian_cycles"),
        "debruijn.contract_doubled_edges.s": t("debruijn.contract_doubled_edges"),
        "twofold.phi.calls": n("twofold.phi"),
        "twofold.phi.s": t("twofold.phi"),
        "twofold.phi.connected_ratio": sum(c for c, _ in phis) / phi_attempts if phi_attempts else 0.0,
        "twofold.count_twofold_exact.s": t("twofold.count_twofold_exact"),
        "clustertree.build_tree.s": t("clustertree.build_tree"),
        "clustertree.self_s": self_time.get("clustertree.build_tree", 0.0),
        "clustertree.nodes": sum_extra("clustertree.build_tree"),
        "clustertree.export_tree.s": t("clustertree.export_tree"),
    }
