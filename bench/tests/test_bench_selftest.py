"""Self-tests of the benchmark: determinism, checker strength, deadlines.

Run with `python -m pytest bench/tests` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics, wrap_points  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

COUNT_SUFFIXES = (".calls", ".candidates", ".survivors", ".found", ".max_dim",
                  ".dim3_sum", ".nodes", ".emitted")


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def _runner(cycseq=None) -> run.Runner:
    if cycseq is None:
        import cycseq.cli  # noqa: F401
        cycseq = sys.modules["cycseq"]
    return run.Runner(cycseq, stop_at=time.perf_counter() + 120)


def _argvs(name: str, seed: int, rounds: int = 3) -> list[tuple]:
    return [r.argv for k in range(rounds) for r in WORKLOADS[name].round(seed, k)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name):
    assert _argvs(name, 7) == _argvs(name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_different_requests(name):
    assert _argvs(name, 7) != _argvs(name, 8)


def _small_requests() -> list[Request]:
    return (
        [workloads._tree_request(9, 2, False, "json"),
         workloads._tree_request(10, 2, True, "dot"),
         workloads._tree_request(6, 3, False, "newick"),
         workloads._twofold_table_request(3),
         workloads._twofold_exact_request(3),
         workloads._euler_request(2, 5),
         workloads._necklace_request(10, 2)]
        + workloads.queries_round(3, 0)[:40]
    )


def _traced_counts(reqs: list[Request]) -> dict:
    runner = _runner()
    tracer = Tracer()
    tracer.install(runner.cycseq)
    runner.tracer = tracer
    try:
        batch = runner.run(reqs)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.reasons
    metrics = layer_metrics(tracer.spans, batch.speeds)
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def test_same_seed_same_layer_counts(alarm):
    first = _traced_counts(_small_requests())
    second = _traced_counts(_small_requests())
    assert first == second
    assert first["clustertree.nodes"] > 0
    assert first["debruijn.integer_determinant.calls"] > 0
    assert first["lowering.step1.candidates"] >= first["lowering.lower.survivors"] > 0


def test_uninstall_restores_the_library():
    cycseq = _runner().cycseq
    before = [vars(owner)[attr] for owner, attr, _, _ in wrap_points(cycseq)]
    tracer = Tracer()
    tracer.install(cycseq)
    tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, _, _ in wrap_points(cycseq)] == before


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for name in [*declared_e2e, *declared_layer]:
        assert pattern.fullmatch(name), name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def _answer(req: Request) -> str:
    outcome = _runner().call(req)
    assert outcome.error is None, outcome.error
    assert checks.check(req.kind, outcome.output, req.meta) is None
    return outcome.output


def test_checker_rejects_wrong_twofold_constants(alarm):
    req = workloads._twofold_exact_request(4)
    assert checks.check("lib", "52496", req.meta) is None
    assert checks.check("lib", "52495", req.meta) is not None
    table = json.loads(_answer(workloads._twofold_table_request(3)))
    table["table"][2]["phi"] = "12"
    assert checks.check("twofold", json.dumps(table), {"p": 3}) is not None


def test_checker_rejects_missing_member(alarm):
    rng = workloads.random.Random(5)
    while True:
        req = workloads.query_request(rng, "members", 2, 2, 14)
        obj = json.loads(_answer(req))
        if len(obj["sequences"]) >= 3:
            break
    dropped = dict(obj, sequences=obj["sequences"][1:])
    assert checks.check("members", json.dumps(dropped), req.meta) is not None
    own = checks.max_rotation("".join(map(str, req.meta["word"])))
    rest = [s for s in obj["sequences"] if s != own]
    recounted = {"count": str(len(rest)), "sequences": rest}
    assert checks.check("members", json.dumps(recounted), req.meta) is not None


def test_checker_rejects_bad_necklaces_and_trees(alarm):
    req = workloads._necklace_request(10, 2)
    obj = json.loads(_answer(req))
    swapped = dict(obj, necklaces=[obj["necklaces"][1], obj["necklaces"][0], *obj["necklaces"][2:]])
    assert checks.check("necklaces", json.dumps(swapped), req.meta) is not None
    tree_req = workloads._tree_request(8, 2, False, "newick")
    text = _answer(tree_req)
    assert checks.check("tree", text.replace("(", "(1:1,", 1), tree_req.meta) is not None


def test_checker_rejects_disconnected_lower_candidate():
    # 0011 has level-2 counts {00, 01, 11, 10: 1 each}. Its own level-3
    # vector {001, 011, 110, 100} is connected; {000, 010, 111, 101} has the
    # same block sums but splits into three components.
    meta = {"word": (0, 0, 1, 1), "l": 2, "p": 2}
    good = checks.vector_obj(checks.window_counts((0, 0, 1, 1), 3, 2), 3, 4, 2)
    split = checks.vector_obj({0: 1, 2: 1, 5: 1, 7: 1}, 3, 4, 2)
    assert checks.check("lower", json.dumps({"candidates": [good]}), meta) is None
    assert checks.check("lower", json.dumps({"candidates": [good, split]}), meta) is not None
    assert checks.check("lower", json.dumps({"candidates": [split]}), meta) is not None


def test_deadline_miss_counts_as_failure(alarm):
    fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=lambda argv: time.sleep(5)))
    runner = _runner(fake)
    req = Request("project", ("project",), {}, deadline_s=0.2)
    start = time.perf_counter()
    batch = runner.run([req])
    assert time.perf_counter() - start < 2
    assert runner.attempted == 1 and runner.failed == 1
    assert "deadline" in runner.reasons[0]
    assert batch.latencies[0] < 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
