"""cycseq benchmark: one client, closed loop, in-process calls to the CLI.

    python3 bench/run.py --workload tree --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` it measures the end-to-end metrics for about
`--seconds` seconds. With `--trace 1` it runs a fixed, seed-determined
request list once untraced and once traced, and reports per-layer metrics.
Either way the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every answer is checked outside the timed region by `checks.py`. A wrong
answer, an exception, a non-zero exit code or a missed deadline counts as a
failed request. DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Request

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# No request runs past this many seconds after start (the limit for a whole
# run is 180): each request's deadline is cut to what is left.
HARD_LIMIT_S = 150.0
SETUP_PROBES = 7

# Time metrics are scaled to a reference machine speed. On a shared VM the
# same requests ran at 224-406 ops/s over five minutes, while their ratio to
# the reference loop stayed within about 7%; see DESIGN.md.
REFERENCE_LOOP = 50_000  # iterations of the reference loop
REFERENCE_S = 0.004  # its time at reference speed
SAMPLE_LOOP = 5_000  # iterations of one in-run speed sample
SAMPLE_EVERY_S = 0.02  # CPU seconds between speed samples

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "cli.self_ms_per_op": "ms",
    "cli.build_parser.s": "s",
    "freqspace.vector_json.calls": "count",
    "freqspace.vector_json.s": "s",
    "freqspace.project.calls": "count",
    "freqspace.project.s": "s",
    "seqcore.canonicalize.calls": "count",
    "seqcore.canonicalize.s": "s",
    "seqcore.enumerate_necklaces.s": "s",
    "seqcore.enumerate_necklaces.emitted": "count",
    "lowering.lower.calls": "count",
    "lowering.lower.s": "s",
    "lowering.solve_step1.s": "s",
    "lowering.step1.candidates": "count",
    "lowering.lower.survivors": "count",
    "lowering.connected_ratio": "ratio",
    "debruijn.is_connected.calls": "count",
    "debruijn.is_connected.s": "s",
    "debruijn.enumerate_sequences.calls": "count",
    "debruijn.enumerate_sequences.s": "s",
    "debruijn.enumerate_sequences.found": "count",
    "debruijn.integer_determinant.calls": "count",
    "debruijn.integer_determinant.s": "s",
    "debruijn.integer_determinant.max_dim": "count",
    "debruijn.integer_determinant.dim3_sum": "count",
    "debruijn.count_eulerian_cycles.s": "s",
    "debruijn.contract_doubled_edges.s": "s",
    "twofold.phi.calls": "count",
    "twofold.phi.s": "s",
    "twofold.phi.connected_ratio": "ratio",
    "twofold.count_twofold_exact.s": "s",
    "clustertree.build_tree.s": "s",
    "clustertree.self_s": "s",
    "clustertree.nodes": "count",
    "clustertree.export_tree.s": "s",
    "trace.overhead_s": "s",
}


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM in a request that ran past its deadline. It is a
    BaseException so that no `except Exception` in the code under test can
    swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set (ru_maxrss, KiB on Linux) of this process or of
    its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def machine_speed(loops: int = REFERENCE_LOOP) -> float:
    """How fast this machine runs Python right now: REFERENCE_S over the
    time the reference loop takes, prorated to `loops` iterations."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return REFERENCE_S * loops / REFERENCE_LOOP / (time.perf_counter() - start)


class SpeedSampler:
    """Samples the machine's speed every SAMPLE_EVERY_S of CPU time, from a
    SIGPROF handler, so that a long request is scaled by the speed during
    it and not only at its ends. Time spent sampling is added up in `spent`
    and taken out of the latency and CPU of the request it interrupted."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, speed)
        self.spent = 0.0
        self._busy = False
        self.sample()

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append((start, machine_speed(SAMPLE_LOOP)))
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def speed(self, start: float, end: float) -> float:
        """Mean speed sampled within [start, end], or of the nearest sample
        on each side when none fell inside."""
        lo = bisect.bisect_left(self.samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, end, key=lambda s: s[0])
        near = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return statistics.fmean(speed for _, speed in near)


@dataclass
class Outcome:
    start: float
    end: float
    latency: float  # seconds, without the time spent sampling speed
    cpu_s: float  # likewise
    output: str | None  # None on error
    error: str | None


@dataclass
class Batch:
    latencies: list[float]  # seconds, as measured
    cpu_s: list[float]  # CPU of each request, not of the checks
    speeds: list[float]  # machine speed during each request

    def scaled(self) -> list[float]:
        """Latencies at reference speed."""
        return [lat * speed for lat, speed in zip(self.latencies, self.speeds)]

    def scaled_cpu(self) -> float:
        return sum(cpu * speed for cpu, speed in zip(self.cpu_s, self.speeds))


class Runner:
    """Runs requests one at a time under a deadline and checks the answers.

    `call` is the timed part; `record` checks an answer afterwards and
    keeps the attempted and failed counts. An answer that was verified once
    is recognised by its digest when the same request repeats.
    """

    def __init__(self, cycseq, stop_at: float):
        self.cycseq = cycseq
        self.stop_at = stop_at
        self.sampler = SpeedSampler()
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.out_of_time = False
        self.reasons: list[str] = []
        self._verified: dict[tuple, bytes] = {}

    def _invoke(self, req: Request) -> str:
        if req.kind == "lib":
            return str(self.cycseq.twofold.count_twofold_exact(int(req.argv[1])))
        sink = io.StringIO()
        main = self.cycseq.cli.main
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            if self.tracer is None:
                code = main(list(req.argv))
            else:
                code = self.tracer.span("cli.main", main, list(req.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return sink.getvalue()

    def call(self, req: Request) -> Outcome:
        budget = min(req.deadline_s, self.stop_at - time.perf_counter())
        if budget <= 0:
            self.out_of_time = True
            now = time.perf_counter()
            return Outcome(now, now, 0.0, 0.0, None, "the run's time limit was reached")
        output = error = None
        spent = self.sampler.spent
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                output = self._invoke(req)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            error = f"missed its {budget:.1f} s deadline"
        except SystemExit as exc:
            error = f"exited with {exc.code}"
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        spent = self.sampler.spent - spent
        return Outcome(start, end, end - start - spent, cpu_seconds() - cpu - spent, output, error)

    def record(self, req: Request, output: str | None, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            digest = hashlib.sha256(output.encode()).digest()
            if self._verified.get(req.key()) == digest:
                return
            error = checks.check(req.kind, output, req.meta)
            if error is None:
                self._verified[req.key()] = digest
                return
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{' '.join(req.argv)[:100]}: {error}")

    def run(self, reqs: list[Request]) -> Batch:
        """Run reqs back to back, then check them."""
        done = []
        for req in reqs:
            if self.tracer is not None:
                self.tracer.request += 1
            outcome = self.call(req)
            if self.out_of_time:
                break
            done.append((req, outcome))
        for req, outcome in done:
            self.record(req, outcome.output, outcome.error)
        return Batch([o.latency for _, o in done], [o.cpu_s for _, o in done],
                     [self.sampler.speed(o.start, o.end) for _, o in done])


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time, at reference speed, of fresh processes that import
    cycseq, build the first round of inputs and run the warm-up requests."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        speed = machine_speed()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        times.append(elapsed * (speed + machine_speed()) / 2)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def measure(runner: Runner, workload, seed: int, seconds: int) -> tuple[dict, float]:
    """Closed-loop rounds until the next one would end after `seconds`.

    Returns the metrics, taken over all requests of the run, and the
    unscaled throughput.
    """
    latencies: list[float] = []
    raw_s = cpu_s = 0.0
    round_walls: list[float] = []
    start = time.perf_counter()
    round_no = 0
    while True:
        round_start = time.perf_counter()
        batch = runner.run(workload.round(seed, round_no))
        latencies.extend(batch.scaled())
        raw_s += sum(batch.latencies)
        cpu_s += batch.scaled_cpu()
        round_no += 1
        round_walls.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if runner.out_of_time or elapsed + statistics.fmean(round_walls) > seconds:
            break
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p99_ms": 1e3 * percentile(latencies, 99),
        "cpu_ms_per_op": 1e3 * cpu_s / len(latencies),
    }
    return metrics, len(latencies) / raw_s


def trace_layers(runner: Runner, workload, seed: int) -> dict[str, float]:
    """The first `trace_rounds` rounds, untraced and then traced."""
    reqs = [r for k in range(workload.trace_rounds) for r in workload.round(seed, k)]
    untraced = runner.run(reqs)
    tracer = Tracer()
    tracer.install(runner.cycseq)
    runner.tracer = tracer
    try:
        traced = runner.run(reqs)
    finally:
        runner.tracer = None
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, traced.speeds)
    metrics["trace.overhead_s"] = sum(traced.scaled()) - sum(untraced.scaled())
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cycseq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "cycseq" / "__init__.py").is_file():
        print(f"error: no cycseq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s = None
    if not args.trace and not args.setup_probe:
        setup_s = measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import cycseq.cli  # noqa: F401  (loads every submodule)

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(cycseq, stop_at=started + HARD_LIMIT_S)
    runner.run(workload.warmup())
    if args.setup_probe:
        workload.round(args.seed, 0)  # building inputs is part of set-up
        return 1 if runner.failed else 0

    runner.sampler.start()
    try:
        if args.trace:
            values = trace_layers(runner, workload, args.seed)
        else:
            values, raw_ops = measure(runner, workload, args.seed, args.seconds)
    finally:
        runner.sampler.stop()
    if args.trace:
        units = PER_LAYER
    else:
        print(f"unscaled ops_per_s {raw_ops:.4g}", file=sys.stderr)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb()
        values["ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
        units = END_TO_END
    for reason in runner.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not runner.out_of_time,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
