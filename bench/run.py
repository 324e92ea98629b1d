#!/usr/bin/env python3
"""Benchmark of siegel_dims: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the root of the repository:

    python3 bench/run.py --workload {enumerate,count,survey,cli,all} \\
        [--seed N] [--seconds S] [--trace 0|1]

A run builds the workload's operations from the seed, measures set-up time in
fresh interpreters, warms up, then repeats passes over the operations until
``--seconds`` of measured time is spent (at least two passes), checking every
result outside the timed region.  Each statistic is taken per pass, scaled to
the reference host speed by a calibration loop run between operations, and
reported as the median over the passes.  With ``--trace 1`` it alternates
untraced and traced passes (at most five pairs) and reports per-layer metrics
instead; the spans are written to ``.bench_out/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
only when every output was correct.  ``--workload all`` runs each workload in
its own process.  See bench/RATIONALE.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("enumerate", "count", "survey", "cli")
MIN_PASSES = 2
SETUP_RUNS_FIRST = 4
SETUP_EVERY_S = 2.5
SETUP_CODE = "import siegel_dims; siegel_dims.dim_full_level(10)"
SHOWN_FAILURES = 5
SHOWN_PROBLEM_CHARS = 300
MAX_TRACED_PAIRS = 5  # bounds the spans kept in memory
CALIBRATION_STEPS = 4000
CALIBRATION_EVERY_S = 0.05
MIN_PASS_SAMPLES = 9
# The calibration loop's median time on the reference host (see RATIONALE.md).
CALIBRATION_REF_S = 1.0e-3


class Pass:
    """Timings, host-speed samples and failures of one pass over a workload's operations."""

    def __init__(self):
        self.times: list[float] = []
        self.calibration: list[float] = []
        self.failures: list[tuple[str, str, str | None]] = []
        self.items = 0

    @property
    def wall(self) -> float:
        return sum(self.times)


def calibration_loop() -> float:
    """Time of a fixed interpreter-bound loop that never calls siegel_dims."""
    start = time.perf_counter()
    table, x = {}, 0
    for i in range(CALIBRATION_STEPS):
        x = (x * 31 + i) % 1000003
        table[i & 63] = (x, i)
    return time.perf_counter() - start


def run_pass(ops, tracer=None) -> Pass:
    out = Pass()
    since_sample = 0.0
    for op in ops:
        call = op.call if tracer is None else tracer.wrap("op", op.call, key=op.label)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an uncaught exception is a failed operation
            out.times.append(time.perf_counter() - start)
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            out.times.append(time.perf_counter() - start)
            try:
                problem = op.check(result)
                out.items += op.items(result)
            except Exception as exc:  # a result of the wrong shape
                problem = f"check raised {type(exc).__name__}: {exc}"
            del result
        if problem is not None:
            out.failures.append((op.label, problem, op.known_defect))
        since_sample += out.times[-1]
        if since_sample >= CALIBRATION_EVERY_S:
            out.calibration.append(calibration_loop())
            since_sample = 0.0
    return out


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return 100.0 * (1 - 10 / samples)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(len(ranked) * q / 100) - 1)]


def measure_setup(env, runs, times, calibration) -> None:
    """Append the wall times of ``runs`` fresh interpreters importing
    siegel_dims and answering one call, and a host-speed sample after each."""
    for _ in range(runs):
        start = time.perf_counter()
        # Pipes make the wait event-driven: without them a timeout makes
        # Popen.wait poll, in sleeps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        calibration.append(calibration_loop())


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run_until(seconds, step, least=MIN_PASSES, most=None) -> list:
    """Call step() while the next call fits in ``seconds`` of measured time,
    at least ``least`` and at most ``most`` times."""
    results, spent = [], 0.0
    while len(results) < least or (spent + results[-1][0] <= seconds
                                   and len(results) != most):
        results.append(step())
        spent += results[-1][0]
    return results


def end_to_end(name, workload, seconds, env):
    setup_times, calibration = [], []
    # The first start also fills the OS file cache and the bytecode cache.
    measure_setup(env, 1, [], [])
    measure_setup(env, SETUP_RUNS_FIRST, setup_times, calibration)
    run_pass(workload.warmup)

    since_setup = 0.0

    def step():
        nonlocal since_setup
        done = run_pass(workload.ops)
        since_setup += done.wall
        if since_setup >= SETUP_EVERY_S:
            # Set-up is sampled all through the run, as the host's speed is.
            measure_setup(env, 1, setup_times, calibration)
            since_setup = 0.0
        return done.wall, done

    passes = [p for _, p in run_until(seconds, step)]
    calibration += [c for p in passes for c in p.calibration]
    # Times are scaled to the reference host speed: the host's speed drifts by
    # tens of percent over tens of seconds, and the calibration loop, sampled
    # between operations all through the run, measures that drift.  A pass
    # with enough samples of its own is scaled by them.
    slowdown = statistics.median(calibration) / CALIBRATION_REF_S

    def pass_slowdown(p: Pass) -> float:
        if len(p.calibration) < MIN_PASS_SAMPLES:
            return slowdown
        return statistics.median(p.calibration) / CALIBRATION_REF_S

    # Per-pass statistics, then the median over passes: each pass is a
    # replicate, and the statistics keep their meaning however many fit.
    q = tail_percentile(MIN_PASSES * len(workload.ops))
    per_pass = {
        "wall_s": lambda p: p.wall,
        "latency_p50_ms": lambda p: statistics.median(p.times) * 1e3,
        "latency_tail_ms": lambda p: percentile(p.times, q) * 1e3,
    }
    raw = {"setup_s": statistics.median(setup_times)}
    metrics = {"setup_s": (raw["setup_s"] / slowdown, "s")}
    for m, of in per_pass.items():
        raw[m] = statistics.median(of(p) for p in passes)
        metrics[m] = (statistics.median(of(p) / pass_slowdown(p) for p in passes),
                      m.rpartition("_")[2])
    metrics["peak_rss_mb"] = (peak_rss_mib(children=name == "cli"), "MiB")
    extra = {
        "tail_percentile": f"p{q:.2f} of each pass's {len(workload.ops)} operations",
        "passes": len(passes),
        "host_slowdown": f"{slowdown:.4f} (median of {len(calibration)} calibration samples)",
        **{f"unscaled_{m}": v for m, v in raw.items()},
    }
    if name == "enumerate":
        extra["solutions_per_s"] = passes[0].items / metrics["wall_s"][0]
    return passes, metrics, extra


def traced(name, workload, seconds, seed):
    import tracing

    tracer = tracing.Tracer()
    run_pass(workload.warmup)
    untraced, traced_walls, passes = [], [], []
    startup, stdout_bytes = [], []

    def pair():
        plain = run_pass(workload.ops)
        passes.append(plain)
        if name == "cli":
            # The subprocess pass gives the wall times; the library work is
            # replayed in-process through cli.main, untraced and then traced.
            stdout_bytes.append(plain.items)
            mains = replay_cli(workload.argvs)
            startup.extend(w - m for w, m in zip(plain.times, mains))
            untraced.append(sum(mains))
            tracer.install()
            try:
                traced_walls.append(sum(replay_cli(workload.argvs)))
            finally:
                tracer.uninstall()
            return plain.wall + untraced[-1] + traced_walls[-1], None
        untraced.append(plain.wall)
        tracer.install()
        try:
            again = run_pass(workload.ops, tracer)
        finally:
            tracer.uninstall()
        passes.append(again)
        traced_walls.append(again.wall)
        return untraced[-1] + traced_walls[-1], None

    pairs = len(run_until(seconds, pair, least=1, most=MAX_TRACED_PAIRS))
    metrics = tracing.layer_metrics(tracer, pairs)
    metrics["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(untraced)
    if name == "cli":
        metrics["cli.startup_s"] = statistics.median(startup)
        metrics["cli.stdout_bytes"] = statistics.mean(stdout_bytes)
    tracer.write(ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json")
    units = {n: (v, tracing.UNITS[n]) for n, v in metrics.items()}
    return passes, units, {"traced_passes": pairs}


def replay_cli(argvs) -> list[float]:
    """In-process cli.main(argv) time per invocation, with stdout and stderr captured."""
    from siegel_dims import cli

    times = []
    for argv in argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            cli.main(argv)
            times.append(time.perf_counter() - start)
    return times


def run_one(args) -> int:
    import workloads

    workload = workloads.build(args.workload, args.seed)
    if args.trace:
        passes, metrics, extra = traced(args.workload, workload, args.seconds, args.seed)
    else:
        passes, metrics, extra = end_to_end(args.workload, workload, args.seconds,
                                            workloads.child_env())
    failures = [f for p in passes for f in p.failures]
    unexpected = [f for f in failures if f[2] is None]
    attempted = sum(len(p.times) for p in passes)
    extra["failed_ratio"] = len(failures) / attempted

    for label, problem, defect in (unexpected or failures)[:SHOWN_FAILURES]:
        note = f" (known defect: {defect})" if defect else ""
        print(f"FAILED {label}: {problem[:SHOWN_PROBLEM_CHARS]}{note}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {metric:<44} {value:>16.6g} {unit}")
    for key, value in extra.items():
        print(f"{args.workload:<10} {key:<44} {value}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if not unexpected else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and caches stay per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=900)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "siegel_dims" / "__init__.py").is_file():
        print(f"error: no siegel_dims package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
