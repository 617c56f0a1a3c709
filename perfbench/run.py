"""Closed-loop benchmark of the pdg library, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client: each operation waits for its result before the
next starts, as a library caller does.  A run draws a fixed set of
operations from the seed and repeats the whole set in rounds; each
operation's latency is the best of its repetitions, which are spread over
the whole run.  With ``--trace 0`` the run measures for S seconds with no
instrumentation and prints the end-to-end metrics.  With ``--trace 1`` it
measures an untraced run of S/2 seconds, then TRACE_ROUNDS traced rounds,
and prints the per-layer metrics.  Every result is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads are in workloads.py.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
SETUP_REPEATS = 3  # set-ups per run: this process plus fresh child processes
MIN_ROUNDS = 3  # an untraced run never stops before every operation ran this often
TRACE_ROUNDS = 5  # rounds of the traced run
MAX_REASONS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    return parser.parse_args(argv)


def import_library() -> None:
    """Import pdg from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "pdg", "__init__.py")):
        sys.exit(f"error: no pdg sources at {SRC}")
    sys.path.insert(0, SRC)
    import pdg
    if not os.path.abspath(pdg.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pdg from {pdg.__file__}, not from {SRC}")


def warm_up(ops) -> None:
    """Run one operation of each kind once, so caches and lazy imports are filled."""
    for op in ops:
        reason = op.check(op.run())
        if reason is not None:
            sys.exit(f"error: warm-up {op.kind} failed its check: {reason}")


@dataclass
class Run:
    """What a measured run leaves: per operation of the set, the best latency
    of its correct repetitions (inf if none was correct)."""

    best: list[float]
    attempted: int = 0
    failed: int = 0
    rounds: int = 0  # whole rounds completed
    reasons: list[str] = field(default_factory=list)


def measure(ops, seconds: float, tracer=None, rounds: int | None = None) -> Run:
    """Repeat the operation set in rounds, timing every operation.

    Without ``rounds`` the run stops at the first operation that ends after
    ``seconds``, but never before MIN_ROUNDS whole rounds, so every operation
    has that many repetitions.  With ``rounds`` it runs exactly that many.
    An operation's results are checked until one is correct; each later
    repetition must give a result with that one's fingerprint.
    """
    run = Run(best=[math.inf] * len(ops))
    checked = [False] * len(ops)
    firsts = [None] * len(ops)
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = op.run() if tracer is None else tracer.run_op(op.run, op.kind)
            except Exception as exc:  # a raising operation is a failed one; keep measuring
                elapsed = time.perf_counter() - t0
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                try:
                    if not checked[i]:
                        reason = op.check(result)
                        if reason is None:
                            checked[i], firsts[i] = True, op.fingerprint(result)
                    elif op.fingerprint(result) != firsts[i]:
                        reason = "result differs from the first correct repetition's"
                    else:
                        reason = None
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            run.attempted += 1
            if reason is None:
                run.best[i] = min(run.best[i], elapsed)
            else:
                run.failed += 1
                if len(run.reasons) < MAX_REASONS:
                    run.reasons.append(f"round {run.rounds} {op.kind} (op {i}): {reason}")
            if (rounds is None and run.rounds >= MIN_ROUNDS
                    and time.perf_counter() >= deadline):
                return run
        run.rounds += 1
        if run.rounds == rounds or (rounds is None and run.rounds >= MIN_ROUNDS
                                    and time.perf_counter() >= deadline):
            return run


def summarize(run: Run) -> dict:
    """Throughput and median latency at the stated mix, from each operation's best time.

    A shared 2-vCPU host (Xeon, 2.1 GHz) was seen to change speed by up to
    1.8x for tens of seconds at a time.  A best of repetitions spread over
    the whole run measures the operation at the host's full speed as long as
    some part of the run had it, where a mean or a median over single
    samples moves with the share of the run spent slow.  Every operation of
    the set weighs the same; operations with no correct repetition are left
    out and failed repetitions scale the throughput down by the share that
    succeeded.
    """
    best = sorted(b for b in run.best if b < math.inf)
    if not best:
        return {"ops_per_s": 0.0, "latency_p50_ms": 0.0}
    return {
        "ops_per_s": (run.attempted - run.failed) / run.attempted * len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
    }


def tail_latency(run: Run) -> tuple[float, float, int]:
    """The highest percentile of the operations' best latencies with
    TAIL_BEYOND samples beyond it: the (TAIL_BEYOND + 1)-th slowest operation.

    Operations with no correct repetition are left out.  Returns (seconds,
    percentile, samples strictly beyond it); with too few operations, the
    slowest one and no samples beyond it.
    """
    best = sorted(b for b in run.best if b < math.inf)
    if len(best) <= TAIL_BEYOND:
        return (best[-1] if best else 0.0), 100.0, 0
    tail = best[-(TAIL_BEYOND + 1)]
    pct = 100.0 * (len(best) - TAIL_BEYOND) / len(best)
    return tail, pct, sum(1 for b in best if b > tail)


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running the same set-up."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        sys.exit(f"error: set-up child failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists the metrics of this kind of run."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment_line() -> str:
    import numpy
    import scipy
    return (f"# env: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
            f"BLAS/OpenMP threads {os.environ['OMP_NUM_THREADS']}")


def end_to_end(ops, args, setup_s: float):
    run = measure(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [child_setup_s(args.workload, args.seed)
                          for _ in range(SETUP_REPEATS - 1)]
    tail, tail_pct, beyond = tail_latency(run)
    metrics = {
        "setup_s": statistics.median(setups),
        **summarize(run),
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    problems = []
    if beyond < TAIL_BEYOND:
        problems.append(f"only {beyond} samples lie beyond the tail, fewer than {TAIL_BEYOND}")
    print(f"# {len(ops)} operations, {run.attempted} timed ({run.rounds} whole rounds); "
          f"each operation's latency is the best of its repetitions; latency_tail_ms is "
          f"p{tail_pct:.2f} of the {len(ops)} best latencies, with {beyond} samples beyond it")
    by_kind = {}
    for op, best in zip(ops, run.best):
        by_kind.setdefault(op.kind, []).append(best)
    print("# median best latency by kind: " + ", ".join(
        f"{kind} {statistics.median(times) * 1e3:.2f} ms ({len(times)} ops)"
        for kind, times in sorted(by_kind.items())))
    print(f"# setup_s is the median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setups))
    return run, metrics, problems


def per_layer(ops, args):
    import tracer as tracing

    untraced = measure(ops, args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(ops, 0.0, tracer=tracer, rounds=TRACE_ROUNDS)
    finally:
        tracer.uninstall()
    metrics, facts = tracing.layer_metrics(tracer.spans)
    base = summarize(untraced)["ops_per_s"]
    metrics["trace.overhead_ratio"] = summarize(traced)["ops_per_s"] / base

    problems = []
    certify_expected = facts["certify_distance_calls_expected"]
    if metrics["geodesics.certify.distance_calls"] != certify_expected:
        problems.append(f"certify made {metrics['geodesics.certify.distance_calls']} distance "
                        f"calls, analytic sum of G(G-1)/2+1 is {certify_expected}")
    if all(op.build_entries is not None for op in ops):
        expected = TRACE_ROUNDS * sum(op.build_entries for op in ops)
        if metrics["matching.build.entries"] != expected:
            problems.append(f"matching.build.entries is {metrics['matching.build.entries']}, "
                            f"analytic sum of n^2 is {expected}")
        print(f"# exact counts: matching.build.entries {metrics['matching.build.entries']} "
              f"(analytic {expected})")
    print(f"# exact counts: geodesics.certify.distance_calls "
          f"{metrics['geodesics.certify.distance_calls']} (analytic {certify_expected})")
    for kind, seconds in sorted(tracing.stage_shares(tracer.spans).items()):
        under = seconds.pop("distance")
        if under:
            print(f"# {kind} operations: of {under:.4f} s under matching.distance, "
                  + ", ".join(f"{layer} {t / under:.3f}" for layer, t in seconds.items()))
    if facts["idle_layers"]:
        print("# layers with no calls on this workload (their metrics read 0; the output "
              "lists every per-layer metric): " + ", ".join(facts["idle_layers"]))
    print(f"# enumerate useful ratio base: {facts['enumerate_returned']} matchings returned "
          f"of {facts['enumerate_scanned']} permutations scanned")
    print(f"# trace.overhead_ratio base: untraced {base:.4f} ops/s from the best of "
          f"{untraced.rounds}+ rounds, traced best of {traced.rounds} rounds")
    path = os.path.join(OUT, f"trace-{args.workload}.json")
    tracer.dump(path)
    print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path)}")
    run = Run(best=[], attempted=untraced.attempted + traced.attempted,
              failed=untraced.failed + traced.failed, reasons=untraced.reasons + traced.reasons)
    return run, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.make_ops(workload, args.seed)
    warm_up(workloads.warm_up_ops(workload, args.seed))
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"# pdg perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(environment_line())
    print("# closed loop, one client, one thread: no request ever waits, so wait time "
          "is not measured")
    if args.trace:
        run, metrics, problems = per_layer(ops, args)
    else:
        run, metrics, problems = end_to_end(ops, args, setup_s)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        sys.exit(f"error: the run measured {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")
    print(f"# failed_ratio {run.failed / run.attempted} "
          f"({run.failed} failed of {run.attempted} attempted)")
    for line in run.reasons + problems:
        print(f"# FAIL {line}")
    print(json.dumps({
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
