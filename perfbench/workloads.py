"""The benchmark's workloads: seeded inputs, the operation mix and its checks.

A workload is a cycle template: a fixed list of operations (its stated mix).
A run's operation set is ``copies`` cycles whose inputs are drawn from
``numpy.random.default_rng(seed)``, so a seed always gives the same inputs.
The run repeats the whole set in rounds.  Every operation is one library
call sequence a caller would make and wait for (closed loop, one client);
its check runs after the timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pdg
import pdg.cli

import checks

INF = math.inf


@dataclass
class Op:
    """One top-level operation: ``run`` is timed, ``check`` is not.

    ``check`` judges the operation's first result; every later repetition
    must give a result with the same ``fingerprint``.  ``build_entries`` is
    the analytic sum of n^2 over the matching builds the operation makes,
    where it is known.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    fingerprint: Callable[[object], object]
    build_entries: int | None = None


@dataclass(frozen=True)
class Workload:
    make_cycle: Callable[[np.random.Generator], list[Op]]
    copies: int  # cycles in a run's operation set


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    births = rng.uniform(-5.0, 5.0, n)
    return np.column_stack([births, births + rng.uniform(0.1, 4.0, n)])


def diagram_json(points: np.ndarray) -> bytes:
    return json.dumps({"points": points.tolist()}).encode("utf-8")


# ---------------------------------------------------------------------------
# dist: parse two diagrams, then one distance


def distance_op(rng: np.random.Generator, n: int, p: float, q: float) -> Op:
    xs, ys = random_points(rng, n), random_points(rng, n)
    xj, yj = diagram_json(xs), diagram_json(ys)
    params = pdg.MetricParams(p, q)

    def run():
        x = pdg.parse_diagram(xj)
        y = pdg.parse_diagram(yj)
        value, witness = pdg.distance(x, y, params)
        return x, y, value, witness

    def check(result):
        x, y, value, witness = result
        repriced = pdg.matching_cost(x, y, witness, params)
        if p == INF:
            return checks.check_bottleneck(xs, ys, q, value, repriced)
        return checks.check_finite(xs, ys, p, q, value, repriced)

    kind = "bottleneck" if p == INF else "finite"
    return Op(kind, run, check, lambda result: result[2:], build_entries=(2 * n) ** 2)


# Why dist: finite p and p = inf take one parse-and-distance path but spend
# it in different layers.  At finite p the scalar per-slot cost build
# dominates the C solve; at p = inf the recursive threshold search dominates
# the build.  The trace splits the two, so a faster build or a faster
# bottleneck solver each shows in its own layer and barely in the other.
# Sizes stay small (25, 35 and 50 points per side finite, 10, 15 and 20 at
# p = inf; 1-10 ms an operation) so that an operation is short enough to
# fall in the brief spells at which a shared host runs at full speed.  The
# largest bottleneck size stays below the largest finite one in time, whose
# 54 operations have little spread, so the tail comes from them.
def dist_cycle(rng: np.random.Generator) -> list[Op]:
    finite = [distance_op(rng, n, p, q)
              for n in (25, 35, 50) for p in (1.0, 1.5, 2.0) for q in (1.0, 2.0, INF)]
    return finite + [distance_op(rng, n, INF, q) for n in (10, 15, 20) for q in (1.0, 2.0, INF)]


# ---------------------------------------------------------------------------
# verify: the seeded check suites through the command-line entry point


#: Suite sizes passed to every suite; each suite reads the ones it uses.  At the
#: defaults a suite runs for up to a second (inequalities 0.9 s, gallery at
#: grid 33 0.8 s), too long to repeat often enough in a run; at these sizes
#: a suite takes 10-30 ms and still passes.
VERIFY_SIZES = ["--trials", "2", "--draws", "10", "--grid", "5"]


def verify_op(suite: str, seed: int) -> Op:
    argv = ["verify", suite, "--seed", str(seed), *VERIFY_SIZES]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pdg.cli.main(argv)
        return code, out.getvalue()

    return Op(suite, run, lambda result: checks.check_verify_output(*result), lambda result: result)


# Why verify: the only workload where ot, inequalities, verification and cli
# do most of the work; the gallery suite adds certify, classify and branch
# detection on many tiny frames.  Twelve seeds of each suite, so the slowest
# suite alone holds the tail's eleven slowest operations.
def verify_cycle(rng: np.random.Generator) -> list[Op]:
    return [verify_op(suite, int(rng.integers(0, 2**31 - 1)))
            for suite in ("metric", "ot", "inequalities", "gallery")]


WORKLOADS = {
    "dist": Workload(dist_cycle, copies=6),
    "verify": Workload(verify_cycle, copies=12),
}


def make_ops(workload: Workload, seed: int) -> list[Op]:
    """The run's operation set, in a seeded order that interleaves the kinds."""
    rng = np.random.default_rng(seed)
    ops = [op for _ in range(workload.copies) for op in workload.make_cycle(rng)]
    return [ops[k] for k in rng.permutation(len(ops))]


def warm_up_ops(workload: Workload, seed: int) -> list[Op]:
    """One operation of each kind, on inputs the measured set never uses."""
    first = {}
    for op in workload.make_cycle(np.random.default_rng([seed, 1])):
        first.setdefault(op.kind, op)
    return list(first.values())
