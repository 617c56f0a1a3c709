"""Per-layer spans around the calls into pdg's public functions.

The tracer never edits the library: it replaces module attributes at the
names callers look functions up through (``pdg.geodesics.distance``,
``pdg.matching.build_augmented_problem``, ...) with timing wrappers, and
restores them afterwards.  Spans are kept in memory with their parent links;
a span's self time is its duration minus the time its child spans cover.
Calls made outside an operation (warm-up, correctness checks) pass straight
through and are not recorded.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from time import perf_counter_ns

import pdg.cli
import pdg.diagram
import pdg.gallery
import pdg.geodesics
import pdg.inequalities
import pdg.matching
import pdg.ot
import pdg.verification


def _slots(args) -> int:
    return len(args[0]) + len(args[1])


#: layer -> public functions whose calls make up that layer.  Layers are the
#: library's modules; matching is split by stage because its stages are what
#: the planned optimizations target.
LAYERS = {
    "diagram.parse": [pdg.diagram.parse_diagram],
    "matching.distance": [pdg.matching.distance],
    "matching.build": [pdg.matching.build_augmented_problem],
    "matching.solve_sum": [pdg.matching.solve_assignment_sum],
    "matching.solve_bottleneck": [pdg.matching.solve_assignment_bottleneck],
    "matching.recompute": [pdg.matching.matching_from_assignment, pdg.matching.matching_cost],
    "matching.enumerate": [pdg.matching.enumerate_optimal_matchings],
    "matching.brute_force": [pdg.matching.brute_force_distance],
    "geodesics.certify": [pdg.geodesics.certify_geodesic],
    "geodesics.classify": [pdg.geodesics.classify_curve],
    "geodesics.convex_combination": [pdg.geodesics.convex_combination],
    "geodesics.branch": [pdg.geodesics.detect_branching],
    "gallery.frame": [pdg.gallery.gallery_frame],
    "ot.verify_ot": [pdg.ot.verify_ot_equivalence],
    "ot.transport_cost": [pdg.ot.transport_cost],
    "inequalities.slack": [
        pdg.inequalities.clarkson_slack,
        pdg.inequalities.convexity_defect_p_slack,
        pdg.inequalities.bcl_slack,
        pdg.inequalities.convexity_defect_2_slack,
        pdg.inequalities.jensen_partition_slack,
        pdg.inequalities.largest_empirical_defect_constant,
    ],
    "verification.metric": [pdg.verification.metric_checks],
    "verification.ot": [pdg.verification.ot_checks],
    "verification.inequalities": [pdg.verification.inequality_checks],
    "verification.gallery": [pdg.verification.gallery_checks],
    "cli.main": [pdg.cli.main],
}

#: Extra facts recorded on a span.  Those computed from the arguments alone are
#: set before the call, so a span whose call raised still has them; enumerate's
#: needs the result and stays None when the call raised.
_ARG_NOTES = {
    "matching.build": lambda args: _slots(args) ** 2,
    "geodesics.certify": lambda args: len(args[0]),
    "geodesics.classify": lambda args: len(args[0]),
}
_RESULT_NOTES = {
    "matching.enumerate": lambda args, result: (len(result), math.factorial(_slots(args))),
}

OP = "op"


class Tracer:
    """Records one span per wrapped call made while an operation is open.

    A span is ``[layer, parent, request, start_ns, end_ns, child_ns, note]``;
    ``parent`` and ``request`` are indexes into ``spans``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        request = self.spans[self._stack[0]][2] if self._stack else len(self.spans)
        span = [layer, parent, request, perf_counter_ns(), 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = perf_counter_ns()
        self._stack.pop()
        if span[1] is not None:
            self.spans[span[1]][5] += span[4] - span[3]

    def run_op(self, fn, kind: str):
        """Run one top-level operation under a root span noted with its kind."""
        span = self._open(OP)
        span[6] = kind
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, layer: str, fn):
        arg_note = _ARG_NOTES.get(layer)
        result_note = _RESULT_NOTES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            note = None if arg_note is None else arg_note(args)
            span = self._open(layer)
            span[6] = note
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if result_note is not None:
                span[6] = result_note(args, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for name, module in list(sys.modules.items()):
            if name != "pdg" and not name.startswith("pdg."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["layer", "parent", "request", "start_ns", "end_ns",
                                  "child_ns", "note"], "spans": self.spans}, handle)


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, object]]:
    """Per-layer self times and counts, plus the exact counts the benchmark checks.

    Returns (metrics, facts): ``facts`` holds the analytic certify count that
    ``geodesics.certify.distance_calls`` must equal, the base of
    ``matching.enumerate.useful_ratio``, and the layers the spans never called.
    """
    self_ns = {layer: 0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    certify_calls_expected = 0
    certify_distance_calls = 0
    distance_inclusive_ns = 0
    entries = 0
    enum_returned = 0
    enum_scanned = 0
    classify_tried = 0
    classify_cc = {}
    for span in spans:
        layer, parent, _, start, end, child, note = span
        if layer == OP:
            continue
        parent_layer = spans[parent][0]
        self_ns[layer] += end - start - child
        # distance's canonical-orientation re-call is part of its caller's call
        nested = layer == parent_layer == "matching.distance"
        if not nested:
            calls[layer] += 1
        if layer == "matching.distance" and not nested:
            distance_inclusive_ns += end - start
            if parent_layer == "geodesics.certify":
                certify_distance_calls += 1
        elif layer == "matching.build":
            entries += note
        elif layer == "matching.enumerate" and note is not None:  # None: the call raised
            enum_returned += note[0]
            enum_scanned += note[1]
        elif layer == "geodesics.certify":
            certify_calls_expected += note * (note - 1) // 2 + 1
        elif layer == "geodesics.convex_combination" and parent_layer == "geodesics.classify":
            classify_cc[parent] = classify_cc.get(parent, 0) + 1
    for classify_span, count in classify_cc.items():
        classify_tried += count // spans[classify_span][6]

    def seconds(layer: str) -> float:
        return self_ns[layer] / 1e9

    metrics = {
        "diagram.parse_s": seconds("diagram.parse"),
        "diagram.parse.calls": calls["diagram.parse"],
        "matching.build_s": seconds("matching.build"),
        "matching.build.calls": calls["matching.build"],
        "matching.build.entries": entries,
        "matching.solve_bottleneck_s": seconds("matching.solve_bottleneck"),
        "matching.solve_bottleneck.calls": calls["matching.solve_bottleneck"],
        "matching.solve_sum_s": seconds("matching.solve_sum"),
        "matching.solve_sum.calls": calls["matching.solve_sum"],
        "matching.recompute_s": seconds("matching.recompute"),
        "matching.recompute.calls": calls["matching.recompute"],
        "matching.distance_s": seconds("matching.distance"),
        "matching.distance.calls": calls["matching.distance"],
        "matching.distance.inclusive_s": distance_inclusive_ns / 1e9,
        "matching.enumerate_s": seconds("matching.enumerate"),
        "matching.enumerate.calls": calls["matching.enumerate"],
        "matching.enumerate.useful_ratio": enum_returned / enum_scanned if enum_scanned else 0.0,
        "matching.brute_force_s": seconds("matching.brute_force"),
        "matching.brute_force.calls": calls["matching.brute_force"],
        "geodesics.certify_s": seconds("geodesics.certify"),
        "geodesics.certify.calls": calls["geodesics.certify"],
        "geodesics.certify.distance_calls": certify_distance_calls,
        "geodesics.classify_s": seconds("geodesics.classify"),
        "geodesics.classify.calls": calls["geodesics.classify"],
        "geodesics.classify.matchings_tried": classify_tried,
        "geodesics.convex_combination_s": seconds("geodesics.convex_combination"),
        "geodesics.branch_s": seconds("geodesics.branch"),
        "gallery.frame_s": seconds("gallery.frame"),
        "ot.verify_ot_s": seconds("ot.verify_ot"),
        "ot.transport_cost_s": seconds("ot.transport_cost"),
        "inequalities.slack_s": seconds("inequalities.slack"),
        "verification.metric_s": seconds("verification.metric"),
        "verification.ot_s": seconds("verification.ot"),
        "verification.inequalities_s": seconds("verification.inequalities"),
        "verification.gallery_s": seconds("verification.gallery"),
        "cli.main_s": seconds("cli.main"),
    }
    facts = {
        "certify_distance_calls_expected": certify_calls_expected,
        "enumerate_scanned": enum_scanned,
        "enumerate_returned": enum_returned,
        "idle_layers": [layer for layer in LAYERS if calls[layer] == 0],
    }
    return metrics, facts


def stage_shares(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per operation kind: seconds under top-level distance calls, and the
    build and solve self times inside them."""
    out: dict[str, dict[str, float]] = {}
    for layer, parent, request, start, end, child, _ in spans:
        if layer == OP:
            continue
        kind = out.setdefault(spans[request][6], {"distance": 0.0, "matching.build": 0.0,
                                                   "matching.solve_sum": 0.0,
                                                   "matching.solve_bottleneck": 0.0})
        if layer == "matching.distance" and spans[parent][0] != "matching.distance":
            kind["distance"] += (end - start) / 1e9
        elif layer in kind:
            kind[layer] += (end - start - child) / 1e9
    return out
