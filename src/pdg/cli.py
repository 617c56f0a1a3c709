"""Command-line front end.

Subcommands map onto the library one to one: ``dist`` and ``geodesic`` take
two diagram files, ``certify`` and ``classify`` take a sampled curve file,
``gallery`` emits a named example curve, and ``verify`` runs the seeded check
suites.  Exit codes: 0 success, 1 verification failure, 2 bad input or
parameters, 3 size guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .diagram import DEFAULT_TOL, MetricParams, parse_diagram, parse_extended
from .errors import PdgError, SizeGuardError, ValidationError
from .gallery import GALLERY_NAMES
from .geodesics import (
    DEFAULT_GRID,
    certify_geodesic,
    classify_curve,
    parse_curve,
    sample_convex_combination,
    sample_gallery,
)
from .matching import Matching, distance
from .verification import SUITES, run_suite


def _read(path: str, parse):
    """parse applied to the bytes of the file at path."""
    with open(path, "rb") as handle:
        return parse(handle.read())


def _params(args: argparse.Namespace, tol: float = DEFAULT_TOL) -> MetricParams:
    return MetricParams(parse_extended(args.p), parse_extended(args.q), tol)


def _emit(text: str, out: str | None) -> None:
    """Write text, ending in a newline, to the file out or else to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _as_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=True)


def _flat_csv(payload: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in payload.items():
        writer.writerow([key, json.dumps(value) if isinstance(value, (dict, list)) else value])
    return buffer.getvalue()


def _pq_json(params: MetricParams) -> dict:
    return {
        "p": "inf" if params.p == math.inf else params.p,
        "q": "inf" if params.q == math.inf else params.q,
    }


def _pair_costs(witness: Matching, p: float) -> list[float]:
    """Each pair's ground cost to the p-th power, the ground itself at p = inf."""
    if p == math.inf:
        return list(witness.grounds)
    costs = []
    for i, g in enumerate(witness.grounds):
        try:
            costs.append(g ** p)
        except OverflowError:
            raise ValidationError(
                f"left slot {i} pairs with right slot {witness.assignment[i]} at ground cost {g!r}, "
                f"whose p-th power (p = {p:g}) overflows a float"
            ) from None
    return costs


def _run_dist(args: argparse.Namespace) -> dict:
    x = _read(args.x, parse_diagram)
    y = _read(args.y, parse_diagram)
    params = _params(args)
    value, witness = distance(x, y, params)
    return {
        **_pq_json(params),
        "value": value,
        "assignment": list(witness.assignment),
        "pair_costs": _pair_costs(witness, params.p),
        "total": witness.total,
    }


def _run_geodesic(args: argparse.Namespace) -> dict:
    x = _read(args.x, parse_diagram)
    y = _read(args.y, parse_diagram)
    params = _params(args)
    value, witness = distance(x, y, params)
    curve = sample_convex_combination(x, y, witness, args.grid)
    return {
        **_pq_json(params),
        "grid": args.grid,
        "value": value,
        "assignment": list(witness.assignment),
        "curve": curve.to_dict(),
    }


def _run_certify(args: argparse.Namespace) -> dict:
    curve = _read(args.curve, parse_curve)
    params = _params(args, args.tol)
    return {**_pq_json(params), **certify_geodesic(curve, params).to_dict()}


def _run_classify(args: argparse.Namespace) -> dict:
    curve = _read(args.curve, parse_curve)
    params = _params(args, args.tol)
    return {**_pq_json(params), **classify_curve(curve, params).to_dict()}


def _run_gallery(args: argparse.Namespace) -> dict:
    curve = sample_gallery(args.name, args.grid, k=args.k, j=args.j, l=args.l, r=args.r)
    return {
        "name": args.name,
        "grid": args.grid,
        "k": args.k,
        "j": args.j,
        "l": args.l,
        "r": args.r,
        "curve": curve.to_dict(),
    }


def _run_verify(args: argparse.Namespace) -> int:
    checks = run_suite(args.suite, args.seed, trials=args.trials, draws=args.draws, grid=args.grid)
    failures = [c for c in checks if not c.passed]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "params", "measured", "expected", "pass"])
        for check in checks:
            writer.writerow([
                check.name, check.params, check.measured, check.expected,
                "pass" if check.passed else "fail",
            ])
        text = buffer.getvalue()
    else:
        text = _as_json({
            "suite": args.suite,
            "seed": args.seed,
            "checks": [
                {
                    "name": c.name,
                    "params": c.params,
                    "measured": c.measured,
                    "expected": c.expected,
                    "pass": c.passed,
                }
                for c in checks
            ],
            "failures": len(failures),
        })
    _emit(text, args.out)
    if failures:
        first = failures[0]
        sys.stderr.write(
            f"FAIL {first.name} [{first.params}]: measured {first.measured}, "
            f"expected {first.expected}\n"
        )
        return 1
    return 0


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", default="2", help="outer exponent in [1, inf], 'inf' allowed")
    parser.add_argument("--q", default="2", help="ground norm exponent in [1, inf], 'inf' allowed")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdg",
        description="exact matching distances, geodesics, and verification for persistence diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="distance between two diagram files")
    dist.add_argument("x")
    dist.add_argument("y")
    _add_metric_flags(dist)
    _add_output_flags(dist)
    dist.set_defaults(func=_run_dist)

    geo = sub.add_parser("geodesic", help="sampled convex-combination path between two diagrams")
    geo.add_argument("x")
    geo.add_argument("y")
    _add_metric_flags(geo)
    geo.add_argument("--grid", type=int, default=DEFAULT_GRID, help="number of samples")
    _add_output_flags(geo)
    geo.set_defaults(func=_run_geodesic)

    for name, func, text in (
        ("certify", _run_certify, "check a sampled curve for constant-speed geodesy"),
        ("classify", _run_classify, "classify a sampled curve against endpoint matchings"),
    ):
        judge = sub.add_parser(name, help=text)
        judge.add_argument("curve")
        _add_metric_flags(judge)
        # the only results that read the tolerance
        judge.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numerical tolerance")
        _add_output_flags(judge)
        judge.set_defaults(func=func)

    gal = sub.add_parser("gallery", help="emit a named example curve")
    gal.add_argument("name", choices=GALLERY_NAMES)
    gal.add_argument("--grid", type=int, default=DEFAULT_GRID)
    gal.add_argument("--k", type=float, default=10.0, help="tall point height")
    gal.add_argument("--j", type=float, default=3.0, help="low point scale")
    gal.add_argument("--l", type=float, default=1.0, help="alternate low point scale")
    gal.add_argument("--r", type=float, default=0.5, help="ascent split in [0, 1]")
    _add_output_flags(gal)
    gal.set_defaults(func=_run_gallery)

    ver = sub.add_parser("verify", help="run a seeded verification suite")
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=50, help="random trials per parameter pair")
    ver.add_argument("--draws", type=int, default=1000, help="random draws per inequality")
    ver.add_argument("--grid", type=int, default=DEFAULT_GRID,
                     help="gallery samples per curve, odd and at least 3 so t = 1/2 is sampled")
    _add_output_flags(ver)
    ver.set_defaults(func=_run_verify)

    return parser


#: Commands whose output holds a curve, which has no flat csv form.
_CURVE_COMMANDS = ("geodesic", "gallery")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":  # renders its own table and exits 1 on a failed check
            return args.func(args)
        if args.format == "csv" and args.command in _CURVE_COMMANDS:
            raise PdgError("curve output has no csv form; use --format json")
        payload = args.func(args)
        _emit(_flat_csv(payload) if args.format == "csv" else _as_json(payload), args.out)
        return 0
    except SizeGuardError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (PdgError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
