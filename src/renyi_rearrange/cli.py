"""Command-line interface.

Subcommands
-----------
verify      run randomized verification suites, optionally dumping JSON
entropy     Renyi entropy of a density read from CSV
rearrange   symmetric decreasing rearrangement of a CSV density
ballsum     entropy (and profile facts) of a sum of two ball uniforms
conjecture  iid-maximizer ratio C_{p,1}, an upper bound on the sharp constant
levy        entropy dominance for a diffusion-plus-jumps marginal
epigap      dimensional entropy-power gap for ball uniforms

Exit status: 0 when every requested check passes, 1 when any check
fails, 2 on usage or configuration errors.  JSON output is deterministic:
the same argv and seed produce identical bytes.  verify runs its suites as
independent units in this process and on one forked worker per further
CPU in the affinity mask (see verifier.run_suite_rendered); each unit's
records are rendered where it ran, and the JSON file is written from
them in unit order by reports.write_reports_json, so the bytes do not
depend on the number of processes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .balls import (BallPair, ball_sum_entropy, ball_sum_log_radial, ball_sum_radial,
                    epi_gap_balls)
from .config import QUAD_TOL
from .conjecture import UPPER_BOUND_LABEL, c_constant, ratio_landscape
from .entropy import entropy_power, order, order_label, renyi_entropy
from .errors import DensityError, DensityOverflow
from .grids import read_density_csv, write_density_csv
from .levy import LevySpec, check_levy_dominance
from .rearrange import rearrange_1d
from .reports import summarize, write_reports_json
from .verifier import SUITES, SuiteConfig, run_suite_rendered

__all__ = ["main", "build_parser"]


def _parse_order(token: str) -> float:
    token = token.strip()
    if token.startswith("p="):
        token = token[2:]
    return order(token)


def _print_payload(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi-rearrange",
        description="entropy inequalities under symmetric decreasing rearrangement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=200,
                          help="pair count; triples and smooth corpora scale along")
    p_verify.add_argument("--cells", type=int, default=2048)
    p_verify.add_argument("--json", dest="json_path", default=None,
                          help="write the full report list as JSON")

    p_entropy = sub.add_parser("entropy", help="Renyi entropy of a CSV density")
    p_entropy.add_argument("--density", required=True)
    p_entropy.add_argument("--order", required=True,
                           help="0 | 1 | inf | p=<x> (or a bare number)")

    p_re = sub.add_parser("rearrange", help="rearrange a CSV density")
    p_re.add_argument("--density", required=True)
    p_re.add_argument("--out", required=True)

    p_ball = sub.add_parser("ballsum", help="entropy of a sum of ball uniforms")
    p_ball.add_argument("--dim", type=int, required=True)
    p_ball.add_argument("--r1", type=float, required=True)
    p_ball.add_argument("--r2", type=float, required=True)
    p_ball.add_argument("--entropy-only", action="store_true")

    p_conj = sub.add_parser("conjecture", help="upper bound on the sharp constant")
    p_conj.add_argument("--p", type=float, required=True)
    p_conj.add_argument("--landscape", default=None,
                        help="a1min:a1max:steps for a square scale grid")

    p_levy = sub.add_parser("levy", help="jump-process entropy dominance")
    p_levy.add_argument("--a", type=float, required=True)
    p_levy.add_argument("--lambda", dest="rate", type=float, required=True)
    p_levy.add_argument("--t", type=float, required=True)
    p_levy.add_argument("--jumps", required=True, help="jump density CSV")
    p_levy.add_argument("--orders", default="0.5,1")

    p_gap = sub.add_parser("epigap", help="dimensional EPI gap for balls")
    p_gap.add_argument("--max-dim", type=int, required=True)
    p_gap.add_argument("--lambda", dest="lam", type=float, default=0.5)

    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    config = SuiteConfig(suite=args.suite, seed=args.seed, pairs=args.count,
                         cells=args.cells)
    units = run_suite_rendered(config)
    reports = [rep for unit_reports, _ in units for rep in unit_reports]
    summary = summarize(reports)
    for rep in reports:
        if rep.status == "fail":
            print(f"FAIL {rep.name}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} "
                  f"margin={rep.margin:.3g} tol={rep.tolerance:.3g} seed={rep.seed}")
    print(f"suite={args.suite} seed={args.seed} cells={args.cells} "
          f"checks={summary['total']} passed={summary['passed']} "
          f"failed={summary['failed']} inconclusive={summary['inconclusive']}")
    if args.json_path:
        extra = {"config": {"suite": args.suite, "seed": args.seed,
                            "count": args.count, "cells": args.cells}}
        with open(args.json_path, "w") as fh:
            # each unit's records were rendered where the unit ran
            write_reports_json(fh.write, (records for _, records in units), summary, extra)
            fh.write("\n")
    return 0 if summary["failed"] == 0 else 1


def _cmd_entropy(args: argparse.Namespace) -> int:
    f = read_density_csv(args.density)
    p = _parse_order(args.order)
    h = renyi_entropy(f, p)
    _print_payload({
        "density": args.density,
        "order": order_label(p),
        "entropy": h,
        "entropy_power": entropy_power(f, p),
        "mass": f.mass,
        "cells": f.n_cells,
        "dx": f.dx,
        "tolerance_note": "exact finite sum for a step density",
    })
    return 0


def _cmd_rearrange(args: argparse.Namespace) -> int:
    f = read_density_csv(args.density)
    write_density_csv(rearrange_1d(f), args.out)
    print(f"wrote {args.out}: {2 * f.n_cells} cells at dx={f.dx / 2.0:g}, "
          "level sets preserved exactly")
    return 0


def _cmd_ballsum(args: argparse.Namespace) -> int:
    bp = BallPair(dim=args.dim, r1=args.r1, r2=args.r2)
    h = ball_sum_entropy(bp)
    if args.entropy_only:
        print(repr(h))
        return 0
    payload = {"dim": bp.dim, "r1": bp.r1, "r2": bp.r2, "entropy": h}
    for at, r in (("breakpoint", abs(bp.r1 - bp.r2)), ("origin", 0.0)):
        # the density itself only where it is a float (for a larger radius
        # of 1, up to dim 435); its log always
        with contextlib.suppress(DensityOverflow):
            payload[f"density_at_{at}"] = ball_sum_radial(bp, r)
        payload[f"log_density_at_{at}"] = ball_sum_log_radial(bp, r)
    _print_payload({
        **payload,
        "support_radius": bp.r1 + bp.r2,
        "tolerance_note": ("cap integral: closed-form incomplete Beta in log space; "
                           "radial integral: adaptive composite Gauss-Legendre, the "
                           "10- and 20-point rules agreeing to abs or rel tol "
                           f"{QUAD_TOL}, an error if they cannot"),
    })
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    if args.landscape is None:
        value = c_constant(args.p)
        half = c_constant(args.p, cells=4096)
        _print_payload({
            "p": args.p,
            "c_constant": value,
            "cells": 8192,
            "coarse_value": half,
            "resolution_agreement": abs(value - half),
            "label": UPPER_BOUND_LABEL,
            "tolerance_note": ("grid value of an upper bound on the sharp constant; "
                               "resolutions 8192/4096 should agree to 2e-4"),
        })
        return 0
    try:
        lo_s, hi_s, steps_s = args.landscape.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise DensityError(f"bad --landscape spec {args.landscape!r}") from exc
    if steps < 2 or not (math.inf > hi > lo > 0.0):
        raise DensityError("landscape needs 0 < a1min < a1max < inf and steps >= 2")
    scales = np.linspace(lo, hi, steps)
    grid = [(float(a1), float(a2)) for a1 in scales for a2 in scales]
    points = ratio_landscape(args.p, grid)
    print("a1,a2,ratio")
    for pt in points:
        print(f"{pt.a1!r},{pt.a2!r},{pt.ratio!r}")
    # points with the same scale ratio share one float (every diagonal
    # a1 = a2 among them), so the minimizer is the first of its ties
    low = min(pt.ratio for pt in points)
    ties = [pt for pt in points if pt.ratio == low]
    print(f"# argmin ratio={low:.6g} at (a1,a2)=({ties[0].a1:g},{ties[0].a2:g}), "
          f"first in grid order of {len(ties)} points at the minimum "
          f"[{UPPER_BOUND_LABEL}]", file=sys.stderr)
    return 0


def _cmd_levy(args: argparse.Namespace) -> int:
    jump = read_density_csv(args.jumps)
    spec = LevySpec(a=args.a, rate=args.rate, jump=jump, t=args.t)
    orders = [_parse_order(tok) for tok in args.orders.split(",") if tok.strip()]
    if not orders:
        raise DensityError(f"--orders {args.orders!r} names no order")
    reports = check_levy_dominance(spec, orders)
    for rep in reports:
        flag = "ok" if rep.passed else "FAIL"
        print(f"{flag:4s} {rep.name}: h_p(X_t)={rep.lhs:.6f} "
              f"h_p(Z_t)={rep.rhs:.6f} margin={rep.margin:.2e} tol={rep.tolerance:.2e}")
    summary = summarize(reports)
    print(f"passed={summary['passed']}/{summary['total']}")
    return 0 if summary["failed"] == 0 else 1


# In high dimension the gap grows like (1/2) log(dim): from dim 256 on each
# doubling adds a little less than (log 2)/2 (0.24 to 0.3462 for lambda from
# 0.01 to 0.99, up to dim 4096), so a larger or a negative step is an error.
_EPIGAP_STEP_FROM = 256
_EPIGAP_STEP_MAX = 0.5 * math.log(2.0) + 1e-3


def _cmd_epigap(args: argparse.Namespace) -> int:
    if args.max_dim < 2:
        raise DensityError("--max-dim must be at least 2")
    dims = []
    m = 2
    while m <= args.max_dim:
        dims.append(m)
        m *= 2
    rows = []
    ok = True
    prev_gap = prev_per_dim = None
    for m, gap in zip(dims, epi_gap_balls(dims, args.lam)):
        per_dim = gap / m
        bound = 3.0 * math.log(m) / m
        good = gap >= -1e-9 and per_dim <= bound
        if prev_per_dim is not None and m >= 8 and per_dim > prev_per_dim + 1e-12:
            good = False
        if m >= _EPIGAP_STEP_FROM and not 0.0 < gap - prev_gap <= _EPIGAP_STEP_MAX:
            good = False
        ok = ok and good
        rows.append((m, gap, per_dim, bound, good))
        prev_per_dim = per_dim if m >= 4 else None
        prev_gap = gap
    print(f"{'dim':>4s} {'gap':>12s} {'gap/dim':>12s} {'3 log(dim)/dim':>15s} ok")
    for m, gap, per_dim, bound, good in rows:
        print(f"{m:4d} {gap:12.6f} {per_dim:12.6f} {bound:15.6f} {str(good).lower()}")
    print(f"lambda={args.lam:g}; gap/dim must stay below the bound and "
          f"decrease from dim 4 on; from dim {_EPIGAP_STEP_FROM} on each doubling "
          "must raise the gap by more than 0 and at most (log 2)/2 + 1e-3")
    return 0 if ok else 1


_HANDLERS = {
    "verify": _cmd_verify,
    "entropy": _cmd_entropy,
    "rearrange": _cmd_rearrange,
    "ballsum": _cmd_ballsum,
    "conjecture": _cmd_conjecture,
    "levy": _cmd_levy,
    "epigap": _cmd_epigap,
}


# parse_args keeps no state in the parser, so main builds it once per process
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except DensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
