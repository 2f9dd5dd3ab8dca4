"""Command-line front end: symbolic solves, numeric sweeps, flow experiments.

Subcommands: bch, solve-kv, check-kv1, check-kv2, geom-run, flow.
Every command emits a JSON report (stdout, and to --out when given); the
human-readable lines are renderings of the same data.  Exit codes: 0 when
all checks pass, 1 on a tolerance/zero-residual failure (report is still
written) or an OutsideDomainError (no report), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone
from typing import Dict, List, Optional

from . import cyclic, freelie, geom, kvsolve
from .freelie import format_fraction
from .matrixlie import OutsideDomainError, builtin_algebras, get_algebra, load_algebra

MAX_DEGREE = 10


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        d = os.path.dirname(os.path.abspath(out))
        os.makedirs(d, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text)


def _series_entries(series: freelie.LieSeries) -> List[dict]:
    return [{"word": w, "c": format_fraction(c)} for w, c in series.items()]


def _resolve_algebra(args: argparse.Namespace):
    if args.algebra_file:
        return load_algebra(args.algebra_file)
    return get_algebra(args.algebra)


def _tolerances(args: argparse.Namespace) -> Dict[str, float]:
    """geom.DEFAULT_TOLERANCES with the --tol-* values given on the command line."""
    tol = dict(geom.DEFAULT_TOLERANCES)
    for flag, key in _TOL_FLAGS.items():
        if getattr(args, flag, None) is not None:
            tol[key] = getattr(args, flag)
    return tol


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_bch(args: argparse.Namespace) -> int:
    series = freelie.bch(args.degree, args.order)
    for w, c in series.items():
        print(f"{w}: {format_fraction(c)}")
    report = {
        "command": "bch",
        "degree": args.degree,
        "order": args.order,
        "coeffs": _series_entries(series),
        "timestamp": _timestamp(),
    }
    _emit(report, args.out)
    return 0


def _residual1(args: argparse.Namespace, pair: kvsolve.KVPair) -> freelie.LieSeries:
    # through degree + 1: the top parts A_N, B_N first enter there
    return kvsolve.kv1_residual(pair, args.degree + 1)


def _residual2_report(args: argparse.Namespace, pair: kvsolve.KVPair):
    """The trace residual and its report entry (raw and folded by reversal)."""
    resid2 = cyclic.kv2_residual(pair.A, pair.B, args.degree)
    return resid2, {"raw": resid2.to_json_dict(),
                    "mod_reversal": cyclic.fold_reversal(resid2).to_json_dict()}


def cmd_solve_kv(args: argparse.Namespace) -> int:
    pair = kvsolve.solve_kv(args.degree, args.strategy)
    resid1 = _residual1(args, pair)
    _, resid2_report = _residual2_report(args, pair)
    report = {
        "command": "solve-kv",
        "degree": args.degree,
        "strategy": args.strategy,
        "A": _series_entries(pair.A),
        "B": _series_entries(pair.B),
        "residual1": "0" if resid1.is_zero() else str(resid1),
        "residual2_report": resid2_report,
        "timestamp": _timestamp(),
    }
    _emit(report, args.out)
    return 0 if resid1.is_zero() else 1


def cmd_check_kv1(args: argparse.Namespace) -> int:
    resid1 = _residual1(args, kvsolve.solve_kv(args.degree, args.strategy))
    ok = resid1.is_zero()
    print(f"kv1 residual (degree {args.degree}, {args.strategy}): "
          f"{'0' if ok else 'NONZERO'}")
    _emit({"command": "check-kv1", "degree": args.degree, "strategy": args.strategy,
           "residual1": "0" if ok else str(resid1), "pass": ok,
           "timestamp": _timestamp()}, args.out)
    return 0 if ok else 1


def cmd_check_kv2(args: argparse.Namespace) -> int:
    pair = kvsolve.solve_kv(args.degree, args.strategy)
    resid2, resid2_report = _residual2_report(args, pair)
    ok = resid2.is_zero()
    print(f"kv2 necklace residual (degree {args.degree}, {args.strategy}): "
          f"{'0' if ok else 'nonzero, see report'}")
    _emit({"command": "check-kv2", "degree": args.degree, "strategy": args.strategy,
           "residual2_report": resid2_report,
           "pass": ok, "timestamp": _timestamp()}, args.out)
    return 0 if ok else 1


def cmd_geom_run(args: argparse.Namespace) -> int:
    algs = builtin_algebras() if args.algebra == "all" else [_resolve_algebra(args)]
    for alg in algs:    # a usage error before any sweep prints
        geom.check_radius(alg, args.radius)
    reports = []
    for alg in algs:
        rep = geom.run_geometry_suite(
            alg, n_samples=args.samples, seed=args.seed, radius=args.radius,
            steps=args.steps, tolerances=_tolerances(args))
        reports.append(rep)
        res = rep["residuals"]
        print(f"[{alg.name}] eq1.max={res['eq1']['max']:.3e} "
              f"eq2.max={res['eq2']['max']:.3e} "
              f"kappaVsLambda.max={res['kappaVsLambda']['max']:.3e} "
              f"pass={rep['pass']}")
    all_pass = all(rep["pass"] for rep in reports)
    report = reports[0] if len(reports) == 1 else {"reports": reports, "pass": all_pass}
    report["timestamp"] = _timestamp()
    _emit(report, args.out)
    return 0 if all_pass else 1


def cmd_flow(args: argparse.Namespace) -> int:
    alg = _resolve_algebra(args)
    tol = _tolerances(args)
    P = geom.sample_points(alg, args.samples, args.seed, args.radius)
    phi_drift, vol_drift = geom.transport_drift(alg, P, args.steps)
    ok = phi_drift <= tol["transportPhi"] and vol_drift <= tol["transportVol"]
    print(f"[{alg.name}] flow steps={args.steps} points={args.samples} "
          f"maxPhiDrift={phi_drift:.3e} maxVolDrift={vol_drift:.3e} pass={ok}")
    _emit({"command": "flow", "algebra": alg.name, "steps": args.steps,
           "samples": args.samples, "seed": args.seed, "radius": args.radius,
           "transportPhi": {"max": phi_drift}, "transportVol": {"max": vol_drift},
           "tolerances": {"transportPhi": tol["transportPhi"],
                          "transportVol": tol["transportVol"]},
           "pass": ok, "timestamp": _timestamp()}, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing

# --tol-* flags and the tolerance each sets: flow checks the transport
# tolerances alone, geom-run all seven
_FLOW_TOL_FLAGS = {
    "tol_transport_phi": "transportPhi",
    "tol_transport_vol": "transportVol",
}
_TOL_FLAGS = {
    "tol_eq1": "eq1",
    "tol_eq2": "eq2",
    "tol_kappa_lambda": "kappaVsLambda",
    "tol_jacobi": "jacobi",
    "tol_moment": "momentMap",
    **_FLOW_TOL_FLAGS,
}


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report to this path")


def _add_numeric(p: argparse.ArgumentParser, tol_flags: Dict[str, str]) -> None:
    p.add_argument("--algebra", default="so3",
                   help="so3 | sl2 | gl2 | all (default so3)")
    p.add_argument("--algebra-file", help="JSON descriptor of a custom algebra")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--radius", type=float, default=0.3)
    p.add_argument("--steps", type=int, default=200)
    for flag in tol_flags:
        p.add_argument("--" + flag.replace("_", "-"), type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kvgeom",
        description="Kashiwara-Vergne equations: exact symbolic solver and "
                    "Poisson-geometric verification on quadratic Lie algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bch", help="Campbell-Hausdorff coefficients in the Lyndon basis")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--order", choices=("XY", "YX"), default="XY")
    _add_out(p)

    for name in ("solve-kv", "check-kv1", "check-kv2"):
        p = sub.add_parser(name)
        p.add_argument("--degree", type=int, default=8)
        p.add_argument("--strategy", choices=("eq1-only", "joint-eq1-eq2"),
                       default="eq1-only")
        _add_out(p)

    p = sub.add_parser("geom-run", help="numeric verification sweep")
    _add_numeric(p, _TOL_FLAGS)
    _add_out(p)

    p = sub.add_parser("flow", help="Moser flow transport experiment")
    _add_numeric(p, _FLOW_TOL_FLAGS)
    _add_out(p)

    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses, built on first use: parse_args leaves it as it was."""
    return build_parser()


def _check_args(args: argparse.Namespace) -> None:
    """The usage rules argparse does not state; ValueError if one fails."""
    if not 1 <= getattr(args, "degree", 1) <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE} (the golden digests "
                         "pin the reports only that far)")
    if getattr(args, "samples", 1) < 1:
        raise ValueError("samples must be >= 1")
    if getattr(args, "steps", 2) < 2:
        raise ValueError("steps must be >= 2")
    if getattr(args, "algebra", None) == "all" and getattr(args, "algebra_file", None):
        raise ValueError("--algebra all cannot be combined with --algebra-file")


_DISPATCH = {
    "bch": cmd_bch,
    "solve-kv": cmd_solve_kv,
    "check-kv1": cmd_check_kv1,
    "check-kv2": cmd_check_kv2,
    "geom-run": cmd_geom_run,
    "flow": cmd_flow,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        return _DISPATCH[args.command](args)
    except kvsolve.InfeasibleDegreeError as exc:
        # the solve commands report an infeasible degree and exit 1
        _emit({"command": args.command, "degree": args.degree, "strategy": args.strategy,
               "error": str(exc), "timestamp": _timestamp()}, args.out)
        return 1
    except OutsideDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
