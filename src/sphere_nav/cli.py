"""Batch-simulation command line.

    sphere-nav validate <file> [--samples N] [--seed S]
    sphere-nav run <file> [--parallel N] [--out DIR] [--seed S]
    sphere-nav diagnose <file> [--at x0,x1,...] [--equilibria]
    sphere-nav sweep <file> --param kappa --values 0.5,1,2 [--out DIR]

Exit codes: 0 ok, 1 validation failure, 2 runtime failure.  The environment
variable SPHERE_NAV_SEED overrides the scenario's initial-condition seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import InvariantViolation, ScenarioParseError, SphereNavError
from .scenario import (
    SHADOW_SAMPLES,
    diagnose_scenario,
    parse_scenario,
    run_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _load(path: str):
    try:
        return parse_scenario(path), None
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION
    except InvariantViolation as exc:
        print("scenario invariants violated:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_validate(args) -> int:
    sc, err = _load(args.scenario)
    if sc is None:
        return err
    report = validate_scenario(sc, samples=args.samples, seed=args.seed)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_run(args) -> int:
    sc, err = _load(args.scenario)
    if sc is None:
        return err
    report = run_scenario(sc, parallel=args.parallel, out_dir=args.out,
                          seed=args.seed, include_validation=True)
    print(report.to_json(), end="")
    if any(r.verdict == "aborted" for r in report.results):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_diagnose(args) -> int:
    sc, err = _load(args.scenario)
    if sc is None:
        return err
    try:
        points = [[float(v) for v in args.at.split(",")]] if args.at else []
    except ValueError:
        print("runtime failure: --at expects a comma-separated number list", file=sys.stderr)
        return EXIT_RUNTIME
    report = diagnose_scenario(sc, points=points,
                               equilibria=args.equilibria or not points)
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    sc, err = _load(args.scenario)
    if sc is None:
        return err
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        print("--values expects a comma-separated number list", file=sys.stderr)
        return EXIT_RUNTIME
    if args.param not in ("kappa", "k1", "epsilon", "dt"):
        print(f"unsupported sweep parameter {args.param!r}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.param == "kappa" and sc.law != "star-piecewise":
        print(f"only the star-piecewise law reads kappa; this scenario uses {sc.law}",
              file=sys.stderr)
        return EXIT_RUNTIME
    out = []
    for v in values:
        try:
            if args.param == "dt":
                sweep_sc = replace(sc, sim=replace(sc.sim, dt=v))
            else:
                sweep_sc = replace(sc, **{args.param: v})
            report = run_scenario(sweep_sc, parallel=args.parallel,
                                  out_dir=None, seed=args.seed)
        except (SphereNavError, ValueError) as exc:
            print(f"runtime failure at {args.param}={v}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        out.append({"value": v, "n_converged": report.n_converged,
                    "n_safe": report.n_safe, "n_runs": len(report.results)})
    print(json.dumps({"scenario": sc.name, "param": args.param, "sweep": out},
                     sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphere-nav",
                                description="safe stabilization on the n-sphere")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check every configuration assumption")
    v.add_argument("scenario")
    v.add_argument("--samples", type=int, default=SHADOW_SAMPLES,
                   help="Monte-Carlo budget for region disjointness")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("run", help="integrate every initial condition")
    r.add_argument("scenario")
    r.add_argument("--parallel", type=int, default=1)
    r.add_argument("--out", default=None, help="directory for CSVs and summary")
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(func=cmd_run)

    d = sub.add_parser("diagnose", help="finite-difference spectra at equilibria")
    d.add_argument("scenario")
    d.add_argument("--at", default=None, help="comma-separated point coordinates")
    d.add_argument("--equilibria", action="store_true",
                   help="include the target and its antipode")
    d.set_defaults(func=cmd_diagnose)

    s = sub.add_parser("sweep", help="re-run the batch over a parameter grid")
    s.add_argument("scenario")
    s.add_argument("--param", required=True)
    s.add_argument("--values", required=True)
    s.add_argument("--parallel", type=int, default=1)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SphereNavError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
