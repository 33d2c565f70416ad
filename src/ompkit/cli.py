"""Command-line front end.

Four subcommands cover the library surface: ``solve`` discriminates an
ensemble file, ``check`` tests whether a channel file preserves its optimal
measurement, ``family`` emits the linear family of preserving channels and a
sieve of admissible members, and ``examples`` replays the built-in reference
cases against frozen goldens.

Exit codes are part of the interface so shell pipelines can branch on them:
0 success or positive verdict, 1 negative verdict (not preserving, or a
failed example), 2 unreadable or malformed input, 3 input that parses but
violates a library invariant, 4 solver or cross-validation failure, 5 channel
not completely positive and trace preserving.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import DEFAULT_TOL, Tolerances
from .discrimination import povm_value, povm_weights, solve
from .errors import (
    ChannelNotCPTP,
    ConsistencyError,
    ConvergenceFailure,
    FormatError,
    OmpkitError,
)
from .fileio import load_channel, load_ensemble
from .gallery import run_all
from .omp_check import check_omp
from .omp_construct import delta_slice, family_for, sieve_admissible, unital_slice

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_SOLVER = 4
EXIT_NOT_CPTP = 5


def _indices(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("index list is empty")
    return values


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _nonnegative(text: str) -> float:
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _tolerances(args) -> Tolerances:
    return Tolerances(psd_tol=args.psd_tol, rank_tol=args.rank_tol, match_tol=args.tol)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _nonnegative_int(os.environ.get("OMPKIT_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise FormatError(f"OMPKIT_SEED: {exc}") from None


def _arr(a) -> list:
    return np.asarray(a).tolist()


def _emit(args, command: str, tol: Tolerances, payload: dict, render_text) -> None:
    report = {
        "tool": "ompkit",
        "version": __version__,
        "command": command,
        "tolerances": {
            "psd_tol": tol.psd_tol,
            "rank_tol": tol.rank_tol,
            "match_tol": tol.match_tol,
        },
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report.update(payload)
    if args.json:
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = "".join(line + "\n" for line in render_text(report))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _solve_text(report: dict) -> list:
    lines = [
        f"p_guess: {report['p_guess']!r}",
        f"symmetry op: alpha={report['symmetry_op']['alpha']!r} "
        f"beta={report['symmetry_op']['beta']!r}",
        f"identified: {report['identified']}",
    ]
    for x, tag in enumerate(report["case_tags"]):
        lines.append(
            f"state {x}: tag={tag} gap={report['gaps'][x]!r} "
            f"comp={report['comp_states'][x]!r} weight={report['povm_weights'][x]!r}"
        )
    if "measurement" in report:
        m = report["measurement"]
        lines.append(
            f"measurement on {m['index_set']}: weights={m['weights']!r} value={m['value']!r}"
        )
    return lines


def cmd_solve(args) -> int:
    tol = _tolerances(args)
    ens = load_ensemble(args.ensemble)
    sol = solve(ens, tol)
    payload = {
        "ensemble": {"priors": _arr(ens.priors), "blochs": _arr(ens.blochs)},
        "p_guess": sol.p_guess,
        "symmetry_op": {"alpha": sol.symmetry_op.alpha, "beta": _arr(sol.symmetry_op.beta)},
        "gaps": _arr(sol.gaps),
        "comp_states": _arr(sol.comp_states),
        "identified": list(sol.identified),
        "case_tags": [tag.value for tag in sol.case_tags],
        "povm_weights": _arr(sol.povm_weights),
    }
    if args.measurement is not None:
        weights = povm_weights(ens, sol, args.measurement, tol)
        payload["measurement"] = {
            "index_set": sorted(args.measurement),
            "weights": _arr(weights),
            "value": povm_value(ens, sol, weights),
        }
    _emit(args, "solve", tol, payload, _solve_text)
    return EXIT_OK


def _check_text(report: dict) -> list:
    verdict = "preserves the optimal measurement" if report["is_omp"] else "does NOT preserve it"
    return [
        f"verdict: {verdict} ({report['mode']})",
        f"delta: {report['delta']!r}",
        f"max residual: {max(report['residuals'])!r}",
        f"degradation within bounds: {report['r_bound_ok']}",
        f"index set: {report['index_set']}",
        f"p_guess before: {report['p_guess_before']!r} after: {report['p_guess_after']!r}",
    ]


def cmd_check(args) -> int:
    tol = _tolerances(args)
    ens = load_ensemble(args.ensemble)
    channel = load_channel(args.channel)
    report = check_omp(ens, channel, index_set=args.weak, tol=tol)
    payload = {
        "is_omp": bool(report.is_omp),
        "delta": float(report.delta),
        "residuals": _arr(report.residuals),
        "r_bound_ok": bool(report.r_bound_ok),
        "index_set": sorted(report.index_set),
        "mode": report.mode.value,
        "p_guess_before": report.p_guess_before,
        "p_guess_after": report.p_guess_after,
    }
    _emit(args, "check", tol, payload, _check_text)
    return EXIT_OK if report.is_omp else EXIT_NEGATIVE


def _family_text(report: dict) -> list:
    lines = [
        f"index set: {report['index_set']}",
        f"nullity: {report['nullity']}",
        "pair rows:",
    ]
    lines.extend(f"  {row!r}" for row in report["pair_rows"])
    lines.append(f"particular: {report['particular']!r}")
    lines.append(
        f"sieve: kept {report['kept']} of {report['samples_requested']} "
        f"(seed {report['seed']}, box {report['box']!r}, slice {report['slice']})"
    )
    for sample in report["samples"][:5]:
        lines.append(f"  delta={sample['delta']!r} D={sample['D']!r} t={sample['t']!r}")
    if report["kept"] > 5:
        lines.append(f"  ... {report['kept'] - 5} more in the JSON report")
    return lines


def cmd_family(args) -> int:
    tol = _tolerances(args)
    seed = _seed(args)
    ens = load_ensemble(args.ensemble)
    fam = family_for(ens, tol=tol)
    slice_name = "full"
    if args.unital:
        fam = unital_slice(fam, tol)
        slice_name = "unital"
    if args.fixed_delta is not None:
        fam = delta_slice(fam, args.fixed_delta, tol)
        slice_name = f"{slice_name}+delta" if slice_name != "full" else "delta"
    kept = sieve_admissible(fam, count=args.samples, seed=seed, box=args.box, tol=tol)
    payload = {
        "index_set": sorted(fam.system.index_set),
        "pair_rows": _arr(fam.system.helstrom_rows),
        "prior_diffs": _arr(fam.system.prior_diffs),
        "comp_diffs": _arr(fam.system.comp_diffs),
        "coeff_matrix": _arr(fam.system.coeff_matrix),
        "particular": _arr(fam.particular),
        "null_basis": _arr(fam.null_basis),
        "nullity": fam.dim,
        "slice": slice_name,
        "samples_requested": args.samples,
        "seed": seed,
        "box": args.box,
        "kept": len(kept),
        "samples": [
            {
                "D": _arr(s.channel.matrix),
                "t": _arr(s.channel.shift),
                "delta": s.delta,
                "coeffs": _arr(s.coeffs),
            }
            for s in kept
        ],
    }
    _emit(args, "family", tol, payload, _family_text)
    return EXIT_OK


def _examples_text(report: dict) -> list:
    lines = []
    for case in report["cases"]:
        lines.append(f"{case['name']:<12} {'PASS' if case['passed'] else 'FAIL'}")
        if not case["passed"]:
            for check in case["checks"]:
                if not check["passed"]:
                    lines.append(f"    {check['label']}: {check['detail']}")
    passed = sum(1 for case in report["cases"] if case["passed"])
    lines.append(f"{passed}/{len(report['cases'])} PASS")
    return lines


def cmd_examples(args) -> int:
    tol = _tolerances(args)
    reports = run_all(tol)
    payload = {
        "cases": [
            {
                "name": rep.name,
                "passed": bool(rep.passed),
                "checks": [
                    {"label": c.label, "passed": c.passed, "detail": c.detail}
                    for c in rep.checks
                ],
            }
            for rep in reports
        ],
        "all_passed": all(rep.passed for rep in reports),
    }
    _emit(args, "examples", tol, payload, _examples_text)
    return EXIT_OK if payload["all_passed"] else EXIT_NEGATIVE


def _add_common(sub) -> None:
    sub.add_argument("--tol", type=_positive, default=DEFAULT_TOL.match_tol,
                     help="residual tolerance for equality of operator expressions")
    sub.add_argument("--psd-tol", type=_positive, default=DEFAULT_TOL.psd_tol,
                     help="eigenvalue tolerance for positivity decisions")
    sub.add_argument("--rank-tol", type=_positive, default=DEFAULT_TOL.rank_tol,
                     help="relative singular-value cutoff for rank decisions")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--output", help="write the report to a file instead of stdout")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp field for byte-reproducible reports")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args returns a fresh
    namespace on every call, so no option carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="ompkit",
        description="Optimal discrimination of qubit ensembles and "
        "measurement-preserving channels.",
    )
    parser.add_argument("--version", action="version", version=f"ompkit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_solve = commands.add_parser("solve", help="discriminate an ensemble file")
    p_solve.add_argument("ensemble", help="path to an ensemble JSON file")
    p_solve.add_argument("--measurement", type=_indices, default=None, metavar="I,J,...",
                         help="also report the optimal measurement supported on these states")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = commands.add_parser("check", help="test whether a channel preserves "
                                  "the ensemble's optimal measurement")
    p_check.add_argument("ensemble", help="path to an ensemble JSON file")
    p_check.add_argument("channel", help="path to a channel JSON file")
    p_check.add_argument("--weak", type=_indices, default=None, metavar="I,J,...",
                         help="check the measurement supported on this subset only")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_family = commands.add_parser("family", help="construct the family of "
                                   "measurement-preserving channels")
    p_family.add_argument("ensemble", help="path to an ensemble JSON file")
    p_family.add_argument("--samples", type=_nonnegative_int, default=1000,
                          help="number of sieve draws (default 1000)")
    p_family.add_argument("--seed", type=_nonnegative_int, default=None,
                          help="RNG seed (default: OMPKIT_SEED env var, else 0)")
    p_family.add_argument("--box", type=_nonnegative, default=2.0,
                          help="half-width of the coefficient sampling box (default 2)")
    p_family.add_argument("--unital", action="store_true",
                          help="restrict to channels with zero shift")
    p_family.add_argument("--fixed-delta", type=_finite, default=None, metavar="D",
                          help="restrict to members with this degradation")
    _add_common(p_family)
    p_family.set_defaults(func=cmd_family)

    p_examples = commands.add_parser("examples", help="replay the built-in reference "
                                     "cases against frozen goldens")
    _add_common(p_examples)
    p_examples.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    """Run the CLI on ``argv`` and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"ompkit: input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ChannelNotCPTP as exc:
        print(f"ompkit: channel error: {exc}", file=sys.stderr)
        return EXIT_NOT_CPTP
    except (ConvergenceFailure, ConsistencyError) as exc:
        print(f"ompkit: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OmpkitError as exc:
        print(f"ompkit: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
