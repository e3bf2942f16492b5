"""Command-line front end.

Subcommands: derive, from-lambda, scan-lambda, jackiw, eta-mu, verify,
plot-data.  Exit codes follow one contract everywhere: 0 success/pass,
1 domain outcome (no root, verification failed, stdout closed early),
2 usage error (a flag outside its range, which each flag's argparse
type checks, non-finite numbers included, values the library cannot
represent, or a --steps too large to hold in memory).  Output is a
human-readable table by default or a JSON document with --format json;
dataset commands write two-column CSV (header row, LF endings,
9-significant-digit floats, empty field where a value is missing), byte
identical for identical flags.  They compute every value before they
open --out, so a command that exits 2 writes no dataset file.
"""

import argparse
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import __version__
from .eigensolver import DEFAULT_GRID_POINTS, _ladder, verify_solution
from .potential import PotentialParams, eval_potential
from .solvers import (
    NoRootError,
    ZeroModeSolution,
    _solve_eta_grid,
    jackiw_solutions,
    params_from_lambda,
    solve_eta,
    solve_eta_mu,
)
from .trial import derive_trial, trial_split
from .wavefunction import TrialWavefunction, eval_s0, maxima_radius


class OracleFailure(Exception):
    """The oracle could not settle the groundstate (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that also reads "-1.4e-05" and "-inf" as negative numbers.

    argparse treats a separate value that starts with "-" as an option
    unless it matches its negative-number pattern, which knows only plain
    decimals; this one adds exponent notation and, in any case, the
    float spellings "-inf", "-infinity" and "-nan", so "--A -1.4e-05"
    parses like "--A=-1.4e-05" and "--alpha -inf" reaches the flag's type
    check.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def _checked(parse, rule, wanted):
    """An argparse type: parse the text, then require a finite value that meets rule.

    A value that does not parse reads "invalid float value: 'abc'" (the
    type's name is the parser's); one that parses but is not finite or
    breaks the rule reads "must be <wanted>, got <text>".
    """

    def convert(text):
        value = parse(text)
        if not (math.isfinite(value) and rule(value)):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    convert.__name__ = parse.__name__
    return convert


_FINITE = _checked(float, lambda x: True, "finite")
_POSITIVE = _checked(float, lambda x: x > 0, "finite and > 0")
_NONNEGATIVE = _checked(float, lambda x: x >= 0, "finite and >= 0")
_ABOVE_ONE = _checked(float, lambda x: x > 1, "finite and > 1")
_DIMENSION = _checked(int, lambda n: n >= 1, ">= 1")
_STEPS = _checked(int, lambda n: n >= 2, ">= 2")


def _is_ladder_cap(n) -> bool:
    """Whether groundstate takes n as its grid cap: eigensolver._ladder's rule."""
    try:
        _ladder(n)
    except ValueError:
        return False
    return True


_GRID = _checked(int, _is_ladder_cap, "a multiple of 8 and >= 128")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _render(summary: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(summary, indent=2, sort_keys=True)
    lines = []

    def walk(prefix, obj):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, val in items:
            if isinstance(val, (dict, list)):
                walk(f"{prefix}{key}.", val)
            else:
                lines.append(f"{prefix}{key} = {_fmt(val)}")

    walk("", summary)
    return "\n".join(lines)


# rows per write of _write_csv, so the text it holds stays small for any --steps
_CSV_ROWS = 4096


def _write_csv(path, header, x, y, blank_nan=False) -> None:
    """Write two float columns under a header row: 9 significant digits, LF endings.

    A NaN in y is written as an empty field with blank_nan, else as nan;
    infinities as inf and -inf.  The caller computes every value before
    this opens the file, so a usage error leaves no partial dataset.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header}\n")
        for start in range(0, len(x), _CSV_ROWS):
            rows = np.column_stack((x[start : start + _CSV_ROWS], y[start : start + _CSV_ROWS]))
            text = ("{:.9g},{:.9g}\n" * len(rows)).format(*rows.ravel().tolist())
            fh.write(text.replace(",nan\n", ",\n") if blank_nan else text)


def _emit(summary: dict, fmt: str) -> None:
    print(_render(summary, fmt))


def _base_summary(command: str, inputs: dict) -> dict:
    return {"command": command, "version": __version__, "inputs": inputs}


def _require(cond: bool, message: str) -> None:
    """Check a rule that involves two flags; each single flag's rule is in its type."""
    if not cond:
        raise ValueError(message)


def _potential_from_args(args) -> PotentialParams:
    return PotentialParams(g=args.g, alpha=args.alpha, beta=args.beta, bigA=args.A, n_dim=args.N)


def _solution_summary(sol: ZeroModeSolution) -> dict:
    p, t = sol.potential, sol.trial
    split = trial_split(p, t)
    out = {
        "alpha": p.alpha,
        "beta": p.beta,
        "A": p.bigA,
        "a": t.a,
        "c": t.c,
        "m": t.m,
        "e0": split.e0,
    }
    if sol.lambda_form is not None:
        out["lambda"] = sol.lambda_form.lambda_
        out["eta"] = sol.lambda_form.eta
    if sol.jackiw_form is not None:
        out["r0_sq"] = sol.jackiw_form.r0_sq
        out["mu"] = sol.jackiw_form.mu
        out["eta"] = sol.jackiw_form.eta
    return out


def _report_summary(report) -> dict:
    return {
        "oracle_energy": report.oracle_energy,
        "closed_form_e0": report.closed_form_e0,
        "energy_error": report.energy_error,
        "similarity": report.similarity,
        "max_residual": report.max_residual,
        "m_residual": report.m_residual,
        "zero_energy_residual": report.zero_energy_residual,
        "verdict": "PASS" if report.passed else "FAIL",
        "failures": list(report.failures),
    }


def cmd_derive(args) -> int:
    p = _potential_from_args(args)
    t = derive_trial(p)
    split = trial_split(p, t)
    summary = _base_summary(
        "derive",
        {"g": args.g, "alpha": args.alpha, "beta": args.beta, "A": args.A, "N": args.N},
    )
    summary["derived"] = {
        "a": t.a,
        "c": t.c,
        "m": t.m,
        "h_coef1": split.h_coef1,
        "h_coef2": split.h_coef2,
        "e0": split.e0,
    }
    _emit(summary, args.format)
    return 0


def cmd_from_lambda(args) -> int:
    roots = solve_eta(args.lambda_, args.N)
    summary = _base_summary("from-lambda", {"g": args.g, "lambda": args.lambda_, "N": args.N})
    if not roots:
        summary["solutions"] = []
        summary["message"] = "no eta in (0,1)"
        _emit(summary, args.format)
        return 1
    summary["solutions"] = [
        _solution_summary(params_from_lambda(args.g, args.lambda_, eta, args.N)) for eta in roots
    ]
    _emit(summary, args.format)
    return 0


def cmd_scan_lambda(args) -> int:
    _require(args.from_ < args.to, f"need --from < --to, got {args.from_} >= {args.to}")
    lams = np.linspace(args.from_, args.to, args.steps)
    _write_csv(args.out, "lambda,eta", lams, _solve_eta_grid(lams, args.N), blank_nan=True)
    return 0


def cmd_jackiw(args) -> int:
    branches = jackiw_solutions(args.N)
    summary = _base_summary("jackiw", {"N": args.N})
    summary["r0_sq"] = branches[0].potential.alpha / 2.0
    summary["branches"] = [
        {
            "alpha": b.potential.alpha,
            "beta": b.potential.beta,
            "A": b.potential.bigA,
            "a": b.trial.a,
            "c": b.trial.c,
            "m": b.trial.m,
            "e0": b.e0,
        }
        for b in branches
    ]
    _emit(summary, args.format)
    return 0


def _oracle_report(sol: ZeroModeSolution, args):
    try:
        return verify_solution(sol, r_max=args.rmax, n_points=args.grid)
    except RuntimeError as exc:  # unconfined potential, grid too coarse, spoiled vector
        raise OracleFailure(str(exc)) from exc


def cmd_eta_mu(args) -> int:
    sol = solve_eta_mu(args.g, args.N)  # NoRootError propagates as exit 1
    report = _oracle_report(sol, args)
    summary = _base_summary("eta-mu", {"g": args.g, "N": args.N})
    summary["solution"] = _solution_summary(sol)
    summary["c_rule"] = "c = (1 - eta) * g * r0_sq / 2"
    summary["verification"] = _report_summary(report)
    _emit(summary, args.format)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    p = _potential_from_args(args)
    sol = ZeroModeSolution(potential=p, trial=derive_trial(p))
    report = _oracle_report(sol, args)
    summary = _base_summary(
        "verify",
        {"g": args.g, "alpha": args.alpha, "beta": args.beta, "A": args.A, "N": args.N},
    )
    summary["derived"] = {"a": sol.trial.a, "c": sol.trial.c, "m": sol.trial.m}
    summary["verification"] = _report_summary(report)
    _emit(summary, args.format)
    return 0 if report.passed else 1


def cmd_plot_data(args) -> int:
    _require(args.r_from < args.r_to, f"need --r-from < --r-to, got {args.r_from} >= {args.r_to}")
    _require(args.what == "potential" or args.g > 0, f"--what wavefunction needs --g > 0, got {args.g}")
    p = _potential_from_args(args)
    radii = np.linspace(args.r_from, args.r_to, args.steps)
    if args.what == "potential":
        values = np.asarray(eval_potential(p, radii))
    else:
        w = TrialWavefunction.from_potential(p)
        peak = maxima_radius(w)
        # psi = exp(-S0) over its peak value, divided in S-space: the peak
        # value itself overflows once -S0 there passes ~709
        with np.errstate(under="ignore"):
            values = np.exp(-(np.asarray(eval_s0(w, radii)) - eval_s0(w, peak.radius)))
    _write_csv(args.out, "r,value", radii, values)
    return 0


def _add_potential_flags(sub, g_type=_POSITIVE):
    sub.add_argument("--g", type=g_type, required=True, help="coupling g")
    sub.add_argument("--alpha", type=_FINITE, required=True, help="quadratic-term coefficient")
    sub.add_argument("--beta", type=_FINITE, required=True, help="constant-term coefficient")
    sub.add_argument("--A", type=_FINITE, required=True, help="shift coefficient")
    sub.add_argument("--N", type=_DIMENSION, required=True, help="spatial dimension")


def _add_oracle_flags(sub):
    sub.add_argument(
        "--rmax", type=_POSITIVE, default=None, help="oracle domain (default: from the potential's length scale)"
    )
    sub.add_argument(
        "--grid",
        type=_GRID,
        default=DEFAULT_GRID_POINTS,
        help=f"finest grid of the ladder, a multiple of 8 and >= 128 (default {DEFAULT_GRID_POINTS})",
    )


def _add_format_flag(sub):
    sub.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sombrero",
        description="Zero-energy groundstates of sombrero-shaped sextic potentials",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("derive", help="trial coefficients and e0 for explicit parameters")
    _add_potential_flags(sub)
    _add_format_flag(sub)
    sub.set_defaults(func=cmd_derive)

    sub = subs.add_parser("from-lambda", help="solve the eta cubic and rebuild the potential")
    sub.add_argument("--g", type=_POSITIVE, required=True)
    sub.add_argument("--lambda", dest="lambda_", type=_FINITE, required=True)
    sub.add_argument("--N", type=_DIMENSION, required=True)
    _add_format_flag(sub)
    sub.set_defaults(func=cmd_from_lambda)

    sub = subs.add_parser("scan-lambda", help="eta(lambda) dataset over a lambda range")
    sub.add_argument("--N", type=_DIMENSION, required=True)
    sub.add_argument("--from", dest="from_", type=_ABOVE_ONE, required=True)
    sub.add_argument("--to", type=_FINITE, required=True)
    sub.add_argument("--steps", type=_STEPS, required=True)
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.set_defaults(func=cmd_scan_lambda)

    sub = subs.add_parser("jackiw", help="both closed-form branches of the fixed-r0 family")
    sub.add_argument("--N", type=_DIMENSION, required=True)
    _add_format_flag(sub)
    sub.set_defaults(func=cmd_jackiw)

    sub = subs.add_parser("eta-mu", help="well-form zero-energy solution plus oracle verdict")
    sub.add_argument("--g", type=_POSITIVE, required=True)
    sub.add_argument("--N", type=_DIMENSION, required=True)
    _add_oracle_flags(sub)
    _add_format_flag(sub)
    sub.set_defaults(func=cmd_eta_mu)

    sub = subs.add_parser("verify", help="check parameters against the numerical oracle")
    _add_potential_flags(sub)
    _add_oracle_flags(sub)
    _add_format_flag(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("plot-data", help="sampled potential or wavefunction dataset")
    sub.add_argument("--what", choices=("potential", "wavefunction"), required=True)
    _add_potential_flags(sub, g_type=_NONNEGATIVE)
    sub.add_argument("--r-from", dest="r_from", type=_NONNEGATIVE, required=True)
    sub.add_argument("--r-to", dest="r_to", type=_FINITE, required=True)
    sub.add_argument("--steps", type=_STEPS, required=True)
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.set_defaults(func=cmd_plot_data)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # stdout closed early, as by `| head`; devnull takes the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except NoRootError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    except OracleFailure as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # unwritable --out, a two-flag rule, non-finite coefficients
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # flags so extreme that float arithmetic overflows
        # the command is the first argument: before it the parser takes only --version
        flags = " ".join((sys.argv[1:] if argv is None else argv)[1:])
        print(f"error: {args.command}: the flags {flags} overflow double precision "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a --steps too large for the arrays it asks for
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def entrypoint() -> None:
    warnings.formatwarning = _one_line_warning
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
