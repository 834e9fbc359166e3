"""Command-line surface: validate / verify / fcs / sweep.

Exit codes: 0 success (all checks passed), 1 at least one check failed
(a residual above its tolerance, or a NaN or infinite one, which
``verify_report.json`` records as null), 2 usage, config or I/O error,
3 numerical failure (a quadrature or contour rule missed its tolerance, a
sweep's moment routes disagree or their gap is NaN, a LAPACK routine did
not converge, a computed state is not positive or not of full rank, an
arithmetic operation overflowed, or an output would hold a NaN or an
infinity, which strict JSON cannot and a CSV number column should not).  A
command renders all its outputs before it writes any, so it writes all of
them or none.  Outputs are CSV (measures, characteristic functions, sweep
tables) and JSON (reports, verdicts); identical inputs and seeds give
byte-identical outputs regardless of the sweep's worker count.
Only ``sweep`` pins numpy's BLAS to one thread, so only its outputs are also
independent of the caller's BLAS thread count; ``verify`` and ``fcs`` run on
the caller's BLAS threads, and a ``verify`` residual can move in its last
bits with their count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fcs as fcsmod
from .checks import SUITE_BUILDERS, run_suites
from .dynamics import balance_check, delta_q_direct
from .linalg import NumericalError
from .scenarios import ConfigError, parse_config

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'a,b,c' as explicit points or 'lo:hi:n' as a linspace of at
    least one finite point; argparse names the argument of a bad grid."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected lo:hi:n")
            grid = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
        else:
            grid = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid {text!r}: {exc}") from None
    if grid.size == 0:
        raise argparse.ArgumentTypeError(f"grid {text!r} has no points")
    if not np.all(np.isfinite(grid)):
        raise argparse.ArgumentTypeError(f"grid {text!r} has a non-finite point")
    return grid


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``.  A text that
    is no integer gets argparse's "invalid integer value" error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value
    return integer


def _json_text(name: str, payload) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity, which strict JSON cannot hold
        raise NumericalError(f"{name}: {exc}") from None


def _csv_text(name: str, header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        bad = [x for x in row if isinstance(x, float) and not math.isfinite(x)]
        if bad:
            raise NumericalError(f"{name}: non-finite value {bad[0]!r} in row {len(lines)}")
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _write_all(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each rendered output; rendering all of them first refuses a
    non-finite value before any file is written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text)


def cmd_validate(args) -> int:
    run = parse_config(args.config)
    scn = run.scenario
    print(
        f"ok: d_S={scn.dim_sys} d_R={scn.dim_res} dim={scn.dim} "
        f"lambda={scn.lam} beta={scn.beta}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    run = parse_config(args.config)
    results = run_suites(run.scenario, which=args.suite, seed=args.seed,
                         quad_tol=run.quad_tol)
    records = [r.as_record() for r in results]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check_name}: residual {r.residual:.3e} (tol {r.tolerance:.1e})")
    if args.out_dir:
        _write_all(Path(args.out_dir), {"verify_report.json": _json_text("verify_report.json", records)})
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_fcs(args) -> int:
    run = parse_config(args.config)
    scn = run.scenario
    t = args.t
    out_dir = Path(args.out_dir)

    fa = fcsmod.fcs_at(scn, t)
    sys_res = fcsmod.system_fcs(fa)
    res_res = fcsmod.reservoir_fcs(fa)

    rows = [
        [float(x), float(w), "system"]
        for x, w in zip(sys_res.measure.locations, sys_res.measure.weights)
    ] + [
        [float(x), float(w), "reservoir"]
        for x, w in zip(res_res.measure.locations, res_res.measure.weights)
    ]

    char_rows = []
    for (g, val), kind in [(s, "system") for s in sys_res.char_samples] + [
        (s, "reservoir") for s in res_res.char_samples
    ]:
        char_rows.append([float(g), float(val.real), float(val.imag), kind])

    dq_s, dq_r = delta_q_direct(scn, t)
    summary = {
        "t": t,
        "lambda": scn.lam,
        "beta": scn.beta,
        "mean_system": sys_res.mean,
        "mean_reservoir": res_res.mean,
        "moments_reservoir": [float(m) for m in res_res.moments],
        "moments_system": [float(m) for m in sys_res.moments],
        "dropped_mass_reservoir": res_res.measure.dropped_mass,
        "dropped_mass_system": sys_res.measure.dropped_mass,
        "dq_system": dq_s,
        "dq_reservoir": dq_r,
        "balance_residual": balance_check(scn, t),
        "mean_identity_residual": abs(res_res.mean - dq_r),
    }
    _write_all(out_dir, {
        "measures.csv": _csv_text("measures.csv", ["location", "weight", "which"], rows),
        "char.csv": _csv_text("char.csv", ["gamma", "re", "im", "source"], char_rows),
        "summary.json": _json_text("summary.json", summary),
    })
    print(f"wrote {out_dir}/measures.csv, char.csv, summary.json")
    return EXIT_OK


def cmd_sweep(args) -> int:
    run = parse_config(args.config)
    scn = run.scenario
    out_dir = Path(args.out_dir)
    sweep = fcsmod.limit_sweep(scn, args.t_grid, args.lambda_grid, workers=args.workers)
    rows = [
        [r.lam, r.t, r.distance, r.mean_res, r.mean_sys, *(float(m) for m in r.moments_res[1:4])]
        for r in sweep.rows
    ]
    _write_all(out_dir, {
        "sweep.csv": _csv_text("sweep.csv", ["lambda", "t", "distance", "mean_R", "mean_S", "m2", "m3", "m4"], rows),
        "verdict.json": _json_text("verdict.json", sweep.verdicts()),
    })
    print(f"wrote {out_dir}/sweep.csv, verdict.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcslab",
        description="Energy full counting statistics on confined system+reservoir models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a scenario config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_ver = sub.add_parser("verify", help="run identity-check suites")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--suite", default="all",
                       choices=["all", *SUITE_BUILDERS])
    p_ver.add_argument("--seed", type=_int_at_least(0), default=0)
    p_ver.add_argument("--out-dir", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_fcs = sub.add_parser("fcs", help="compute both FCS measures at one time")
    p_fcs.add_argument("--config", required=True)
    p_fcs.add_argument("--t", type=_finite_float, required=True)
    p_fcs.add_argument("--out-dir", required=True)
    p_fcs.set_defaults(func=cmd_fcs)

    p_sw = sub.add_parser("sweep", help="sweep the FCS over a (lambda, t) grid")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--t-grid", type=_parse_grid, required=True)
    p_sw.add_argument("--lambda-grid", type=_parse_grid, required=True)
    p_sw.add_argument("--workers", type=_int_at_least(1), default=1)
    p_sw.add_argument("--out-dir", required=True)
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # NumericalError's base, so also an overflow
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
