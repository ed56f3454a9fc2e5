"""Command-line interface: solve instances from CSV, denoise PGM images,
and run the verification suites.

Exit codes: 0 success, 1 selftest failure, 2 input error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .denoise import DenoiseConfig, DenoiseStats, denoise, psnr
from .exceptions import InvalidInputError, NumericalFailureError, WnnmError
from .pgm import read_pgm, write_pgm
from .selftest import run_selftest
from .solver import nnm_solve, wnnm_solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def read_matrix_csv(path) -> np.ndarray:
    """Parse a headerless comma-separated matrix, dimensions inferred."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not an ASCII text file: {exc}") from None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if rows and len(cells) != len(rows[0]):
            raise InvalidInputError(
                f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(cells)}"
            )
        try:
            rows.append(list(map(float, cells)))
        except ValueError:  # only a line that fails looks for its bad cell
            for colno, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    msg = f"{path}: line {lineno}, column {colno}: not a number: {cell!r}"
                    raise InvalidInputError(msg) from None
    if not rows:
        raise InvalidInputError(f"{path}: empty matrix")
    return np.array(rows)


def write_matrix_csv(path, m: np.ndarray) -> None:
    # repr() emits the shortest decimal that round-trips the float exactly;
    # one row's tolist() at a time keeps a single row of Python floats alive.
    with open(path, "w", encoding="ascii") as fh:
        for row in np.atleast_2d(m).astype(float, copy=False):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def cmd_solve(args) -> int:
    y = read_matrix_csv(args.matrix)
    if args.weights is not None:
        w = read_matrix_csv(args.weights)
        if min(w.shape) > 1:  # one weight per line is a column
            msg = "%s: weights must be one row or one column, got shape %dx%d"
            raise InvalidInputError(msg % (args.weights, *w.shape))
        result = wnnm_solve(y, w.ravel())
    else:
        result = nnm_solve(y, args.lam)
    if not (np.isfinite(result.d.objective) and np.all(np.isfinite(result.x_star))):
        raise NumericalFailureError(f"non-finite result (objective {result.d.objective!r})")
    write_matrix_csv(args.out, result.x_star)
    print(f"objective: {result.d.objective!r}")
    print(f"path: {result.d.path.value}")
    print(f"d: {result.d.d.tolist()}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    noisy = read_pgm(args.input)
    cfg = DenoiseConfig(**{f: getattr(args, f) for f in DenoiseConfig.__dataclass_fields__})
    stats = DenoiseStats()
    out = denoise(noisy, cfg, stats=stats)
    write_pgm(args.output, out)
    print(f"groups processed: {stats.groups}")
    print(f"mean group rank after shrinkage: {stats.mean_rank:.3f}")
    print(f"psnr output vs input (change, not quality): {psnr(noisy, out):.3f} dB")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnnm", description="Weighted nuclear norm minimization toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one WNNM/NNM instance from CSV files")
    p.add_argument("--matrix", required=True, help="input matrix CSV (no header)")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--weights", help="CSV of per-singular-value weights, one row or one per line")
    grp.add_argument("--lambda", dest="lam", type=float, help="uniform weight")
    p.add_argument("--out", required=True, help="output CSV for the solution matrix")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("denoise", help="denoise a binary PGM image")
    p.add_argument("--in", dest="input", required=True, help="input PGM (P5)")
    p.add_argument("--out", dest="output", required=True, help="output PGM")
    p.add_argument("--sigma", dest="noise_sigma", metavar="SIGMA", type=float, required=True,
                   help="noise standard deviation")
    tuning = DenoiseConfig.__dataclass_fields__  # the one place each default is written
    for flag, field in (("patch", "patch_size"), ("group", "group_size"),
                        ("window", "search_window"), ("stride", "stride"), ("c", "weight_constant")):
        default = tuning[field].default
        p.add_argument(f"--{flag}", dest=field, metavar=flag.upper(), type=type(default),
                       default=default)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("selftest", help="run the seeded verification suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale", choices=["small", "full"], default="small")
    p.set_defaults(func=lambda args: run_selftest(args.seed, args.scale))
    return parser


def main(argv=None) -> int:
    """Run one command. The one map from errors to exit codes: bad input,
    unreadable input and unwritable output exit 2 with an ``error:`` line,
    any other package error exits 3 with a ``numerical error:`` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WnnmError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
