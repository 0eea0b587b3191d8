"""Command-line surface: Betti sums, real-locus tables, equality checks.

Exit codes: 0 on success (all verdicts/tolerances met), 1 on any failed
verification, 2 on bad arguments (including a sweep grid with no (g, n)
pair) or malformed input files, and 141 (128 + SIGPIPE, what a shell
reports for a process killed by a closed pipe) with no traceback when the
reader of stdout closes it before all output is written.  Output is
byte-deterministic for fixed flags and seed; sweep rows come out sorted by
(g, n).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import fibration, genfun, mcheck, realmodels
from .homology import CWFormatError, ChainComplexF2, betti, euler_char


def _print_table(columns, rows, fmt, file):
    if fmt == "csv":
        writer = csv.writer(file, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return
    # markdown, pipe-aligned
    cells = [[str(c) for c in columns]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
    header, *body = cells
    sep = ["-" * w for w in widths]
    for line in [header, sep, *body]:
        padded = [val.ljust(w) for val, w in zip(line, widths)]
        print("| " + " | ".join(padded) + " |", file=file)


def _emit(columns, rows, json_obj, fmt, file=None):
    file = file or sys.stdout
    if fmt == "json":
        print(json.dumps(json_obj, indent=2), file=file)
    else:
        _print_table(columns, rows, fmt, file)


def _cmd_betti_sym(args) -> int:
    total = genfun.betti_sum_sym(args.g, args.n)
    columns = ["g", "n", "betti_sum"]
    row = [args.g, args.n, total]
    obj = {"g": args.g, "n": args.n, "betti_sum": total}
    if args.poly:
        poly = genfun.poincare_sym(args.g, args.n)
        columns.append("poincare")
        row.append(str(poly))
        obj["poincare"] = list(poly.coeffs)
    _emit(columns, [row], obj, args.format)
    return 0


def _cmd_real_betti(args) -> int:
    if args.n == 2:
        dec = realmodels.real_sym2_decomposition(args.g)
    else:
        dec = realmodels.real_sym3_decomposition(args.g)
    pieces = dec.betti_by_piece()
    total = realmodels.betti_total(pieces)
    columns = ["piece", "multiplicity", "betti", "piece_sum", "subtotal"]
    rows = []
    for name, mult, b in pieces:
        rows.append([name, mult, " ".join(str(x) for x in b), sum(b), mult * sum(b)])
    rows.append(["total", "", "", "", total])
    obj = {
        "g": args.g,
        "n": args.n,
        "pieces": [
            {"name": name, "multiplicity": mult, "betti": list(b), "betti_sum": sum(b)}
            for name, mult, b in pieces
        ],
        "total_betti_sum": total,
    }
    _emit(columns, rows, obj, args.format)
    return 0


def _cmd_check_m(args) -> int:
    if args.sweep:
        if args.gmax is None or args.nmax is None:
            print("error: --sweep requires --gmax and --nmax", file=sys.stderr)
            return 2
        for flag, value, low in (("--gmax", args.gmax, 0), ("--nmax", args.nmax, 2)):
            if value < low:
                print(f"error: {flag} {value} leaves the sweep empty; it must be >= {low}",
                      file=sys.stderr)
                return 2
        reports = mcheck.sweep(args.gmax, args.nmax)
    else:
        if args.g is None or args.n is None:
            print("error: provide --g and --n, or --sweep", file=sys.stderr)
            return 2
        reports = [mcheck.check(args.g, args.n)]
    for rep in reports:
        if rep.verdict == mcheck.UNSUPPORTED_RANGE:
            print(
                f"warning: (g={rep.g}, n={rep.n}) is in the open range "
                "4 <= n <= 2g-2; no verdict",
                file=sys.stderr,
            )
    columns = ["g", "n", "complex_sum", "real_sum", "verdict", "method"]
    rows = [rep.csv_row() for rep in reports]
    obj = {"reports": [rep.to_dict() for rep in reports]}
    _emit(columns, rows, obj, args.format)
    decided = [r for r in reports if r.verdict != mcheck.UNSUPPORTED_RANGE]
    return 0 if all(r.verdict == mcheck.M_VARIETY for r in decided) else 1


def _cmd_homology(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cw = ChainComplexF2.from_json(text)
    b = betti(cw)
    chi = euler_char(cw)
    cells = sum(cw.n_cells(d) for d in range(cw.dim + 1))
    columns = ["file", "cells", "betti", "euler_char"]
    rows = [[args.file, cells, " ".join(str(x) for x in b), chi]]
    obj = {"file": args.file, "cells": cells, "betti": list(b), "euler_char": chi}
    _emit(columns, rows, obj, args.format)
    return 0


def _cmd_verify_fibration(args) -> int:
    fiber_tol = args.tol * 1e-3
    report = fibration.run_property_suite(
        samples=args.samples,
        seed=args.seed,
        roundtrip_tol=args.tol,
        fiber_tol=fiber_tol,
    )
    checks = [
        ("roundtrip_max_error", report.max_roundtrip_error, args.tol,
         report.max_roundtrip_error < args.tol),
        ("fiber_max_error", report.max_fiber_error, fiber_tol,
         report.max_fiber_error < fiber_tol),
        ("boundary_agreement", report.boundary_agreement, 1.0,
         report.boundary_mismatches == 0),
        ("section_intersections", report.section_intersections, 1,
         report.section_intersections == 1),
        ("fiber_boundary_intersections", report.fiber_boundary_intersections, 2,
         report.fiber_boundary_intersections == 2),
    ]
    columns = ["check", "value", "required", "passed"]
    rows = [[name, repr(value), repr(req), "yes" if ok else "no"]
            for name, value, req, ok in checks]
    obj = {
        "samples": report.samples,
        "seed": report.seed,
        "checks": [
            {"check": name, "value": value, "required": req, "passed": ok}
            for name, value, req, ok in checks
        ],
        "all_passed": report.all_passed,
    }
    _emit(columns, rows, obj, args.format)
    return 0 if report.all_passed else 1


_MODEL_NEEDS_GENUS = {"half", "Y", "B"}


def _cmd_export_model(args) -> int:
    if args.name in _MODEL_NEEDS_GENUS and args.g is None:
        print(f"error: model {args.name} requires --g", file=sys.stderr)
        return 2
    if args.name == "half":
        cw = realmodels.build_half_surface(args.g)
    elif args.name == "Y":
        cw = realmodels.build_Y(args.g)
    elif args.name == "B":
        cw = realmodels.build_B(args.g)
    elif args.name == "sym2circle":
        cw = realmodels.build_sym2_circle()
    else:
        cw = realmodels.build_sym3_circle()
    text = cw.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msym",
        description="Exact mod-2 Betti sums of symmetric products of real curves "
        "with maximal real locus, and equality certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["csv", "md", "json"], default="md",
                       help="output format (default: md)")

    p = sub.add_parser("betti-sym", help="Betti sum of the n-th symmetric product")
    p.add_argument("--g", type=int, required=True, help="genus of the curve")
    p.add_argument("--n", type=int, required=True, help="symmetric power")
    p.add_argument("--poly", action="store_true", help="include the Poincare polynomial")
    add_format(p)
    p.set_defaults(func=_cmd_betti_sym)

    p = sub.add_parser("real-betti", help="per-piece table of the real-locus decomposition")
    p.add_argument("--g", type=int, required=True, help="genus of the curve")
    p.add_argument("--n", type=int, required=True, choices=[2, 3], help="symmetric power")
    add_format(p)
    p.set_defaults(func=_cmd_real_betti)

    p = sub.add_parser("check-m", help="certify real vs complex Betti-sum equality")
    p.add_argument("--g", type=int, help="genus of the curve")
    p.add_argument("--n", type=int, help="symmetric power")
    p.add_argument("--sweep", action="store_true", help="check a whole (g, n) grid")
    p.add_argument("--gmax", type=int, help="sweep: largest genus")
    p.add_argument("--nmax", type=int, help="sweep: largest symmetric power (from n=2)")
    add_format(p)
    p.set_defaults(func=_cmd_check_m)

    p = sub.add_parser("homology", help="Betti vector of a CW complex from a JSON file")
    p.add_argument("--file", required=True, help="path to the CW JSON file")
    add_format(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("verify-fibration",
                       help="randomized checks of the circle-triples bundle structure")
    p.add_argument("--samples", type=int, default=10_000, help="number of random samples")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (64-bit)")
    p.add_argument("--tol", type=float, default=fibration.ROUNDTRIP_TOL,
                   help="roundtrip tolerance; fiber tolerance is tol/1000")
    add_format(p)
    p.set_defaults(func=_cmd_verify_fibration)

    p = sub.add_parser("export-model", help="write a curated CW model as JSON")
    p.add_argument("--name", required=True,
                   choices=["half", "Y", "B", "sym2circle", "sym3circle"])
    p.add_argument("--g", type=int, help="genus (required for half, Y, B)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export_model)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``msym ... | head``).  Point stdout
        # at devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CWFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except mcheck.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
