"""Command-line surface: Betti sums, real-locus tables, equality checks.

``real-betti`` prints the per-piece table of the report that ``check-m``
certifies, so it runs the same cross-checks and exits 1 if they disagree.
``betti-sym --poly`` checks the Poincare polynomial against the Betti sum and
Macdonald's Euler characteristic before printing, and exits 1 likewise.

Exit codes: 0 on success, 1 on a failed verdict, check or cross-check, 2 on
bad arguments (including a sweep grid with no (g, n) pair), malformed or
unreadable input files, a ``--file`` or ``--out`` FIFO with nothing on its
other end, or a ``--out`` file or stdout that cannot be written (a full
disk), and 141 (128 + SIGPIPE, what a shell reports for a process
killed by a closed pipe) when the reader of stdout closes it before all output
is written.  Exits 1 and 2 write one ``error:`` line to stderr, and no exit
writes a traceback: the commands print or raise, and ``main`` alone writes
that line and picks the code.  A failed verdict or check still prints its
table; its line counts the ``STRICT_INEQUALITY`` rows of ``check-m`` and names
the first, or counts and names the failed ``verify-fibration`` checks.  An
input whose answer is too large to print exits 2 as a bad argument (see
``MAX_ANSWER_DIGITS``), and so does a genus above ``MAX_MODEL_GENUS`` for the
commands that build CW models, a sweep ``--gmax`` above ``MAX_SWEEP_GENUS``, a
sweep grid of more than ``MAX_SWEEP_ROWS`` rows, a ``--samples`` above
``MAX_SAMPLES``, a ``--tol`` whose fiber bound ``tol/1000`` is 0.0, or a
``homology --file`` above ``MAX_FILE_BYTES``.
Output is byte-deterministic for fixed flags and seed; sweep rows come out
sorted by (g, n).
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import math
import os
import sys

from . import fibration, genfun, mcheck, realmodels
from .homology import ChainComplexF2, EulerCharacteristicMismatch, betti, euler_char


def _emit(columns, rows, json_obj, fmt):
    """Print ``rows`` as a csv or md table, or ``json_obj`` as JSON; a str
    ``json_obj`` is JSON text already in the form ``json.dumps(obj, indent=2)``
    gives."""
    if fmt == "json":
        print(json_obj if isinstance(json_obj, str) else json.dumps(json_obj, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:  # markdown, pipe-aligned
        cells = [[str(c) for c in columns]] + [[str(c) for c in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
        header, *body = cells
        sep = ["-" * w for w in widths]
        for line in [header, sep, *body]:
            padded = [val.ljust(w) for val, w in zip(line, widths)]
            print("| " + " | ".join(padded) + " |")


def _json_with_poly(obj: dict, coeffs: tuple[int, ...]) -> str:
    """The text of ``json.dumps({**obj, "poincare": list(coeffs)}, indent=2)``
    for nonempty ``coeffs``.  The encoder's indented path is pure Python and
    converts every coefficient to decimal; here each distinct value is
    converted once, and the whole text is one join, so no second copy of the
    list's text is ever held."""
    texts = genfun._coeff_texts(coeffs)
    parts = [",\n    "] * (2 * len(texts) + 1)  # the texts go between these
    head = json.dumps(obj, indent=2)[:-2]  # all but the closing "\n}"
    parts[0] = head + ',\n  "poincare": [\n    '
    parts[1::2] = texts
    parts[-1] = "\n  ]\n}"
    return "".join(parts)


def _check_poincare(g: int, n: int, poly: genfun.GradedPoly, total: int) -> None:
    """Cross-check the Poincare polynomial of Sym^n of a genus-g surface: P(1)
    is the Betti sum from the independent route, P is palindromic of degree
    exactly 2n, and P(-1) is Macdonald's Euler characteristic (-1)^n C(2g-2, n),
    or n + 1 when g = 0 (Macdonald, Topology 1, 1962)."""
    euler = (-1) ** n * math.comb(2 * g - 2, n) if g else n + 1
    mcheck._agree(g, n, ("Poincare polynomial gives P(1) =", poly.total()), ("Betti sum", total))
    mcheck._agree(g, n, ("Poincare polynomial has degree", poly.degree), ("required", 2 * n))
    mcheck._agree(g, n, ("Poincare polynomial is palindromic:", poly.is_palindromic()),
                  ("required", True))
    mcheck._agree(g, n, ("Poincare polynomial gives P(-1) =", poly.evaluate(-1)),
                  ("Macdonald's Euler characteristic", euler))


# The size rule.  Python converts an int of at most 4,300 decimal digits to
# text (its default ``int_max_str_digits``), so a Betti sum longer than that
# cannot be printed; ``betti-sym --poly`` prints 2n + 1 coefficients, so its
# degree 2n is capped as well.  Either case exits 2 with an error naming the
# flags.  Inputs whose sum is sure to be too long are rejected before any
# work (see ``_sum_too_long``); the rest cost at most about a second and are
# checked on the computed sum.
MAX_ANSWER_DIGITS = 4300
MAX_POLY_DEGREE = 4000
# The smallest sum too long to print, its bit length, and the error text
# that follows the flags.  Building the 14,285-bit power costs about 70 us, a
# quarter of a small op, so it is built once here rather than on each call.
_ANSWER_LIMIT = 10 ** MAX_ANSWER_DIGITS
_ANSWER_LIMIT_BITS = _ANSWER_LIMIT.bit_length()
_TOO_LONG = f": the Betti sum has more than {MAX_ANSWER_DIGITS} decimal digits, too many to print"

# The genus cap for the commands that build the CW models Y(g), B(g) and the
# half surface: check-m with n = 2, 3 (single checks and --gmax of a sweep),
# real-betti and export-model half|Y|B.  Model size is linear in g, and the
# answer is a cubic in g, so the size rule does not bound it.  At the cap,
# check-m --n 3 takes about 0.6-0.7 s and 150 MiB (Python 3.11.7, one core
# of a 2-core Intel Xeon); a seven-digit --g would need gigabytes.
MAX_MODEL_GENUS = 10_000
# The --gmax cap of check-m --sweep.  A sweep checks n = 2 and 3 on a model
# at every genus up to --gmax, so its time grows with the square of --gmax:
# --sweep --gmax 400 --nmax 3 takes about 4-5 s (same host, whose speed
# varies by up to 1.5x), where the model cap alone would admit hours.
MAX_SWEEP_GENUS = 400
# The row cap of check-m --sweep: (--gmax + 1) * (--nmax - 1) rows at most.
# Each row beyond n = 3 costs O(min(2g, n)) big-int work plus its output
# line, so --nmax alone could make a sweep at a small --gmax run for minutes
# (--gmax 100 --nmax 800, 80,699 rows, took 5.2 s and 193 MiB).  At the cap,
# --gmax 400 --nmax 50 takes about 1.0-1.2x as long as --gmax 400 --nmax 3
# and 37 MiB (same host).
MAX_SWEEP_ROWS = 20_000
# The --samples cap of verify-fibration, whose time is linear in --samples:
# at the cap it takes 3.3-5.5 s and 17 MiB (Python 3.11.7, one core of a
# 2-core Intel Xeon), a little less than the largest sweep.
MAX_SAMPLES = 1_000_000
# The cap on what homology --file reads, in characters (bytes for the ASCII
# that export-model writes); one more is read, so /dev/zero is refused at once.
# export-model --name B --g 10000 writes 10,669,843 bytes, which homology reads
# and ranks in about 0.6-0.7 s and 190 MiB (same host).
MAX_FILE_BYTES = 32 * 2**20


def _sum_too_long(g: int, n: int) -> bool:
    """Whether the Betti sum of Sym^n of a genus-g surface surely has more
    than MAX_ANSWER_DIGITS digits.  With k = min(g, n) the sum is at least
    C(2g, k) * (n - k + 1) >= (2g // k)^k * (n - k + 1), whose bit length
    needs no big-int work."""
    k = min(g, n)
    if k <= 0:
        return False
    low_bits = k * ((2 * g // k).bit_length() - 1) + (n - k + 1).bit_length() - 1
    return low_bits >= _ANSWER_LIMIT_BITS


def _cmd_betti_sym(args) -> None:
    flags = f"--g {args.g} --n {args.n}"
    if _sum_too_long(args.g, args.n):
        raise ValueError(flags + _TOO_LONG)
    total = genfun.betti_sum_sym(args.g, args.n)
    if total >= _ANSWER_LIMIT:
        raise ValueError(flags + _TOO_LONG)
    if args.poly and 2 * args.n > MAX_POLY_DEGREE:
        raise ValueError(f"--n {args.n} with --poly: the Poincare polynomial has degree "
                         f"{2 * args.n}, above the cap of {MAX_POLY_DEGREE}")
    columns = ["g", "n", "betti_sum"]
    row = [args.g, args.n, total]
    obj = {"g": args.g, "n": args.n, "betti_sum": total}
    if args.poly:
        poly = genfun.poincare_sym(args.g, args.n)
        _check_poincare(args.g, args.n, poly, total)
        columns.append("poincare")
        if args.format == "json":  # json prints obj's text; only the tables read row
            obj = _json_with_poly(obj, poly.coeffs)
        else:
            row.append(str(poly))
    _emit(columns, [row], obj, args.format)


def _cmd_real_betti(args) -> None:
    if args.g > MAX_MODEL_GENUS:
        raise ValueError(f"--g {args.g} is above the model genus cap of {MAX_MODEL_GENUS}")
    report = mcheck.check(args.g, args.n)
    columns = ["piece", "multiplicity", "betti", "piece_sum", "subtotal"]
    rows = [[name, mult, " ".join(map(str, b)), sum(b), mult * sum(b)]
            for name, mult, b in report.per_piece]
    rows.append(["total", "", "", "", report.real_sum])
    obj = {
        "g": args.g,
        "n": args.n,
        "pieces": [
            {"name": name, "multiplicity": mult, "betti": list(b), "betti_sum": sum(b)}
            for name, mult, b in report.per_piece
        ],
        "total_betti_sum": report.real_sum,
    }
    _emit(columns, rows, obj, args.format)


def _cmd_check_m(args) -> None:
    if args.sweep:
        for flag, value in (("--g", args.g), ("--n", args.n)):
            if value is not None:
                raise ValueError(f"{flag} is not used with --sweep; use --gmax and --nmax")
        if args.gmax is None or args.nmax is None:
            raise ValueError("--sweep requires --gmax and --nmax")
        for flag, value, low in (("--gmax", args.gmax, 0), ("--nmax", args.nmax, 2)):
            if value < low:
                raise ValueError(f"{flag} {value} leaves the sweep empty; it must be >= {low}")
        flags = f"--gmax {args.gmax} --nmax {args.nmax}"
        if _sum_too_long(args.gmax, args.nmax):
            raise ValueError(flags + _TOO_LONG)
        # every sweep checks n = 2, which builds a model, at each genus
        if args.gmax > MAX_MODEL_GENUS:
            raise ValueError(f"--gmax {args.gmax} is above the model genus cap of {MAX_MODEL_GENUS}")
        if args.gmax > MAX_SWEEP_GENUS:
            raise ValueError(f"--gmax {args.gmax} is above the sweep genus cap of {MAX_SWEEP_GENUS}")
        rows = (args.gmax + 1) * (args.nmax - 1)
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(f"--nmax {args.nmax} with --gmax {args.gmax} makes {rows} sweep rows, "
                             f"above the sweep row cap of {MAX_SWEEP_ROWS}")
        reports = mcheck.sweep(args.gmax, args.nmax)
    else:
        for flag, value in (("--gmax", args.gmax), ("--nmax", args.nmax)):
            if value is not None:
                raise ValueError(f"{flag} is not used without --sweep")
        if args.g is None or args.n is None:
            raise ValueError("provide --g and --n, or --sweep")
        flags = f"--g {args.g} --n {args.n}"
        if _sum_too_long(args.g, args.n):
            raise ValueError(flags + _TOO_LONG)
        if args.n in (2, 3) and args.g > MAX_MODEL_GENUS:
            raise ValueError(f"--g {args.g} is above the model genus cap of {MAX_MODEL_GENUS}")
        reports = [mcheck.check(args.g, args.n)]
    # The Betti sum grows with g and n, so the last row has the longest
    # complex sum, and no real sum exceeds it (Smith inequality).
    if reports[-1].complex_sum >= _ANSWER_LIMIT:
        raise ValueError(flags + _TOO_LONG)
    open_range = [rep for rep in reports if rep.verdict == mcheck.UNSUPPORTED_RANGE]
    if open_range:
        first = open_range[0]
        print(f"warning: {len(open_range)} of {len(reports)} rows are in the open range "
              f"4 <= n <= 2g-2 and have no verdict, the first at (g={first.g}, n={first.n})",
              file=sys.stderr)
    columns = ["g", "n", "complex_sum", "real_sum", "verdict", "method"]
    rows = [rep.csv_row() for rep in reports]
    obj = {"reports": [rep.to_dict() for rep in reports]}
    _emit(columns, rows, obj, args.format)
    if strict := [rep for rep in reports if rep.verdict == mcheck.STRICT_INEQUALITY]:
        raise mcheck.VerificationError(f"{len(strict)} of {len(reports)} rows are not M-varieties, "
                                       f"the first at (g={strict[0].g}, n={strict[0].n})")


def _open(path: str, mode: str):
    """``open(path, mode)``, new files with its mode 0o666, that does not wait
    in ``open`` for the other end of a FIFO: one with no writer reads as
    empty, and one with no reader raises ENXIO."""
    fh = open(path, mode, encoding="utf-8",
              opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK, 0o666))
    os.set_blocking(fh.fileno(), True)
    return fh


def _cmd_homology(args) -> None:
    with _open(args.file, "r") as fh:
        text = fh.read(MAX_FILE_BYTES + 1)
    if len(text) > MAX_FILE_BYTES:
        raise ValueError(f"--file {args.file} is larger than the file size cap of "
                         f"{MAX_FILE_BYTES} bytes")
    cw = ChainComplexF2.from_json(text)
    b = betti(cw)
    chi = euler_char(cw)
    cells = sum(cw.n_cells(d) for d in range(cw.dim + 1))
    columns = ["file", "cells", "betti", "euler_char"]
    rows = [[args.file, cells, " ".join(str(x) for x in b), chi]]
    obj = {"file": args.file, "cells": cells, "betti": list(b), "euler_char": chi}
    _emit(columns, rows, obj, args.format)


def _cmd_verify_fibration(args) -> None:
    if args.samples < 1:
        raise ValueError(f"--samples {args.samples} must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples {args.samples} is above the sample cap of {MAX_SAMPLES}")
    # nan and values <= 0 would fail every check, inf would pass every one,
    # and a fiber bound of 0.0 would fail by construction
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol {args.tol!r} must be a finite number > 0")
    if args.tol / 1000 == 0:
        raise ValueError(f"--tol {args.tol!r} is too small: its fiber bound tol / 1000 is 0.0")
    report = fibration.run_property_suite(samples=args.samples, seed=args.seed,
                                          roundtrip_tol=args.tol)
    checks = report.checks()
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
        # json only: the csv and md tables keep one row per check
        "worst_samples": [
            {"check": name, "index": index, "point": list(point)}
            for name, (index, point) in (("roundtrip_max_error", report.worst_roundtrip),
                                         ("fiber_max_error", report.worst_fiber))
        ],
        "all_passed": report.all_passed,
    }
    _emit(columns, rows, obj, args.format)
    if failed := [name for name, _, _, ok in checks if not ok]:
        raise mcheck.VerificationError(f"{len(failed)} of {len(checks)} checks failed: "
                                       + ", ".join(failed))


# model name -> (its builder in realmodels, whether it takes --g); looked up
# at call time, so a wrapper installed on the module sees the call
_MODELS = {"half": ("build_half_surface", True), "Y": ("build_Y", True), "B": ("build_B", True),
           "sym2circle": ("build_sym2_circle", False), "sym3circle": ("build_sym3_circle", False)}


def _cmd_export_model(args) -> None:
    builder, takes_genus = _MODELS[args.name]
    if takes_genus != (args.g is not None):
        raise ValueError(f"model {args.name} requires --g" if takes_genus
                         else f"--g is not used with model {args.name}")
    if takes_genus and args.g > MAX_MODEL_GENUS:
        raise ValueError(f"--g {args.g} is above the model genus cap of {MAX_MODEL_GENUS}")
    build = getattr(realmodels, builder)
    cw = build(args.g) if takes_genus else build()
    text = cw.to_json()
    if args.out:
        with _open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
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
    p.add_argument("--name", required=True, choices=list(_MODELS))
    p.add_argument("--g", type=int, help="genus (required for half, Y, B)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export_model)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # nothing msym builds holds a reference cycle, so the cyclic collector is
    # paused for the command; an in-process caller gets its setting back
    collecting = gc.isenabled()
    gc.disable()
    try:
        args.func(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed stdout early (``msym ... | head``)
        return 141
    except (mcheck.VerificationError, EulerCharacteristicMismatch,
            genfun.IntegralityViolation) as exc:
        # a failed internal cross-check: two routes disagreed, or a result
        # missed the integrality or the Euler characteristic it must have
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # a bad argument or input file, or a file or stdout that cannot be
        # read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
        try:
            sys.stdout.flush()
        except OSError:
            # stdout holds output it cannot take (a closed pipe, a full disk):
            # point it at devnull so the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
