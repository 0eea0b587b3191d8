"""Independent output checker: expectations computed without importing msym.

``check(op, rc, out, err)`` returns ``None`` when the output of one
``msym.cli.main(argv)`` call is correct and a one-line reason otherwise.  An
op is a dict with ``kind`` and ``params`` as written by ``workloads``.

Expectations:
- complex Betti sums: the closed forms 2g^2+3g+3 (n = 2) and
  (4g^3+6g^2+14g+12)/3 (n = 3), the bundle formula 4^g (n-g+1) for
  n >= 2g-1, and otherwise the t^n coefficient of (1+t)^(2g)/(1-t)^2 summed
  with a running binomial;
- Poincare polynomials: P(1) = Betti sum, palindromic, degree 2n, and
  P(-1) = (-1)^n C(2g-2, n) (Macdonald 1962; n+1 when g = 0);
- sweeps: row count, (g, n) order, UNSUPPORTED_RANGE exactly for
  4 <= n <= 2g-2, bundle rows above it, CW rows for n = 2, 3;
- homology: the Kunneth Betti vector the generator recorded, the cell count,
  and Euler characteristic = alternating Betti sum; malformed input must exit
  2 with an ``error:`` line and no stdout;
- fibration: every check passed.
"""

from __future__ import annotations

import json
from math import comb


def betti_sum(g: int, n: int) -> int:
    """Total Betti number of the n-th symmetric product of a genus-g surface."""
    if n == 2:
        return 2 * g * g + 3 * g + 3
    if n == 3:
        value, rem = divmod(4 * g ** 3 + 6 * g * g + 14 * g + 12, 3)
        assert rem == 0
        return value
    if n >= 2 * g - 1:
        return 4 ** g * (n - g + 1)
    # sum_k C(2g, k) (n - k + 1) with C(2g, k) updated in place
    total, binom = 0, 1
    for k in range(min(n, 2 * g) + 1):
        total += binom * (n - k + 1)
        binom = binom * (2 * g - k) // (k + 1)
    return total


def euler_sym(g: int, n: int) -> int:
    """P(-1): the t^n coefficient of (1-t)^(2g-2)."""
    if g == 0:
        return n + 1
    return (-1) ** n * comb(2 * g - 2, n)


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _certify_row(row, g: int, n: int):
    if not isinstance(row, dict) or (row.get("g"), row.get("n")) != (g, n):
        return f"expected row (g={g}, n={n}), got {row!r:.80}"
    expect = betti_sum(g, n)
    if row.get("complex_sum") != expect:
        return f"(g={g}, n={n}): complex_sum {row.get('complex_sum')} != {expect}"
    if n in (2, 3):
        verdict, method, real = "M_VARIETY", "CW_MODELS", expect
    elif n <= 2 * g - 2:
        verdict, method, real = "UNSUPPORTED_RANGE", None, None
    else:
        verdict, method, real = "M_VARIETY", "BUNDLE_FORMULA", 4 ** g * (n - g + 1)
    got = (row.get("verdict"), row.get("method"), row.get("real_sum"))
    if got != (verdict, method, real):
        return f"(g={g}, n={n}): (verdict, method, real_sum) {got} != {(verdict, method, real)}"
    pieces = row.get("per_piece")
    if n in (2, 3):
        try:
            piece_sum = sum(p["multiplicity"] * sum(p["betti"]) for p in pieces)
        except (TypeError, KeyError):
            return f"(g={g}, n={n}): malformed per_piece"
        if piece_sum != real:
            return f"(g={g}, n={n}): per-piece sum {piece_sum} != real_sum {real}"
    return None


def _check_certify(params: dict, rc: int, out: str):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    obj = _json(out)
    if not isinstance(obj, dict) or not isinstance(obj.get("reports"), list):
        return "stdout is not a JSON object with a reports list"
    reports = obj["reports"]
    if "gmax" in params:
        grid = [(g, n) for g in range(params["gmax"] + 1) for n in range(2, params["nmax"] + 1)]
    else:
        grid = [(params["g"], params["n"])]
    if len(reports) != len(grid):
        return f"{len(reports)} rows, expected {len(grid)}"
    for row, (g, n) in zip(reports, grid):
        reason = _certify_row(row, g, n)
        if reason:
            return reason
    return None


def _check_betti_sym(params: dict, rc: int, out: str):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    obj = _json(out)
    g, n = params["g"], params["n"]
    if not isinstance(obj, dict) or (obj.get("g"), obj.get("n")) != (g, n):
        return "stdout is not the JSON object for this (g, n)"
    total = betti_sum(g, n)
    if obj.get("betti_sum") != total:
        return f"betti_sum {obj.get('betti_sum')} != {total}"
    poly = obj.get("poincare")
    if not params["poly"]:
        return None if poly is None else "poincare present without --poly"
    if not isinstance(poly, list) or not all(isinstance(c, int) and c >= 0 for c in poly):
        return "poincare is not a list of nonnegative integers"
    if len(poly) != 2 * n + 1 or poly[-1] == 0:
        return f"poincare has degree {len(poly) - 1}, expected {2 * n}"
    if poly != poly[::-1]:
        return "poincare is not palindromic"
    if sum(poly) != total:
        return "P(1) != betti_sum"
    alt = sum(poly[0::2]) - sum(poly[1::2])
    if alt != euler_sym(g, n):
        return f"P(-1) = {alt} != {euler_sym(g, n)}"
    return None


def _check_homology(params: dict, rc: int, out: str, err: str):
    if not params["valid"]:
        if rc != 2:
            return f"exit code {rc} on malformed input ({params['error']}), expected 2"
        if out:
            return "stdout is not empty on malformed input"
        if not any(line.startswith("error:") for line in err.splitlines()):
            return "no error: line on stderr"
        return None
    if rc != 0:
        return f"exit code {rc}, expected 0"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "stdout is not a JSON object"
    betti = params["betti"]
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    got = (obj.get("file"), obj.get("cells"), obj.get("betti"), obj.get("euler_char"))
    want = (params["file"], params["cells"], betti, euler)
    if got != want:
        return f"(file, cells, betti, euler_char) {got} != {want}"
    return None


def _check_fibration(params: dict, rc: int, out: str):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    obj = _json(out)
    if not isinstance(obj, dict):
        return "stdout is not a JSON object"
    if (obj.get("samples"), obj.get("seed")) != (params["samples"], params["seed"]):
        return "samples or seed differ from the argv"
    checks = obj.get("checks")
    if obj.get("all_passed") is not True or not checks or not all(c.get("passed") for c in checks):
        return "not every fibration check passed"
    return None


def check(op: dict, rc, out: str, err: str):
    """None if the op's output is correct, else the reason it is not."""
    if not isinstance(rc, int) or isinstance(rc, bool):
        return f"main returned {rc!r}, not an exit code"
    kind, params = op["kind"], op["params"]
    if kind in ("certify-single", "certify-sweep"):
        return _check_certify(params, rc, out)
    if kind == "betti-sym":
        return _check_betti_sym(params, rc, out)
    if kind == "homology":
        return _check_homology(params, rc, out, err)
    if kind == "fibration":
        return _check_fibration(params, rc, out)
    return f"unknown op kind {kind!r}"
