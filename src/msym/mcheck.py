"""Certifies whether symmetric products of a maximal real curve attain the
mod-2 homology bound.

For a real variety the total mod-2 Betti number of the real locus never
exceeds that of the complex points (Smith inequality); M-varieties are the
equality cases.  Both sides of a report are computed by at least two
independent routes whenever a second route exists, and the routes, each a
pair of its wording and its value, are cross-asserted before any verdict is
produced: redundancy is the product.  On the real side each piece of the
paper's decomposition is checked on its own, not only their total.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .genfun import (
    _check_genus,
    _check_power,
    betti_sum_large_n,
    betti_sum_sym,
    closed_form_sym2,
    closed_form_sym3,
)
from .homology import BettiVector, betti
from .realmodels import real_sym2_decomposition, real_sym3_decomposition

M_VARIETY = "M_VARIETY"
STRICT_INEQUALITY = "STRICT_INEQUALITY"
UNSUPPORTED_RANGE = "UNSUPPORTED_RANGE"

CW_MODELS = "CW_MODELS"
BUNDLE_FORMULA = "BUNDLE_FORMULA"


class VerificationError(RuntimeError):
    """Two independent routes disagreed (a model or formula is broken), or a check failed."""


class SmithViolationError(VerificationError):
    """A real Betti sum exceeded the complex one, which is impossible for a
    correct model."""


@dataclass(frozen=True)
class MVarietyReport:
    """Outcome of one equality check between real and complex Betti sums."""

    g: int
    n: int
    complex_sum: int
    real_sum: int | None
    per_piece: tuple[tuple[str, int, BettiVector], ...]
    verdict: str
    method: str | None

    def to_dict(self) -> dict:
        return {
            "g": self.g,
            "n": self.n,
            "complex_sum": self.complex_sum,
            "real_sum": self.real_sum,
            "per_piece": [
                {"name": name, "multiplicity": mult, "betti": list(b)}
                for name, mult, b in self.per_piece
            ],
            "verdict": self.verdict,
            "method": self.method,
        }

    def csv_row(self) -> tuple:
        return (
            self.g,
            self.n,
            self.complex_sum,
            "" if self.real_sum is None else self.real_sum,
            self.verdict,
            "" if self.method is None else self.method,
        )


def _agree(g: int, n: int, route: tuple[str, object], *others: tuple[str, object]) -> None:
    """Raise :class:`VerificationError` on the first of ``others`` whose value
    differs from ``route``'s; a route is a pair of its wording and its value."""
    wording, value = route
    for other, other_value in others:
        if other_value != value:
            raise VerificationError(f"{wording} {value}, {other} {other_value} (g={g}, n={n})")


def check(g: int, n: int) -> MVarietyReport:
    """Compare real and complex mod-2 Betti sums of the n-th symmetric product.

    For n = 2, 3, coefficient extraction must match the closed form, and each
    piece of the CW model of the real locus must have the Betti vector that
    the paper's decomposition gives it.  The real-side routes must then
    agree: CW homology and the piece count for n = 2, 3, and for n >= 2g-1
    the bundle formula (a real projective bundle over the real locus of the
    degree-zero line bundle torus).  With no route (4 <= n <= 2g-2) the
    verdict is UNSUPPORTED_RANGE.  The Smith inequality is a hard invariant on
    every decided report.  ``msym real-betti`` prints this report's
    ``per_piece`` and ``real_sum``.
    """
    g = _check_genus(g)
    n = _check_power(n)

    complex_sum = betti_sum_sym(g, n)
    real = []  # the real-side routes
    per_piece = ()
    method = None
    if n in (2, 3):
        # the paper's decomposition: piece name -> (copies, Betti vector)
        if n == 2:
            closed, build = closed_form_sym2(g), real_sym2_decomposition
            paper = {"Y": (1, (1, g + 1, 1)), "torus": (comb(g + 1, 2), (1, 2, 1))}
        else:
            closed, build = closed_form_sym3(g), real_sym3_decomposition
            paper = {"3-torus": (comb(g + 1, 3), (1, 3, 3, 1)), "B": (g + 1, (1, g + 1, g + 1, 1))}
        _agree(g, n, ("coefficient extraction gives", complex_sum), ("closed form", closed))
        per_piece = tuple((name, mult, betti(cw)) for name, cw, mult in build(g))
        for name, _, b in per_piece:
            _agree(g, n, (f'piece "{name}": CW homology gives', b),
                   ("the paper's decomposition", paper.get(name, (0, None))[1]))
        real.append(("CW homology gives real sum", sum(mult * sum(b) for _, mult, b in per_piece)))
        real.append(("piece count predicts", sum(copies * sum(b) for copies, b in paper.values())))
        method = CW_MODELS
    if n >= 2 * g - 1:
        real.append(("bundle formula gives", betti_sum_large_n(g, n)))
        method = method or BUNDLE_FORMULA

    real_sum = None  # no route: the verdict is UNSUPPORTED_RANGE
    verdict = UNSUPPORTED_RANGE
    if real:
        _agree(g, n, *real)
        real_sum = real[0][1]
        if real_sum > complex_sum:
            raise SmithViolationError(
                f"real Betti sum {real_sum} exceeds complex Betti sum {complex_sum} "
                f"(g={g}, n={n}); the real-locus model is broken"
            )
        verdict = M_VARIETY if real_sum == complex_sum else STRICT_INEQUALITY
    return MVarietyReport(g, n, complex_sum, real_sum, per_piece, verdict, method)


def sweep(g_max: int, n_max: int) -> list[MVarietyReport]:
    """Run :func:`check` over the grid g in [0, g_max], n in [2, n_max],
    returning the reports sorted by (g, n)."""
    return [check(g, n) for g in range(g_max + 1) for n in range(2, n_max + 1)]
