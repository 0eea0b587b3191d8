"""Certifies whether symmetric products of a maximal real curve attain the
mod-2 homology bound.

For a real variety the total mod-2 Betti number of the real locus never
exceeds that of the complex points (Smith inequality); M-varieties are the
equality cases.  Both sides of a report are computed by at least two
independent routes whenever a second route exists, and the routes are
cross-asserted before any verdict is produced: redundancy is the product.
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
from .homology import BettiVector
from .realmodels import (
    betti_total,
    real_sym2_decomposition,
    real_sym3_decomposition,
)

M_VARIETY = "M_VARIETY"
STRICT_INEQUALITY = "STRICT_INEQUALITY"
UNSUPPORTED_RANGE = "UNSUPPORTED_RANGE"

CW_MODELS = "CW_MODELS"
BUNDLE_FORMULA = "BUNDLE_FORMULA"


class VerificationError(RuntimeError):
    """Two independent computation routes disagreed; a model or formula is broken."""


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


def check(g: int, n: int) -> MVarietyReport:
    """Compare real and complex mod-2 Betti sums of the n-th symmetric product.

    For n = 2, 3 the real side is computed by running the homology engine on
    the CW decomposition of the real locus and cross-checked against the
    piece-count formula; for n >= 2g-1 it comes from the real projective
    bundle over the real locus of the degree-zero line bundle torus.  The
    range 4 <= n <= 2g-2 is reported as UNSUPPORTED_RANGE.  The Smith
    inequality is enforced as a hard invariant on every decided report.
    """
    g = _check_genus(g)
    n = _check_power(n)

    complex_sum = betti_sum_sym(g, n)

    if n in (2, 3):
        if n == 2:
            closed, build = closed_form_sym2(g), real_sym2_decomposition
            expected = 2 * g * (g + 1) + 3 + g
        else:
            closed, build = closed_form_sym3(g), real_sym3_decomposition
            expected = 8 * comb(g + 1, 3) + 2 * (g + 2) * (g + 1)
        if complex_sum != closed:
            raise VerificationError(
                f"coefficient extraction gives {complex_sum}, closed form {closed} (g={g}, n={n})"
            )
        per_piece = build(g).betti_by_piece()
        real_sum = betti_total(per_piece)
        if real_sum != expected:
            raise VerificationError(
                f"CW homology gives real sum {real_sum}, piece count predicts {expected} (g={g}, n={n})"
            )
        if n >= 2 * g - 1:
            bundle = betti_sum_large_n(g, n)
            if real_sum != bundle:
                raise VerificationError(
                    f"CW models give {real_sum}, bundle formula gives {bundle} (g={g}, n={n})"
                )
        method = CW_MODELS
    elif n >= 2 * g - 1:
        real_sum = betti_sum_large_n(g, n)
        per_piece = ()
        method = BUNDLE_FORMULA
    else:
        return MVarietyReport(
            g=g,
            n=n,
            complex_sum=complex_sum,
            real_sum=None,
            per_piece=(),
            verdict=UNSUPPORTED_RANGE,
            method=None,
        )

    if real_sum > complex_sum:
        raise SmithViolationError(
            f"real Betti sum {real_sum} exceeds complex Betti sum {complex_sum} "
            f"(g={g}, n={n}); the real-locus model is broken"
        )
    verdict = M_VARIETY if real_sum == complex_sum else STRICT_INEQUALITY
    return MVarietyReport(
        g=g,
        n=n,
        complex_sum=complex_sum,
        real_sum=real_sum,
        per_piece=per_piece,
        verdict=verdict,
        method=method,
    )


def sweep(g_max: int, n_max: int) -> list[MVarietyReport]:
    """Run :func:`check` over the grid g in [0, g_max], n in [2, n_max],
    returning the reports sorted by (g, n)."""
    return [check(g, n) for g in range(g_max + 1) for n in range(2, n_max + 1)]
