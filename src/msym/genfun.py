"""Exact Betti-number generating functions for symmetric products of a surface.

The Poincare polynomial of the n-th symmetric product of a closed orientable
genus-g surface is the t^n coefficient of the classical product series

    (1 + x*t)^(2g) / ((1 - t) * (1 - x^2*t)),

and the Betti-number sum is the t^n coefficient of (1+t)^(2g) / (1-t)^2.
Everything in this module is computed with arbitrary-precision integers or
rationals; there is no floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


class IntegralityViolation(ArithmeticError):
    """A rational closed form that must simplify to an integer did not."""


class RangeError(ValueError):
    """Input outside the range on which a formula is valid."""


@dataclass(frozen=True)
class GradedPoly:
    """Polynomial with nonnegative integer coefficients, indexed by degree.

    Trailing zero coefficients are trimmed, so ``degree`` is well defined.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = list(map(operator.index, self.coeffs))
        for i, c in enumerate(cs):
            if c < 0:
                raise ValueError(f"coefficient of degree {i} is negative: {c}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def total(self) -> int:
        """Sum of all coefficients (the value at x = 1)."""
        return sum(self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, text in enumerate(_coeff_texts(self.coeffs)):
            if text == "0":
                continue
            if k == 0:
                terms.append(text)
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if text == "1" else text + var)
        return " + ".join(terms)


def _coeff_texts(coeffs: tuple[int, ...]) -> list[str]:
    """The decimal text of each coefficient, with one ``str()`` per distinct
    value.  A Poincare polynomial from :func:`poincare_sym` is palindromic,
    and in the bundle range its middle repeats, so at most min(2g, n) + 1 of
    its 2n + 1 coefficients differ; CPython converts an int to decimal in
    time quadratic in its length, so each conversion is worth saving."""
    memo = {}
    return [memo[c] if c in memo else memo.setdefault(c, str(c)) for c in coeffs]


def _check_nonnegative(value: int, what: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a nonnegative int, by ``operator.index``: 2.9 or "3" raise ``error``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if value < 0:
        raise error(f"{what} must be nonnegative, got {value}")
    return value


def _check_genus(g: int) -> int:
    return _check_nonnegative(g, "genus")


def _check_power(n: int) -> int:
    return _check_nonnegative(n, "symmetric power")


def poincare_sym(g: int, n: int) -> GradedPoly:
    """Poincare polynomial of the n-th symmetric product of a genus-g surface.

    The t^n coefficient of (1+x*t)^(2g) / ((1-t)(1-x^2*t)) collects the terms
    C(2g,k) x^k t^k * t^a * x^(2b) t^b with k + a + b = n, so the coefficient
    of x^j is the sum of C(2g,k) over k of the parity of j with
    0 <= k <= min(j, 2n - j, 2g).  The binomials come from a running product
    and are summed by parity as they go, so each coefficient is one lookup:
    O(g + n) big-int operations.  The result has degree exactly 2n and
    palindromic coefficients.
    """
    g = _check_genus(g)
    n = _check_power(n)
    m = min(2 * g, n)
    pre = []  # pre[k] = C(2g, k) + C(2g, k - 2) + C(2g, k - 4) + ...
    c = 1  # C(2g, k)
    for k in range(m + 1):
        pre.append(c + pre[k - 2] if k >= 2 else c)
        c = c * (2 * g - k) // (k + 1)
    coeffs = []
    for j in range(2 * n + 1):
        top = min(j, 2 * n - j, m)
        top -= (j - top) & 1  # largest k <= top with the parity of j
        coeffs.append(pre[top] if top >= 0 else 0)
    return GradedPoly(tuple(coeffs))


def betti_sum_sym(g: int, n: int) -> int:
    """Sum of the mod-2 Betti numbers of the n-th symmetric product.

    Computed independently of :func:`poincare_sym` as the t^n coefficient of
    (1+t)^(2g) / (1-t)^2, i.e. sum over k of C(2g,k)*(n-k+1), with its own
    running binomial: O(g + n) big-int operations.
    """
    g = _check_genus(g)
    n = _check_power(n)
    total = 0
    c = 1  # C(2g, k)
    for k in range(min(2 * g, n) + 1):
        total += c * (n - k + 1)
        c = c * (2 * g - k) // (k + 1)
    return total


def closed_form_sym2(g: int) -> int:
    """Betti-number sum of the second symmetric product: 3 + 3g + 2g^2."""
    g = _check_genus(g)
    return 3 + 3 * g + 2 * g * g


def _as_integer(value: Fraction) -> int:
    if value.denominator != 1:
        raise IntegralityViolation(f"expected an integer, got {value}")
    return value.numerator


def closed_form_sym3(g: int) -> int:
    """Betti-number sum of the third symmetric product: 4 + 14g/3 + 2g^2 + 4g^3/3.

    The fractional terms always cancel; a non-integral result can only mean an
    implementation bug and raises :class:`IntegralityViolation`.
    """
    g = _check_genus(g)
    value = 4 + Fraction(14, 3) * g + 2 * g * g + Fraction(4, 3) * g ** 3
    return _as_integer(value)


def betti_sum_large_n(g: int, n: int) -> int:
    """Betti-number sum of the n-th symmetric product for n >= 2g - 1.

    In this range the symmetric product fibers as a complex projective bundle
    of relative dimension n - g over the 2g-torus of degree-zero line bundle
    classes, so the sum is 4^g * (n - g + 1).  Below n = 2g - 1 the formula is
    not valid and :class:`RangeError` is raised.
    """
    g = _check_genus(g)
    n = _check_nonnegative(n, "symmetric power", RangeError)
    if n < 2 * g - 1:
        raise RangeError(f"bundle formula requires n >= 2g - 1, got n={n}, g={g}")
    return 4 ** g * (n - g + 1)
