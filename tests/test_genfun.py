"""Generating-function tests.

The oracle is an independent truncated bivariate series multiplication: the
binomial factor is built by repeated multiplication with (1 + x*t) and the
two geometric factors are written out term by term, with no binomial-sum
shortcut.  The frozen example coefficients below were produced by this
oracle.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msym import (
    GradedPoly,
    IntegralityViolation,
    RangeError,
    betti_sum_large_n,
    betti_sum_sym,
    build_B,
    build_Y,
    check,
    closed_form_sym2,
    closed_form_sym3,
    genfun,
    poincare_sym,
)
from msym.genfun import _as_integer

from conftest import reference_betti_sum_sym, reference_poincare_sym


def _mul(a, b, tmax, xmax):
    out = [[0] * (xmax + 1) for _ in range(tmax + 1)]
    for i, arow in enumerate(a):
        if i > tmax:
            break
        for j, brow in enumerate(b):
            if i + j > tmax:
                break
            for p, ca in enumerate(arow):
                if not ca:
                    continue
                for q, cb in enumerate(brow):
                    if cb and p + q <= xmax:
                        out[i + j][p + q] += ca * cb
    return out


def oracle_poincare(g: int, n: int) -> list[int]:
    """t^n coefficient of (1+x*t)^(2g) / ((1-t)(1-x^2*t)), by brute force."""
    tmax, xmax = n, 2 * n
    factor = [[1]]
    for _ in range(2 * g):
        factor = _mul(factor, [[1], [0, 1]], tmax, xmax)
    geo_t = [[1] for _ in range(tmax + 1)]
    geo_x2t = [[0] * (2 * j) + [1] for j in range(tmax + 1)]
    series = _mul(_mul(factor, geo_t, tmax, xmax), geo_x2t, tmax, xmax)
    row = list(series[n])
    while row and row[-1] == 0:
        row.pop()
    return row


def test_oracle_reproduces_frozen_examples():
    assert oracle_poincare(0, 3) == [1, 0, 1, 0, 1, 0, 1]
    assert oracle_poincare(1, 2) == [1, 2, 2, 2, 1]
    assert oracle_poincare(1, 3) == [1, 2, 2, 2, 2, 2, 1]


def test_poincare_sym_examples():
    assert poincare_sym(0, 3).coeffs == (1, 0, 1, 0, 1, 0, 1)
    assert poincare_sym(1, 2).coeffs == (1, 2, 2, 2, 1)
    assert poincare_sym(1, 3).coeffs == (1, 2, 2, 2, 2, 2, 1)


def test_poincare_sym_matches_oracle():
    for g in range(6):
        for n in range(8):
            assert list(poincare_sym(g, n).coeffs) == oracle_poincare(g, n), (g, n)


def test_running_binomials_match_the_references_up_to_genus_40():
    for g in range(41):
        for n in range(91):
            assert poincare_sym(g, n) == reference_poincare_sym(g, n), (g, n)
            assert betti_sum_sym(g, n) == reference_betti_sum_sym(g, n), (g, n)


@pytest.mark.parametrize("g,n", [(750, 1500), (1500, 1500)])
def test_running_binomials_match_the_references_at_large_sizes(g, n):
    assert poincare_sym(g, n) == reference_poincare_sym(g, n)
    assert betti_sum_sym(g, n) == reference_betti_sum_sym(g, n)


def test_betti_sum_examples():
    assert betti_sum_sym(1, 2) == 8
    assert betti_sum_sym(0, 5) == 6
    assert betti_sum_sym(2, 3) == 32


def test_closed_form_sym2_examples():
    assert closed_form_sym2(0) == 3
    assert closed_form_sym2(1) == 8
    assert closed_form_sym2(3) == 30


def test_closed_form_sym3_examples():
    assert closed_form_sym3(0) == 4
    assert closed_form_sym3(1) == 12
    assert closed_form_sym3(3) == 72


def test_closed_forms_agree_with_series_up_to_genus_30():
    for g in range(31):
        assert closed_form_sym2(g) == betti_sum_sym(g, 2)
        assert closed_form_sym3(g) == betti_sum_sym(g, 3)


def test_betti_sum_large_n_examples():
    assert betti_sum_large_n(1, 2) == 8
    assert betti_sum_large_n(2, 3) == 32
    assert betti_sum_large_n(0, 4) == 5


def test_betti_sum_large_n_matches_series_on_valid_range():
    for g in range(9):
        for n in range(max(0, 2 * g - 1), 2 * g + 7):
            assert betti_sum_large_n(g, n) == betti_sum_sym(g, n), (g, n)


def test_betti_sum_large_n_range_error():
    with pytest.raises(RangeError):
        betti_sum_large_n(2, 2)
    with pytest.raises(RangeError):
        betti_sum_large_n(5, 8)
    with pytest.raises(RangeError):
        betti_sum_large_n(0, -1)


def test_bundle_formula_fails_just_below_the_range():
    # at n = 2g - 2 the series result exceeds 4^g*(n-g+1) by exactly 1
    for g in range(2, 7):
        n = 2 * g - 2
        assert betti_sum_sym(g, n) == 4 ** g * (n - g + 1) + 1


@given(st.integers(0, 300), st.integers(0, 300))
def test_poincare_is_palindromic(g, n):
    p = poincare_sym(g, n)
    assert p.degree == 2 * n
    assert p.is_palindromic()


@given(st.integers(0, 300), st.integers(0, 300))
def test_poincare_at_one_is_betti_sum(g, n):
    assert poincare_sym(g, n).evaluate(1) == betti_sum_sym(g, n)


def test_signed_evaluation_gives_euler_characteristic():
    # Euler characteristic via the x = -1 substitution, checked against the
    # independent expansion of (1-t)^(2g-2)
    for g in range(1, 7):
        for n in range(9):
            assert poincare_sym(g, n).evaluate(-1) == (-1) ** n * comb(2 * g - 2, n)
    for n in range(9):  # genus 0: complex projective n-space
        assert poincare_sym(0, n).evaluate(-1) == n + 1


def test_invalid_inputs():
    with pytest.raises(ValueError):
        poincare_sym(-1, 2)
    with pytest.raises(ValueError):
        poincare_sym(2, -1)
    with pytest.raises(ValueError):
        betti_sum_sym(-3, 0)
    with pytest.raises(ValueError):
        closed_form_sym2(-1)


@pytest.mark.parametrize("bad", [2.5, "3"])
@pytest.mark.parametrize("call,what,error", [
    (lambda x: betti_sum_sym(x, 3), "genus", ValueError),
    (lambda x: betti_sum_sym(2, x), "symmetric power", ValueError),
    (lambda x: poincare_sym(x, 3), "genus", ValueError),
    (lambda x: poincare_sym(2, x), "symmetric power", ValueError),
    (lambda x: closed_form_sym3(x), "genus", ValueError),
    (lambda x: betti_sum_large_n(x, 9), "genus", ValueError),
    (lambda x: betti_sum_large_n(1, x), "symmetric power", RangeError),
    (lambda x: check(x, 2), "genus", ValueError),
    (lambda x: check(2, x), "symmetric power", ValueError),
    (lambda x: build_Y(x), "genus", ValueError),
    (lambda x: build_B(x), "genus", ValueError),
], ids=["betti_sum_sym-g", "betti_sum_sym-n", "poincare_sym-g", "poincare_sym-n",
        "closed_form_sym3", "betti_sum_large_n-g", "betti_sum_large_n-n", "check-g", "check-n",
        "build_Y", "build_B"])
def test_genus_and_power_must_be_integers(call, what, error, bad):
    with pytest.raises(error, match=re.escape(f"{what} must be an integer, got {bad!r}")):
        call(bad)


def test_integrality_guard():
    assert _as_integer(Fraction(6, 3)) == 2
    with pytest.raises(IntegralityViolation):
        _as_integer(Fraction(1, 3))


class TestGradedPoly:
    def test_trailing_zeros_trimmed(self):
        assert GradedPoly((1, 0, 2, 0, 0)).coeffs == (1, 0, 2)
        assert GradedPoly(()).coeffs == ()
        assert GradedPoly((0, 0)).degree == -1

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            GradedPoly((1, -1))

    @pytest.mark.parametrize("coeffs", [(2.7, 3), (2, "3")])
    def test_non_integer_coefficient_rejected(self, coeffs):
        with pytest.raises(TypeError):  # not truncated to (2, 3) or parsed
            GradedPoly(coeffs)

    def test_str(self):
        assert str(GradedPoly((1, 0, 1, 0, 1, 0, 1))) == "1 + x^2 + x^4 + x^6"
        assert str(GradedPoly((1, 2, 2, 2, 1))) == "1 + 2x + 2x^2 + 2x^3 + x^4"
        assert str(GradedPoly(())) == "0"

    @pytest.mark.parametrize("g,n", [(2, 3), (40, 90), (3, 2000), (751, 1501)])
    def test_str_converts_each_distinct_coefficient_once(self, monkeypatch, g, n):
        poly = poincare_sym(g, n)
        terms = []  # the plain formatting, one conversion per coefficient
        for k, c in enumerate(poly.coeffs):
            if c:
                var = "" if k == 0 else "x" if k == 1 else f"x^{k}"
                terms.append(var if c == 1 and k else f"{c}{var}")
        converted = []
        monkeypatch.setattr(genfun, "str", lambda c: converted.append(c) or f"{c}",
                            raising=False)
        assert str(poly) == " + ".join(terms)
        assert sorted(converted) == sorted(set(poly.coeffs))

    def test_total(self):
        assert GradedPoly((1, 2, 3)).total() == 6
