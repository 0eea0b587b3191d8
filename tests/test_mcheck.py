"""Tests of the equality certifier and its cross-checked routes."""

from __future__ import annotations

import pytest

from msym import mcheck
from msym.genfun import betti_sum_sym
from msym.mcheck import (
    BUNDLE_FORMULA,
    CW_MODELS,
    M_VARIETY,
    STRICT_INEQUALITY,
    UNSUPPORTED_RANGE,
    SmithViolationError,
    VerificationError,
    check,
    sweep,
)
from msym.realmodels import real_sym2_decomposition


def test_check_sym2_example():
    rep = check(1, 2)
    assert (rep.complex_sum, rep.real_sum) == (8, 8)
    assert rep.verdict == M_VARIETY
    assert rep.method == CW_MODELS
    assert {name for name, _, _ in rep.per_piece} == {"Y", "torus"}


def test_check_sym3_example():
    rep = check(2, 3)
    assert (rep.complex_sum, rep.real_sum) == (32, 32)
    assert rep.verdict == M_VARIETY
    assert rep.method == CW_MODELS


def test_check_bundle_example():
    rep = check(3, 5)
    assert (rep.complex_sum, rep.real_sum) == (192, 192)
    assert rep.verdict == M_VARIETY
    assert rep.method == BUNDLE_FORMULA
    assert rep.per_piece == ()


@pytest.mark.parametrize("g", [1000, 4000])
@pytest.mark.parametrize("n", [2, 3])
def test_check_certifies_large_genus_on_cw_models(g, n):
    rep = check(g, n)  # piece-count cross-check and Euler checks run inside
    assert rep.verdict == M_VARIETY and rep.method == CW_MODELS
    assert rep.real_sum == rep.complex_sum == betti_sum_sym(g, n)
    model = ("Y", 1, (1, g + 1, 1)) if n == 2 else ("B", g + 1, (1, g + 1, g + 1, 1))
    assert model in rep.per_piece


def test_check_open_range():
    rep = check(3, 4)  # 4 <= n <= 2g-2 is genuinely open
    assert rep.verdict == UNSUPPORTED_RANGE
    assert rep.real_sum is None and rep.method is None
    assert check(4, 4).verdict == UNSUPPORTED_RANGE
    assert check(4, 5).verdict == UNSUPPORTED_RANGE
    assert check(5, 1).verdict == UNSUPPORTED_RANGE  # below every verified range


def test_check_n4_genus2_is_in_the_bundle_range():
    # 2g-1 = 3 <= 4, so the bundle route decides it
    rep = check(2, 4)
    assert rep.verdict == M_VARIETY
    assert rep.method == BUNDLE_FORMULA


def test_cw_and_bundle_routes_agree_where_both_apply():
    for g, n in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        rep = check(g, n)  # the cross-assertion lives inside check()
        assert rep.verdict == M_VARIETY
        assert rep.method == CW_MODELS


def test_check_rejects_negative_power():
    with pytest.raises(ValueError):
        check(1, -2)


# (1, 5) is decided by the bundle formula alone, so a real side shifted by one
# reaches the verdict logic with no other route to catch it first


def test_bundle_route_below_the_complex_sum_is_strict_inequality(monkeypatch):
    complex_sum = betti_sum_sym(1, 5)
    monkeypatch.setattr(mcheck, "betti_sum_large_n", lambda g, n: complex_sum - 1)
    rep = check(1, 5)
    assert rep.real_sum == complex_sum - 1
    assert rep.verdict == STRICT_INEQUALITY
    assert rep.method == BUNDLE_FORMULA


def test_bundle_route_above_the_complex_sum_violates_smith(monkeypatch):
    complex_sum = betti_sum_sym(1, 5)
    monkeypatch.setattr(mcheck, "betti_sum_large_n", lambda g, n: complex_sum + 1)
    with pytest.raises(SmithViolationError, match="exceeds"):
        check(1, 5)


def test_closed_form_disagreement_is_named(monkeypatch):
    monkeypatch.setattr(mcheck, "closed_form_sym2", lambda g: 9)
    with pytest.raises(VerificationError) as exc:
        check(1, 2)
    assert str(exc.value) == "coefficient extraction gives 8, closed form 9 (g=1, n=2)"


def test_bundle_formula_disagreement_is_named_where_cw_models_also_apply(monkeypatch):
    # 2 >= 2g - 1 at g = 1: CW homology, the piece count and the bundle formula
    monkeypatch.setattr(mcheck, "betti_sum_large_n", lambda g, n: 9)
    with pytest.raises(VerificationError) as exc:
        check(1, 2)
    assert str(exc.value) == "CW homology gives real sum 8, bundle formula gives 9 (g=1, n=2)"


def test_a_piece_the_paper_does_not_name_compares_with_none(monkeypatch):
    def renamed(g):
        return tuple(("T2" if n == "torus" else n, c, m) for n, c, m in real_sym2_decomposition(g))

    monkeypatch.setattr(mcheck, "real_sym2_decomposition", renamed)
    with pytest.raises(VerificationError) as exc:
        check(2, 2)
    assert str(exc.value) == (
        "piece \"T2\": CW homology gives (1, 2, 1), the paper's decomposition None (g=2, n=2)")


def test_smith_inequality_holds_across_sweep():
    for rep in sweep(4, 8):
        if rep.real_sum is not None:
            assert rep.real_sum <= rep.complex_sum


def test_sweep_is_sorted():
    reports = sweep(3, 5)
    keys = [(r.g, r.n) for r in reports]
    assert keys == sorted(keys)
    assert len(reports) == 4 * 4  # g in 0..3, n in 2..5


def test_report_serialization():
    rep = check(1, 2)
    d = rep.to_dict()
    assert d["g"] == 1 and d["n"] == 2
    assert d["complex_sum"] == d["real_sum"] == 8
    assert d["verdict"] == M_VARIETY
    assert {p["name"] for p in d["per_piece"]} == {"Y", "torus"}
    assert rep.csv_row() == (1, 2, 8, 8, M_VARIETY, CW_MODELS)
    open_rep = check(3, 4)
    assert open_rep.csv_row() == (3, 4, 129, "", UNSUPPORTED_RANGE, "")
