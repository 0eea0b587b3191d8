"""CLI surface tests: formats, exit codes, determinism."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from msym import cli, fibration, genfun, homology, mcheck, realmodels
from msym.homology import ChainComplexF2, betti, product
from msym.realmodels import build_B, circle
from msym.cli import (MAX_ANSWER_DIGITS, MAX_FILE_BYTES, MAX_MODEL_GENUS, MAX_POLY_DEGREE,
                      MAX_SAMPLES, MAX_SWEEP_GENUS, MAX_SWEEP_ROWS, main)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_m_csv_golden_row(capsys):
    code, out, _ = run(capsys, ["check-m", "--g", "1", "--n", "2", "--format", "csv"])
    assert code == 0
    assert out == "g,n,complex_sum,real_sum,verdict,method\n1,2,8,8,M_VARIETY,CW_MODELS\n"


def test_check_m_open_range_warns_but_exits_zero(capsys):
    code, out, err = run(capsys, ["check-m", "--g", "3", "--n", "4", "--format", "csv"])
    assert code == 0
    assert "3,4,129,,UNSUPPORTED_RANGE,\n" in out
    assert "open range" in err


def test_check_m_writes_one_warning_line_per_call(capsys):
    code, out, err = run(capsys, ["check-m", "--sweep", "--gmax", "8", "--nmax", "16"])
    open_range = sum(4 <= n <= 2 * g - 2 for g in range(9) for n in range(2, 17))
    assert code == 0 and out.count("UNSUPPORTED_RANGE") == open_range == 36
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert f"{open_range} of {9 * 15} rows" in warnings[0]
    assert "open range" in warnings[0] and "(g=3, n=4)" in warnings[0]


def test_check_m_sweep_exit_code_and_determinism(capsys):
    argv = ["check-m", "--sweep", "--gmax", "2", "--nmax", "5", "--format", "csv"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("gmax,nmax,bad", [("-1", "3", "--gmax -1"), ("3", "1", "--nmax 1"),
                                            ("0", "-5", "--nmax -5")])
def test_check_m_empty_sweep_is_rejected(capsys, gmax, nmax, bad):
    code, out, err = run(capsys, ["check-m", "--sweep", "--gmax", gmax, "--nmax", nmax])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and bad in err


@pytest.mark.parametrize("argv,flag", [
    (["check-m", "--sweep", "--gmax", "3", "--nmax", "3", "--g", "5"], "--g"),
    (["check-m", "--sweep", "--gmax", "3", "--nmax", "3", "--n", "5"], "--n"),
    (["check-m", "--g", "1", "--n", "2", "--gmax", "3"], "--gmax"),
    (["check-m", "--g", "1", "--n", "2", "--nmax", "3"], "--nmax"),
])
def test_check_m_rejects_flags_its_mode_ignores(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} is not used") and err.count("\n") == 1


def test_check_m_requires_arguments(capsys):
    code, _, err = run(capsys, ["check-m"])
    assert code == 2
    assert "--g" in err or "--sweep" in err


def test_check_m_json_round_trip(capsys):
    code, out, _ = run(capsys, ["check-m", "--g", "2", "--n", "3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    rep = obj["reports"][0]
    assert rep["complex_sum"] == rep["real_sum"] == 32
    assert rep["verdict"] == "M_VARIETY"
    assert {p["name"] for p in rep["per_piece"]} == {"3-torus", "B"}


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
def test_a_strict_inequality_row_prints_its_table_then_one_error_line(capsys, monkeypatch, fmt):
    # (1, 5) is decided by the bundle formula alone; one below the complex sum
    # reaches the verdict with no other route to catch it first
    monkeypatch.setattr(mcheck, "betti_sum_large_n", lambda g, n: genfun.betti_sum_sym(g, n) - 1)
    code, out, err = run(capsys, ["check-m", "--g", "1", "--n", "5", "--format", fmt])
    assert code == 1
    assert err == "error: 1 of 1 rows are not M-varieties, the first at (g=1, n=5)\n"
    if fmt == "csv":
        assert out == ("g,n,complex_sum,real_sum,verdict,method\n"
                       "1,5,20,19,STRICT_INEQUALITY,BUNDLE_FORMULA\n")
    else:
        assert out.count("STRICT_INEQUALITY") == 1


def test_a_sweep_counts_its_strict_inequality_rows_and_names_the_first(capsys, monkeypatch):
    large_n = mcheck.betti_sum_large_n
    # only rows with n >= 4 are decided by the bundle formula alone
    monkeypatch.setattr(mcheck, "betti_sum_large_n", lambda g, n: large_n(g, n) - (n >= 4))
    code, out, err = run(capsys, ["check-m", "--sweep", "--gmax", "3", "--nmax", "5",
                                  "--format", "csv"])
    assert code == 1 and out.count("STRICT_INEQUALITY") == 7
    assert err.splitlines() == [
        "warning: 1 of 16 rows are in the open range 4 <= n <= 2g-2 and have no verdict, "
        "the first at (g=3, n=4)",
        "error: 7 of 16 rows are not M-varieties, the first at (g=0, n=4)",
    ]


def test_betti_sym_poly(capsys):
    code, out, _ = run(capsys, ["betti-sym", "--g", "0", "--n", "3", "--poly"])
    assert code == 0
    assert "1 + x^2 + x^4 + x^6" in out
    assert "4" in out
    code, out, _ = run(capsys, ["betti-sym", "--g", "0", "--n", "3", "--poly", "--format", "json"])
    obj = json.loads(out)
    assert obj == {"g": 0, "n": 3, "betti_sum": 4, "poincare": [1, 0, 1, 0, 1, 0, 1]}


def test_betti_sym_builds_the_polynomial_only_under_poly(capsys, monkeypatch):
    def refuse(g, n):
        raise AssertionError("poincare_sym called without --poly")

    monkeypatch.setattr(genfun, "poincare_sym", refuse)
    code, out, _ = run(capsys, ["betti-sym", "--g", "3", "--n", "2"])
    assert code == 0
    assert "| 3 | 2 | 30        |" in out


def test_betti_sym_poly_json_does_not_format_the_polynomial(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("GradedPoly.__str__ called for json output")

    monkeypatch.setattr(genfun.GradedPoly, "__str__", refuse)
    code, out, _ = run(capsys, ["betti-sym", "--g", "2", "--n", "3", "--poly", "--format", "json"])
    assert code == 0
    assert json.loads(out)["poincare"] == [1, 4, 7, 8, 7, 4, 1]


# stdout of betti-sym --poly before the json path stopped formatting the
# polynomial, byte for byte at (2, 3) and as (length, sha256) at (40, 90)
BETTI_SYM_POLY_2_3 = {
    "json": (
        '{\n  "g": 2,\n  "n": 3,\n  "betti_sum": 32,\n  "poincare": [\n    1,\n    4,\n'
        '    7,\n    8,\n    7,\n    4,\n    1\n  ]\n}\n'
    ),
    "csv": "g,n,betti_sum,poincare\n2,3,32,1 + 4x + 7x^2 + 8x^3 + 7x^4 + 4x^5 + x^6\n",
    "md": (
        "| g | n | betti_sum | poincare                                 |\n"
        "| - | - | --------- | ---------------------------------------- |\n"
        "| 2 | 3 | 32        | 1 + 4x + 7x^2 + 8x^3 + 7x^4 + 4x^5 + x^6 |\n"
    ),
}
BETTI_SYM_POLY_40_90 = {
    "json": (4942, "a4c0bcf91cb55e66651b1a96875f992bf03599e95045f42fc79300307f0a3a96"),
    "csv": (5154, "86e12d4eed213580d3a0baed83efd470bb8668d2f830ce05dc4bbb1543e4ff63"),
    "md": (15423, "08d18d6b136b84f04ab897ef6e7fa435d38671d9b989199aa6ba98b1f692bdb1"),
}


@pytest.mark.parametrize("fmt", sorted(BETTI_SYM_POLY_2_3))
def test_betti_sym_poly_output_is_pinned(capsys, fmt):
    argv = ["betti-sym", "--g", "2", "--n", "3", "--poly", "--format", fmt]
    assert run(capsys, argv) == (0, BETTI_SYM_POLY_2_3[fmt], "")
    code, out, err = run(capsys, ["betti-sym", "--g", "40", "--n", "90", "--poly", "--format", fmt])
    data = out.encode()
    assert (code, err) == (0, "")
    assert (len(data), hashlib.sha256(data).hexdigest()) == BETTI_SYM_POLY_40_90[fmt]


def test_betti_sym_poly_json_is_what_json_dumps_writes(capsys):
    for g, n in [(g, n) for g in range(13) for n in range(31)] + [(751, 1501), (3, 2000)]:
        obj = {"g": g, "n": n, "betti_sum": genfun.betti_sum_sym(g, n),
               "poincare": list(genfun.poincare_sym(g, n).coeffs)}
        argv = ["betti-sym", "--g", str(g), "--n", str(n), "--poly", "--format", "json"]
        assert run(capsys, argv) == (0, json.dumps(obj, indent=2) + "\n", ""), (g, n)


def test_betti_sym_poly_json_converts_each_distinct_coefficient_once(capsys, monkeypatch):
    coeffs = genfun.poincare_sym(751, 1501).coeffs
    converted = []
    monkeypatch.setattr(genfun, "str", lambda c: converted.append(c) or f"{c}", raising=False)
    code, out, _ = run(capsys, ["betti-sym", "--g", "751", "--n", "1501", "--poly",
                                "--format", "json"])
    assert code == 0 and json.loads(out)["poincare"] == list(coeffs)
    assert sorted(converted) == sorted(set(coeffs))


def _shift(coeffs, n):  # x * P: degree 2n + 1, same P(1)
    return (0, *coeffs)


def _bump_ends(coeffs, n):  # + x + x^(2n-1): P(1) is 2 too large
    cs = list(coeffs)
    cs[1] += 1
    cs[2 * n - 1] += 1
    return cs


def _tilt(coeffs, n):  # + x - x^2: same P(1) and degree, not palindromic
    cs = list(coeffs)
    cs[1] += 1
    cs[2] -= 1
    return cs


def _bump_and_lower(coeffs, n):  # + x + x^(2n-1) - x^2 - x^(2n-2): only P(-1) moves
    cs = _bump_ends(coeffs, n)
    cs[2] -= 1
    cs[2 * n - 2] -= 1
    return cs


@pytest.mark.parametrize("mutate,fault", [
    (_bump_ends, "Poincare polynomial gives P(1) = 131, Betti sum 129"),
    (_shift, "Poincare polynomial has degree 9, required 8"),
    (_tilt, "Poincare polynomial is palindromic: False, required True"),
    (_bump_and_lower, "Poincare polynomial gives P(-1) = -3, Macdonald's Euler characteristic 1"),
])
@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
def test_betti_sym_poly_checks_the_polynomial(capsys, monkeypatch, mutate, fault, fmt):
    poincare_sym = genfun.poincare_sym
    monkeypatch.setattr(genfun, "poincare_sym",
                        lambda g, n: genfun.GradedPoly(mutate(poincare_sym(g, n).coeffs, n)))
    code, out, err = run(capsys, ["betti-sym", "--g", "3", "--n", "4", "--poly", "--format", fmt])
    assert (code, out, err) == (1, "", f"error: {fault} (g=3, n=4)\n")


def refuse(*args):
    raise AssertionError("the size rule should have rejected the input first")


def assert_size_error(code, out, err, *flags):
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(flag in err for flag in flags)
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv,flags", [
    (["betti-sym", "--g", "7500", "--n", "7000"], ["--g 7500 --n 7000"]),
    (["betti-sym", "--g", "7500", "--n", "7000", "--format", "json"], ["--g 7500 --n 7000"]),
    (["check-m", "--g", "7200", "--n", "14400", "--format", "json"], ["--g 7200 --n 14400"]),
])
def test_betti_sum_too_long_to_print_exits_2_naming_the_flags(capsys, argv, flags):
    assert_size_error(*run(capsys, argv), *flags, f"{MAX_ANSWER_DIGITS} decimal digits")


@pytest.mark.parametrize("argv,flags,expensive", [
    (["betti-sym", "--g", "20000", "--n", "20000"], ["--g 20000 --n 20000"],
     (genfun, "betti_sum_sym")),
    (["check-m", "--g", "100000", "--n", "5000"], ["--g 100000 --n 5000"], (mcheck, "check")),
    (["check-m", "--sweep", "--gmax", "20000", "--nmax", "30000"], ["--gmax 20000 --nmax 30000"],
     (mcheck, "sweep")),
])
def test_predictably_long_betti_sums_are_rejected_before_any_work(
        capsys, monkeypatch, argv, flags, expensive):
    monkeypatch.setattr(*expensive, refuse)
    assert_size_error(*run(capsys, argv), *flags)


def test_answer_length_limit_is_exact(capsys):
    # at genus 0 the Betti sum is n + 1
    longest = str(10 ** MAX_ANSWER_DIGITS - 2)
    code, out, _ = run(capsys, ["betti-sym", "--g", "0", "--n", longest, "--format", "csv"])
    assert code == 0
    assert out == f"g,n,betti_sum\n0,{longest},{'9' * MAX_ANSWER_DIGITS}\n"
    too_long = str(10 ** MAX_ANSWER_DIGITS - 1)
    assert_size_error(*run(capsys, ["betti-sym", "--g", "0", "--n", too_long]), f"--n {too_long}")


def test_poly_degree_above_the_cap_is_rejected_without_allocating(capsys, monkeypatch):
    code, out, _ = run(capsys, ["betti-sym", "--g", "0", "--n", str(MAX_POLY_DEGREE // 2),
                                "--poly", "--format", "csv"])
    assert code == 0 and out.endswith(f"x^{MAX_POLY_DEGREE}\n")
    monkeypatch.setattr(genfun, "poincare_sym", refuse)
    tracemalloc.start()
    try:
        result = run(capsys, ["betti-sym", "--g", "2", "--n", "100000000", "--poly"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_size_error(*result, "--n 100000000 with --poly", f"cap of {MAX_POLY_DEGREE}")
    assert peak < 1 << 20


def refuse_model(g):
    raise AssertionError("the genus cap should have rejected the input first")


@pytest.mark.parametrize("argv,flag", [
    (["check-m", "--g", str(MAX_MODEL_GENUS + 1), "--n", "3"], "--g"),
    (["check-m", "--g", str(MAX_MODEL_GENUS + 1), "--n", "2", "--format", "json"], "--g"),
    (["check-m", "--sweep", "--gmax", str(MAX_MODEL_GENUS + 1), "--nmax", "2"], "--gmax"),
    (["real-betti", "--g", str(MAX_MODEL_GENUS + 1), "--n", "2"], "--g"),
    (["export-model", "--name", "half", "--g", str(MAX_MODEL_GENUS + 1)], "--g"),
    (["export-model", "--name", "Y", "--g", str(MAX_MODEL_GENUS + 1)], "--g"),
    (["export-model", "--name", "B", "--g", str(MAX_MODEL_GENUS + 1)], "--g"),
])
def test_model_genus_above_the_cap_is_rejected_before_building(capsys, monkeypatch, argv, flag):
    for name in ("build_half_surface", "build_Y", "build_B"):
        monkeypatch.setattr(realmodels, name, refuse_model)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {flag} {MAX_MODEL_GENUS + 1} is above the model genus cap of "
                   f"{MAX_MODEL_GENUS}\n")


def test_sweep_genus_above_the_cap_is_rejected_at_once(capsys, monkeypatch):
    monkeypatch.setattr(mcheck, "sweep", refuse)
    start = time.perf_counter()
    result = run(capsys, ["check-m", "--sweep", "--gmax", str(MAX_SWEEP_GENUS + 1), "--nmax", "3"])
    assert time.perf_counter() - start < 1
    assert result == (2, "", f"error: --gmax {MAX_SWEEP_GENUS + 1} is above the sweep genus "
                             f"cap of {MAX_SWEEP_GENUS}\n")
    swept = []
    monkeypatch.setattr(mcheck, "sweep", lambda gmax, nmax: swept.append(gmax) or [mcheck.check(0, 2)])
    code, _, _ = run(capsys, ["check-m", "--sweep", "--gmax", str(MAX_SWEEP_GENUS), "--nmax", "3"])
    assert (code, swept) == (0, [MAX_SWEEP_GENUS])
    assert MAX_SWEEP_GENUS < MAX_MODEL_GENUS


def test_sweep_grid_above_the_row_cap_is_rejected_at_once(capsys, monkeypatch):
    monkeypatch.setattr(mcheck, "sweep", refuse)
    start = time.perf_counter()
    result = run(capsys, ["check-m", "--sweep", "--gmax", "100", "--nmax", "800"])
    assert time.perf_counter() - start < 1
    assert result == (2, "", "error: --nmax 800 with --gmax 100 makes 80699 sweep rows, "
                             f"above the sweep row cap of {MAX_SWEEP_ROWS}\n")
    code, _, err = run(capsys, ["check-m", "--sweep", "--gmax", "0", "--nmax",
                                str(MAX_SWEEP_ROWS + 2)])
    assert code == 2 and f"--nmax {MAX_SWEEP_ROWS + 2} " in err
    # the cap admits a grid of exactly MAX_SWEEP_ROWS rows, every bench sweep
    # (at most 15 x 29 rows) and the largest tier-1 sweep (--gmax 30 --nmax 40)
    swept = []
    monkeypatch.setattr(mcheck, "sweep",
                        lambda gmax, nmax: swept.append((gmax, nmax)) or [mcheck.check(0, 2)])
    for gmax, nmax in ((0, MAX_SWEEP_ROWS + 1), (14, 30), (30, 40)):
        code, _, _ = run(capsys, ["check-m", "--sweep", "--gmax", str(gmax), "--nmax", str(nmax)])
        assert code == 0
    assert swept == [(0, MAX_SWEEP_ROWS + 1), (14, 30), (30, 40)]
    assert (MAX_SWEEP_GENUS + 1) * 2 <= MAX_SWEEP_ROWS  # --nmax 3 sweeps to the genus cap


def test_model_genus_cap_admits_the_cap(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(realmodels, "build_half_surface", lambda g: built.append(g) or circle())
    code, _, _ = run(capsys, ["export-model", "--name", "half", "--g", str(MAX_MODEL_GENUS)])
    assert (code, built) == (0, [MAX_MODEL_GENUS])


def test_model_genus_cap_leaves_other_powers_alone(capsys):
    # n >= 4 builds no model, so the cap does not apply
    code, out, _ = run(capsys, ["check-m", "--g", str(MAX_MODEL_GENUS + 1), "--n", "5",
                                "--format", "csv"])
    assert code == 0 and ",UNSUPPORTED_RANGE," in out
    assert MAX_MODEL_GENUS > 96  # the largest genus the certify benchmark checks


def test_betti_sym_csv(capsys):
    code, out, _ = run(capsys, ["betti-sym", "--g", "2", "--n", "3", "--format", "csv"])
    assert code == 0
    assert out == "g,n,betti_sum\n2,3,32\n"


def test_real_betti_table(capsys):
    code, out, _ = run(capsys, ["real-betti", "--g", "1", "--n", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["total_betti_sum"] == 8
    assert {p["name"] for p in obj["pieces"]} == {"Y", "torus"}
    code, out, _ = run(capsys, ["real-betti", "--g", "1", "--n", "3", "--format", "csv"])
    assert code == 0
    assert "B,2,1 2 2 1,6,12" in out
    assert out.strip().splitlines()[-1] == "total,,,,12"


@pytest.mark.parametrize("n", ["2", "3"])
def test_real_betti_exits_1_when_the_piece_count_disagrees(capsys, monkeypatch, n):
    # one torus too many: the CW homology no longer matches the piece count
    monkeypatch.setattr(realmodels, "comb", lambda a, b: comb(a, b) + 1)
    code, out, err = run(capsys, ["real-betti", "--g", "5", "--n", n])
    assert (code, out) == (1, "")
    assert err.startswith("error: CW homology gives real sum ")
    assert "piece count predicts" in err


def _with_piece(decompose, name, cw):
    """``decompose`` with the complex of piece ``name`` replaced by ``cw``."""
    return lambda g: tuple((n, cw if n == name else c, m) for n, c, m in decompose(g))


# one vertex and one 2-cell: a sphere.  s x s has Betti vector (1, 0, 2, 0, 1)
# with the torus's sum 4, and s x s x circle (1, 1, 2, 2, 1, 1) with the
# 3-torus's sum 8, so only the check of each piece can catch the swap
_SPHERE = ChainComplexF2({0: ["v"], 2: ["e"]}, {"e": []})
_S2_S2 = product(_SPHERE, _SPHERE)
BROKEN_PIECES = [
    (["check-m", "--g", "25", "--n", "2"], "torus", _S2_S2, "(1, 0, 2, 0, 1)", "(1, 2, 1)"),
    (["real-betti", "--g", "5", "--n", "2"], "torus", _S2_S2, "(1, 0, 2, 0, 1)", "(1, 2, 1)"),
    (["check-m", "--g", "5", "--n", "3"], "3-torus", product(_S2_S2, circle()),
     "(1, 1, 2, 2, 1, 1)", "(1, 3, 3, 1)"),
]


@pytest.mark.parametrize("argv, name, cw, got, paper", BROKEN_PIECES,
                         ids=["check-m-torus", "real-betti-torus", "check-m-3-torus"])
def test_a_piece_with_the_right_sum_and_wrong_betti_vector_exits_1(
        capsys, monkeypatch, argv, name, cw, got, paper):
    decompose = "real_sym2_decomposition" if argv[-1] == "2" else "real_sym3_decomposition"
    monkeypatch.setattr(mcheck, decompose, _with_piece(getattr(realmodels, decompose), name, cw))
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == (f'error: piece "{name}": CW homology gives {got}, the paper\'s '
                   f"decomposition {paper} (g={argv[2]}, n={argv[4]})\n")


def test_real_betti_rejects_other_powers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["real-betti", "--g", "1", "--n", "4"])
    assert exc.value.code == 2


def test_euler_characteristic_mismatch_exits_1_without_traceback(capsys, monkeypatch, tmp_path):
    path = tmp_path / "B2.json"
    assert main(["export-model", "--name", "B", "--g", "2", "--out", str(path)]) == 0
    rank = homology.BitMatrixF2.rank
    monkeypatch.setattr(homology.BitMatrixF2, "rank", lambda m: rank(m) + (m.ncols == 0))
    code, out, err = run(capsys, ["homology", "--file", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Euler characteristic" in err
    assert "Traceback" not in err


def test_integrality_violation_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(mcheck, "closed_form_sym3", lambda g: genfun._as_integer(Fraction(1, 3)))
    code, out, err = run(capsys, ["check-m", "--g", "2", "--n", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "expected an integer" in err
    assert "Traceback" not in err


def test_homology_file(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(product(circle(), circle()).to_json())
    code, out, _ = run(capsys, ["homology", "--file", str(path), "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["betti"] == [1, 2, 1]
    assert obj["euler_char"] == 0


def test_homology_malformed_file_names_cell(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cells": {"0": ["v"], "1": ["e"]}, "boundary": {"e": ["ghost"]}}')
    code, _, err = run(capsys, ["homology", "--file", str(path)])
    assert code == 2
    assert "ghost" in err


@pytest.mark.parametrize("key", ["300000", "\u00b2"])
def test_homology_bad_dimension_key_exits_2_naming_it(capsys, tmp_path, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cells": {"0": ["v"], key: ["x"]}}), encoding="utf-8")
    code, out, err = run(capsys, ["homology", "--file", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f'error: cell dimension key "{key}"')


def test_homology_deeply_nested_file_exits_2_without_traceback(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, ["homology", "--file", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: JSON beyond the decoder's limits") and err.count("\n") == 1


@pytest.mark.parametrize("obj,error", [
    ({"cells": {"0": ["v"], "1": ["e"]}, "boundary": {"e": ["x1", "y2", "z3"]}},
     'cell "e": unknown face "x1"'),
    ({"cells": {"0": ["v"]}, "labels": {"L": ["v", "p1", "q2", "r3"]}},
     'label "L": unknown cell "p1"'),
], ids=["faces", "label-members"])
def test_homology_names_the_first_fault_in_input_order_under_every_hash_seed(tmp_path, obj, error):
    # three faults in one list: set iteration order, which moves with the
    # string hash seed, must not pick the one reported
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    for seed in range(5):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-m", "msym.cli", "homology", "--file", str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n"), seed


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_homology_stops_reading_dev_zero_at_the_cap(capsys):
    start = time.perf_counter()
    result = run(capsys, ["homology", "--file", "/dev/zero"])
    assert time.perf_counter() - start < 1
    assert result == (2, "", f"error: --file /dev/zero is larger than the file size cap of "
                             f"{MAX_FILE_BYTES} bytes\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("argv", [
    ["homology", "--file"],  # no writer: reads as empty
    ["export-model", "--name", "sym2circle", "--out"],  # no reader: ENXIO
], ids=["homology-file", "export-model-out"])
def test_a_fifo_with_nothing_on_its_other_end_exits_2_at_once(tmp_path, argv):
    # a plain open waits for the other end forever; the timeout turns that
    # into a failure instead of a hung suite
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "msym.cli", *argv, str(fifo)],
                          capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_homology_file_cap_admits_exactly_its_size(capsys, monkeypatch, tmp_path):
    path = tmp_path / "torus.json"
    text = product(circle(), circle()).to_json()
    path.write_text(text)
    monkeypatch.setattr(cli, "MAX_FILE_BYTES", len(text))
    assert run(capsys, ["homology", "--file", str(path)])[0] == 0
    monkeypatch.setattr(cli, "MAX_FILE_BYTES", len(text) - 1)
    assert run(capsys, ["homology", "--file", str(path)]) == (
        2, "", f"error: --file {path} is larger than the file size cap of {len(text) - 1} bytes\n")


def test_homology_file_cap_admits_the_largest_curated_export():
    # the export grows about linearly in g (10,669,843 bytes for B(10000))
    assert len(build_B(1000).to_json()) * (MAX_MODEL_GENUS // 1000) * 2 < MAX_FILE_BYTES


def test_homology_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["homology", "--file", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in err


def test_verify_fibration(capsys):
    code, out, _ = run(capsys, ["verify-fibration", "--samples", "500", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    names = {c["check"] for c in obj["checks"]}
    assert names == {
        "roundtrip_max_error",
        "fiber_max_error",
        "boundary_agreement",
        "section_intersections",
        "fiber_boundary_intersections",
    }


def test_verify_fibration_deterministic(capsys):
    argv = ["verify-fibration", "--samples", "300", "--seed", "9", "--format", "csv"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_verify_fibration_fails_under_absurd_tolerance(capsys):
    code, _, _ = run(capsys, ["verify-fibration", "--samples", "200", "--tol", "1e-30"])
    assert code == 1


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
def test_failed_fibration_checks_print_their_table_then_one_error_line(capsys, fmt):
    argv = ["verify-fibration", "--samples", "2", "--tol", "1e-20", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err == "error: 2 of 5 checks failed: roundtrip_max_error, fiber_max_error\n"
    if fmt == "csv":
        assert out == (
            "check,value,required,passed\n"
            "roundtrip_max_error,2.7755575615628914e-17,1e-20,no\n"
            "fiber_max_error,1.1102230246251565e-16,1e-23,no\n"
            "boundary_agreement,1.0,1.0,yes\n"
            "section_intersections,1,1,yes\n"
            "fiber_boundary_intersections,2,2,yes\n"
        )
    elif fmt == "json":
        assert json.loads(out)["all_passed"] is False


def test_samples_above_the_cap_are_rejected_at_once(capsys, monkeypatch):
    suite = fibration.run_property_suite
    monkeypatch.setattr(fibration, "run_property_suite", refuse)
    result = run(capsys, ["verify-fibration", "--samples", str(MAX_SAMPLES + 1)])
    assert result == (2, "", f"error: --samples {MAX_SAMPLES + 1} is above the sample cap "
                             f"of {MAX_SAMPLES}\n")
    ran = []
    monkeypatch.setattr(fibration, "run_property_suite",
                        lambda samples, seed, roundtrip_tol: ran.append(samples)
                        or suite(1, seed, roundtrip_tol))
    code, _, _ = run(capsys, ["verify-fibration", "--samples", str(MAX_SAMPLES)])
    assert (code, ran) == (0, [MAX_SAMPLES])


# stdout of the implementation before the float fast paths, byte for byte;
# the json "worst_samples" list was added later and pinned when it was, and
# the fiber bound reads 1e-12 since it is derived as tol / 1000
VERIFY_FIBRATION_500_3 = {
    "csv": (
        'check,value,required,passed\n'
        'roundtrip_max_error,1.1102230246251565e-16,1e-09,yes\n'
        'fiber_max_error,2.220446049250313e-16,1e-12,yes\n'
        'boundary_agreement,1.0,1.0,yes\n'
        'section_intersections,1,1,yes\n'
        'fiber_boundary_intersections,2,2,yes\n'
    ),
    "json": (
        '{\n'
        '  "samples": 500,\n'
        '  "seed": 3,\n'
        '  "checks": [\n'
        '    {\n'
        '      "check": "roundtrip_max_error",\n'
        '      "value": 1.1102230246251565e-16,\n'
        '      "required": 1e-09,\n'
        '      "passed": true\n'
        '    },\n'
        '    {\n'
        '      "check": "fiber_max_error",\n'
        '      "value": 2.220446049250313e-16,\n'
        '      "required": 1e-12,\n'
        '      "passed": true\n'
        '    },\n'
        '    {\n'
        '      "check": "boundary_agreement",\n'
        '      "value": 1.0,\n'
        '      "required": 1.0,\n'
        '      "passed": true\n'
        '    },\n'
        '    {\n'
        '      "check": "section_intersections",\n'
        '      "value": 1,\n'
        '      "required": 1,\n'
        '      "passed": true\n'
        '    },\n'
        '    {\n'
        '      "check": "fiber_boundary_intersections",\n'
        '      "value": 2,\n'
        '      "required": 2,\n'
        '      "passed": true\n'
        '    }\n'
        '  ],\n'
        '  "worst_samples": [\n'
        '    {\n'
        '      "check": "roundtrip_max_error",\n'
        '      "index": 0,\n'
        '      "point": [\n'
        '        0.23796462709189137,\n'
        '        0.5442292252959519\n'
        '      ]\n'
        '    },\n'
        '    {\n'
        '      "check": "fiber_max_error",\n'
        '      "index": 6,\n'
        '      "point": [\n'
        '        0.5297364924775521,\n'
        '        0.16353854872561124\n'
        '      ]\n'
        '    }\n'
        '  ],\n'
        '  "all_passed": true\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_FIBRATION_500_3))
def test_verify_fibration_output_is_pinned(capsys, fmt):
    argv = ["verify-fibration", "--samples", "500", "--seed", "3", "--format", fmt]
    assert run(capsys, argv) == (0, VERIFY_FIBRATION_500_3[fmt], "")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_fibration_rejects_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, ["verify-fibration", "--samples", "10", "--tol", tol])
    assert (code, out) == (2, "")
    assert err == f"error: --tol {float(tol)!r} must be a finite number > 0\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_fibration_rejects_too_few_samples_naming_the_flag(capsys, samples):
    code, out, err = run(capsys, ["verify-fibration", "--samples", samples])
    assert (code, out) == (2, "")
    assert err == f"error: --samples {samples} must be at least 1\n"


def test_export_model_round_trip(capsys):
    code, out, _ = run(capsys, ["export-model", "--name", "B", "--g", "2"])
    assert code == 0
    cw = ChainComplexF2.from_json(out)
    assert betti(cw) == betti(build_B(2)) == (1, 3, 3, 1)


def test_export_model_no_genus_needed_for_circle_models(capsys):
    code, out, _ = run(capsys, ["export-model", "--name", "sym3circle"])
    assert code == 0
    assert betti(ChainComplexF2.from_json(out)) == (1, 1, 0, 0)


@pytest.mark.parametrize("name", ["sym2circle", "sym3circle"])
def test_export_model_rejects_genus_for_genus_free_models(capsys, name):
    code, out, err = run(capsys, ["export-model", "--name", name, "--g", "5"])
    assert (code, out, err) == (2, "", f"error: --g is not used with model {name}\n")


def test_export_model_requires_genus_for_surfaces(capsys):
    code, _, err = run(capsys, ["export-model", "--name", "half"])
    assert code == 2
    assert "--g" in err


def test_export_model_to_file(capsys, tmp_path):
    path = tmp_path / "y.json"
    code, out, _ = run(capsys, ["export-model", "--name", "Y", "--g", "1", "--out", str(path)])
    assert code == 0 and out == ""
    assert betti(ChainComplexF2.from_json(path.read_text())) == (1, 2, 1)


def test_export_model_to_unwritable_path_exits_2(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "b.json"
    code, out, err = run(capsys, ["export-model", "--name", "B", "--g", "1", "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(path) in err


# every exit-2 text, word for word; {tmp} is the test's temporary directory
EXIT_2_TEXTS = [
    (["check-m", "--sweep", "--gmax", "3", "--nmax", "3", "--g", "5"],
     "--g is not used with --sweep; use --gmax and --nmax"),
    (["check-m", "--sweep", "--gmax", "3", "--nmax", "3", "--n", "5"],
     "--n is not used with --sweep; use --gmax and --nmax"),
    (["check-m", "--sweep", "--nmax", "3"], "--sweep requires --gmax and --nmax"),
    (["check-m", "--sweep", "--gmax", "3"], "--sweep requires --gmax and --nmax"),
    (["check-m", "--sweep", "--gmax", "-1", "--nmax", "3"],
     "--gmax -1 leaves the sweep empty; it must be >= 0"),
    (["check-m", "--sweep", "--gmax", "3", "--nmax", "1"],
     "--nmax 1 leaves the sweep empty; it must be >= 2"),
    (["check-m", "--sweep", "--gmax", "20000", "--nmax", "30000"],
     "--gmax 20000 --nmax 30000: the Betti sum has more than 4300 decimal digits, too many to print"),
    (["check-m", "--sweep", "--gmax", "10001", "--nmax", "2"],
     "--gmax 10001 is above the model genus cap of 10000"),
    (["check-m", "--sweep", "--gmax", "401", "--nmax", "3"],
     "--gmax 401 is above the sweep genus cap of 400"),
    (["check-m", "--sweep", "--gmax", "100", "--nmax", "800"],
     "--nmax 800 with --gmax 100 makes 80699 sweep rows, above the sweep row cap of 20000"),
    (["check-m", "--g", "1", "--n", "2", "--gmax", "3"], "--gmax is not used without --sweep"),
    (["check-m", "--g", "1", "--n", "2", "--nmax", "3"], "--nmax is not used without --sweep"),
    (["check-m"], "provide --g and --n, or --sweep"),
    (["check-m", "--g", "1"], "provide --g and --n, or --sweep"),
    (["check-m", "--g", "100000", "--n", "5000"],
     "--g 100000 --n 5000: the Betti sum has more than 4300 decimal digits, too many to print"),
    (["check-m", "--g", "7200", "--n", "14400"],
     "--g 7200 --n 14400: the Betti sum has more than 4300 decimal digits, too many to print"),
    (["check-m", "--g", "10001", "--n", "3"], "--g 10001 is above the model genus cap of 10000"),
    (["betti-sym", "--g", "20000", "--n", "20000"],
     "--g 20000 --n 20000: the Betti sum has more than 4300 decimal digits, too many to print"),
    (["betti-sym", "--g", "7500", "--n", "7000"],
     "--g 7500 --n 7000: the Betti sum has more than 4300 decimal digits, too many to print"),
    (["betti-sym", "--g", "2", "--n", "100000000", "--poly"],
     "--n 100000000 with --poly: the Poincare polynomial has degree 200000000, above the cap of 4000"),
    (["betti-sym", "--g", "-1", "--n", "2"], "genus must be nonnegative, got -1"),
    (["real-betti", "--g", "10001", "--n", "2"], "--g 10001 is above the model genus cap of 10000"),
    (["export-model", "--name", "B", "--g", "10001"],
     "--g 10001 is above the model genus cap of 10000"),
    (["export-model", "--name", "half"], "model half requires --g"),
    (["export-model", "--name", "sym2circle", "--g", "5"], "--g is not used with model sym2circle"),
    (["verify-fibration", "--samples", "0"], "--samples 0 must be at least 1"),
    (["verify-fibration", "--samples", "10", "--tol", "nan"], "--tol nan must be a finite number > 0"),
    (["verify-fibration", "--samples", "10", "--tol", "-1"], "--tol -1.0 must be a finite number > 0"),
    (["verify-fibration", "--samples", "1000001"], "--samples 1000001 is above the sample cap of 1000000"),
    (["verify-fibration", "--samples", "10", "--tol", "5e-324"],
     "--tol 5e-324 is too small: its fiber bound tol / 1000 is 0.0"),
    (["verify-fibration", "--samples", "10", "--tol", "2e-321"],
     "--tol 2e-321 is too small: its fiber bound tol / 1000 is 0.0"),
    (["homology", "--file", "{tmp}/nope.json"],
     "[Errno 2] No such file or directory: '{tmp}/nope.json'"),
    (["homology", "--file", "{tmp}"], "[Errno 21] Is a directory: '{tmp}'"),
    (["export-model", "--name", "B", "--g", "1", "--out", "{tmp}/no-such-dir/b.json"],
     "[Errno 2] No such file or directory: '{tmp}/no-such-dir/b.json'"),
    pytest.param(["homology", "--file", "/dev/zero"],
                 "--file /dev/zero is larger than the file size cap of 33554432 bytes",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")),
]


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
@pytest.mark.parametrize("argv,text", EXIT_2_TEXTS)
def test_every_rejection_prints_its_text_word_for_word(capsys, tmp_path, fmt, argv, text):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] != "export-model":  # the one command without --format
        argv += ["--format", fmt]
    assert run(capsys, argv) == (2, "", f"error: {text.format(tmp=tmp_path)}\n")


def test_invalid_values_exit_2(capsys):
    code, _, err = run(capsys, ["betti-sym", "--g", "-1", "--n", "2"])
    assert code == 2
    assert "genus" in err


def test_unknown_flags_and_commands_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti-sym", "--g", "1", "--n", "2", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check-m", "--g", "1", "--n", "2", "--format", "xml"])
    assert exc.value.code == 2


def test_md_tables_are_pipe_aligned(capsys):
    code, out, _ = run(capsys, ["check-m", "--g", "1", "--n", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("| ") and line.endswith(" |") for line in lines)
    assert len({len(line) for line in lines}) == 1


@pytest.mark.parametrize("argv", [
    ["check-m", "--sweep", "--gmax", "30", "--nmax", "40", "--format", "csv"],  # fails in a write
    ["betti-sym", "--g", "2", "--n", "3"],  # output fits the buffer: fails in the final flush
    ["betti-sym", "--g", "751", "--n", "1501", "--poly", "--format", "json"],  # one large write
])
def test_closed_stdout_exits_141_without_traceback(argv):
    # stdout buffered as a user's shell gives it, so the small output fails in the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    with subprocess.Popen([sys.executable, "-m", "msym.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()  # the reader is gone before the first byte is written
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["check-m", "--sweep", "--gmax", "30", "--nmax", "40", "--format", "csv"],  # fails in a write
    ["betti-sym", "--g", "2", "--n", "3"],  # output fits the buffer: fails in the final flush
    ["betti-sym", "--g", "751", "--n", "1501", "--poly", "--format", "json"],  # one large write
])
def test_full_stdout_exits_2_without_traceback(argv):
    # stdout buffered as a user's shell gives it, so the small output fails in the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "msym.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: [Errno 28] No space left on device"]
    assert "Traceback" not in err and "Exception ignored" not in err


def _install_command(monkeypatch, command):
    """Make ``betti-sym`` run ``command(args)``.  The cached parser holds the
    command functions it was built with, so a fresh cache stands in for it
    until ``monkeypatch`` puts both back."""
    monkeypatch.setattr(cli, "_cmd_betti_sym", command)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))


def _raise(exc):
    def command(args):
        raise exc
    return command


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector(request):
    """The collector state on entry to ``main``; the state before the test
    comes back after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


# one argv per exit of main, with the patch that takes it there
EXITS = {
    "0": (["betti-sym", "--g", "1", "--n", "2"], None),
    "1": (["check-m", "--g", "1", "--n", "5"],
          lambda mp: mp.setattr(mcheck, "betti_sum_large_n",
                                lambda g, n: genfun.betti_sum_sym(g, n) - 1)),
    "2": (["betti-sym", "--g", "-1", "--n", "2"], None),
    "141": (["betti-sym", "--g", "1", "--n", "2"],
            lambda mp: _install_command(mp, _raise(BrokenPipeError()))),
}


@pytest.mark.parametrize("code", sorted(EXITS))
def test_main_gives_the_collector_state_back_on_every_exit_code(capsys, monkeypatch, collector, code):
    argv, patch = EXITS[code]
    if patch:
        patch(monkeypatch)
    assert run(capsys, argv)[0] == int(code)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("argv", [["--help"], ["no-such-command"], ["betti-sym", "--g", "x", "--n", "2"]])
def test_argparse_exits_leave_the_collector_state_alone(capsys, collector, argv):
    with pytest.raises(SystemExit):
        main(argv)
    assert gc.isenabled() is collector


def test_an_escaping_exception_gives_the_collector_state_back(capsys, monkeypatch, collector):
    _install_command(monkeypatch, _raise(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        main(["betti-sym", "--g", "1", "--n", "2"])
    assert gc.isenabled() is collector


def test_a_command_runs_with_the_collector_paused(capsys, monkeypatch, collector):
    seen = []
    _install_command(monkeypatch, lambda args: seen.append(gc.isenabled()))
    assert run(capsys, ["betti-sym", "--g", "1", "--n", "2"]) == (0, "", "")
    assert seen == [False] and gc.isenabled() is collector
