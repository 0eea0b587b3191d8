"""CLI surface tests: formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from msym import ChainComplexF2, betti, build_B, circle, genfun, product
from msym.cli import main


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


def test_real_betti_rejects_other_powers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["real-betti", "--g", "1", "--n", "4"])
    assert exc.value.code == 2


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


def test_export_model_round_trip(capsys):
    code, out, _ = run(capsys, ["export-model", "--name", "B", "--g", "2"])
    assert code == 0
    cw = ChainComplexF2.from_json(out)
    assert betti(cw) == betti(build_B(2)) == (1, 3, 3, 1)


def test_export_model_no_genus_needed_for_circle_models(capsys):
    code, out, _ = run(capsys, ["export-model", "--name", "sym3circle"])
    assert code == 0
    assert betti(ChainComplexF2.from_json(out)) == (1, 1, 0, 0)


def test_export_model_requires_genus_for_surfaces(capsys):
    code, _, err = run(capsys, ["export-model", "--name", "half"])
    assert code == 2
    assert "--g" in err


def test_export_model_to_file(capsys, tmp_path):
    path = tmp_path / "y.json"
    code, out, _ = run(capsys, ["export-model", "--name", "Y", "--g", "1", "--out", str(path)])
    assert code == 0 and out == ""
    assert betti(ChainComplexF2.from_json(path.read_text())) == (1, 2, 1)


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
])
def test_closed_stdout_exits_141_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, "-m", "msym.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first byte is written
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
