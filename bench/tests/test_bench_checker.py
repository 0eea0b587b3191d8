"""The output checker accepts msym's output and rejects wrong output."""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

import checker
import workloads
from worker import run_op

from msym import ChainComplexF2, betti, cli, genfun


def op(kind, argv, **params):
    return {"kind": kind, "argv": argv, "params": params, "size": {}}


def certify(g, n):
    return op("certify-single", ["check-m", "--g", str(g), "--n", str(n), "--format", "json"], g=g, n=n)


def sweep(gmax, nmax):
    argv = ["check-m", "--sweep", "--gmax", str(gmax), "--nmax", str(nmax), "--format", "json"]
    return op("certify-sweep", argv, gmax=gmax, nmax=nmax)


def betti_sym(g, n, poly):
    argv = ["betti-sym", "--g", str(g), "--n", str(n), "--format", "json"] + (["--poly"] if poly else [])
    return op("betti-sym", argv, g=g, n=n, poly=poly)


def fibration(samples, seed):
    argv = ["verify-fibration", "--samples", str(samples), "--seed", str(seed), "--format", "json"]
    return op("fibration", argv, samples=samples, seed=seed)


def homology_ops(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "HOMOLOGY_DECKS", 1)
    sched = workloads.homology_json(5, str(tmp_path))
    for name, text in sched.files.items():
        (tmp_path / name).write_text(text)
    return [o.to_json() for o in sched.decks[0]]


def test_expectations_match_msym_on_small_cases():
    for g in range(9):
        for n in range(14):
            poly = genfun.poincare_sym(g, n)
            assert checker.betti_sum(g, n) == genfun.betti_sum_sym(g, n) == poly.total()
            assert checker.euler_sym(g, n) == poly.evaluate(-1)


@pytest.mark.parametrize("the_op", [
    certify(0, 2), certify(3, 3), certify(5, 2), sweep(3, 8), sweep(4, 4),
    betti_sym(0, 3, True), betti_sym(2, 5, True), betti_sym(7, 4, False), betti_sym(40, 25, True),
    fibration(50, 7),
], ids=lambda o: " ".join(o["argv"][:5]))
def test_accepts_program_output(the_op):
    rec = run_op(cli, the_op, checker.check)
    assert rec["ok"], rec["reason"]


def test_accepts_homology_output_and_malformed_input_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = homology_ops(tmp_path, monkeypatch)
    assert {o["params"]["valid"] for o in ops} == {True, False}
    for o in ops:
        rec = run_op(cli, o, checker.check)
        assert rec["ok"], (o["size"], rec["reason"])


def corrupt_json(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


def output_of(the_op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(the_op["argv"])
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("the_op, edit", [
    (certify(3, 3), lambda o: o["reports"][0].update(real_sum=o["reports"][0]["real_sum"] - 1)),
    (certify(2, 2), lambda o: o["reports"][0].update(verdict="STRICT_INEQUALITY")),
    (sweep(3, 6), lambda o: o["reports"].pop()),
    (sweep(3, 6), lambda o: o["reports"].reverse()),
    (sweep(3, 6), lambda o: o["reports"][8].update(complex_sum=o["reports"][8]["complex_sum"] + 1)),
    (betti_sym(2, 5, True), lambda o: o["poincare"].__setitem__(1, 0)),
    (betti_sym(2, 5, True), lambda o: o.update(betti_sum=o["betti_sum"] + 1)),
    (betti_sym(2, 5, False), lambda o: o.update(poincare=[1])),
    (fibration(20, 3), lambda o: o.update(all_passed=False)),
])
def test_counts_corrupted_output_as_failed(the_op, edit):
    rc, out, err = output_of(the_op)
    assert checker.check(the_op, rc, out, err) is None
    assert checker.check(the_op, rc, corrupt_json(out, edit), err) is not None


def test_sweep_unsupported_rows_are_required():
    # g = 3, n = 4 is the only row of this grid in 4 <= n <= 2g-2
    the_op = sweep(3, 4)
    rc, out, err = output_of(the_op)
    obj = json.loads(out)
    row = next(r for r in obj["reports"] if (r["g"], r["n"]) == (3, 4))
    assert row["verdict"] == "UNSUPPORTED_RANGE"
    row["verdict"] = "M_VARIETY"
    assert checker.check(the_op, rc, json.dumps(obj), err) is not None


def test_counts_wrong_exit_code_as_failed(tmp_path, monkeypatch):
    rc, out, err = output_of(certify(1, 2))
    assert checker.check(certify(1, 2), 1, out, err) is not None
    monkeypatch.chdir(tmp_path)
    bad = next(o for o in homology_ops(tmp_path, monkeypatch) if not o["params"]["valid"])
    rc, out, err = output_of(bad)
    assert rc == 2 and checker.check(bad, rc, out, err) is None
    assert checker.check(bad, 0, out, err) is not None
    assert checker.check(bad, 2, out, "") is not None


def test_counts_escaping_exception_as_failed():
    class Broken:
        @staticmethod
        def main(argv):
            raise KeyError("boom")

    rec = run_op(Broken, certify(1, 2), checker.check)
    assert not rec["ok"] and "escaped main" in rec["reason"]

    class Exits:
        @staticmethod
        def main(argv):
            raise SystemExit(0)

    assert not run_op(Exits, certify(1, 2), checker.check)["ok"]


def test_homology_expectations_are_kunneth():
    # circle x circle x surface with 3 loops: (1,1) * (1,1) * (1,3,1)
    x = workloads._product(workloads._product(workloads._circle(3, "a"), workloads._circle(4, "b")),
                           workloads._surface(3, "s"))
    assert x[2] == (1, 5, 8, 5, 1)
    cells, bnd, b = workloads._expand(x, random.Random(0), 0.5)
    assert b == x[2] and sum(map(len, cells.values())) > sum(map(len, x[0].values()))
    assert betti(ChainComplexF2.from_json(workloads._cw_text(cells, bnd))) == b
