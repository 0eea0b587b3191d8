"""The tracer wraps every lookup site, restores them, and is thread-safe."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import checker
import tracer as tracing
from run import EXPECTED_LAYERS
from tracer import Tracer, installed_wrappers, msym_namespaces
from worker import run_op

from msym import cli
from msym.homology import BitMatrixF2, ChainComplexF2

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def bindings():
    out = {}
    for mod in msym_namespaces():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for cls in (ChainComplexF2, BitMatrixF2):
        for key, value in vars(cls).items():
            out[(cls.__name__, key)] = value
    return out


def traced(argv_ops):
    tr = Tracer()
    tr.install()
    try:
        recs = [run_op(cli, op, checker.check, tr, i) for i, op in enumerate(argv_ops)]
    finally:
        tr.uninstall()
    assert all(r["ok"] for r in recs), [r["reason"] for r in recs]
    return tr


def op(kind, argv, **params):
    return {"kind": kind, "argv": argv, "params": params, "size": {}}


def test_install_patches_every_importing_namespace_and_uninstall_restores():
    before = bindings()
    tr = Tracer()
    tr.install()
    try:
        import msym.cli
        import msym.homology
        import msym.mcheck
        import msym.realmodels

        for mod, name in ((msym.realmodels, "glue"), (msym.homology, "glue"), (msym, "glue"),
                          (msym.cli, "betti"), (msym.realmodels, "betti"),
                          (msym.mcheck, "betti_sum_sym"), (msym.mcheck, "closed_form_sym3")):
            assert getattr(getattr(mod, name), tracing.MARK, None), f"{mod.__name__}.{name}"
        assert "msym.homology.ChainComplexF2.__init__" in installed_wrappers()
    finally:
        tr.uninstall()
    assert installed_wrappers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_sweep_checks_run_on_pool_threads_under_the_sweep_span():
    argv = ["check-m", "--sweep", "--gmax", "4", "--nmax", "6", "--format", "json"]
    tr = traced([op("certify-sweep", argv, gmax=4, nmax=6)])
    rows = tr.rows()
    by_id = {r[0]: r for r in rows}
    name = {r[0]: tr.names[r[1]] for r in rows}
    sweeps = [sid for sid in by_id if name[sid] == "mcheck.sweep"]
    checks = [r for r in rows if tr.names[r[1]] == "mcheck.check"]
    assert len(sweeps) == 1 and len(checks) == 5 * 5
    assert all(r[3] == sweeps[0] for r in checks)
    assert len({r[4] for r in checks} - {by_id[sweeps[0]][4]}) >= 1  # ran on pool threads
    totals = tr.layer_totals()
    assert totals["mcheck.check"]["calls"] == 25
    assert 0 <= totals["mcheck.sweep"]["self_ns"] <= totals["mcheck.sweep"]["total_ns"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    tr = Tracer()
    parent, child = tr._name_id("parent"), tr._name_id("child")
    # parent [0, 100]; children [10, 40] and [30, 60] overlap, [90, 120] sticks out
    spans = [(0, parent, 0, -1, 0, 0, 100), (1, child, 0, 0, 1, 10, 40),
             (2, child, 0, 0, 2, 30, 60), (3, child, 0, 0, 1, 90, 120)]
    for row in spans:
        tr.spans.extend(row)
    totals = tr.layer_totals()
    assert totals["parent"] == {"calls": 1, "total_ns": 100, "self_ns": 100 - 50 - 10}
    assert totals["child"]["self_ns"] == 30 + 30 + 30


def test_spans_from_many_threads_are_all_recorded():
    tr = Tracer()
    leaf = tr.span("leaf", lambda x: x + 1)
    outer = tr.span("outer", lambda n: [leaf(i) for i in range(n)])
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tr.begin_op(0)
        threads = [threading.Thread(target=outer, args=(500,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        tr.end_op()
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    rows = tr.rows()
    assert len(rows) == 8 * 501 + 1
    assert len({r[0] for r in rows}) == len(rows)
    outer_ids = {r[0] for r in rows if tr.names[r[1]] == "outer"}
    root = next(r[0] for r in rows if tr.names[r[1]] == "op")
    for r in rows:
        if tr.names[r[1]] == "leaf":
            assert r[3] in outer_ids
        elif tr.names[r[1]] == "outer":
            assert r[3] == root


@pytest.mark.parametrize("workload, ops", [
    ("certify", [op("certify-single", ["check-m", "--g", "3", "--n", "2", "--format", "json"], g=3, n=2),
                 op("certify-single", ["check-m", "--g", "2", "--n", "3", "--format", "json"], g=2, n=3),
                 op("certify-sweep", ["check-m", "--sweep", "--gmax", "3", "--nmax", "5", "--format",
                                      "json"], gmax=3, nmax=5)]),
    ("betti-sym", [op("betti-sym", ["betti-sym", "--g", "3", "--n", "7", "--poly", "--format", "json"],
                      g=3, n=7, poly=True)]),
    ("fibration", [op("fibration", ["verify-fibration", "--samples", "30", "--seed", "1", "--format",
                                    "json"], samples=30, seed=1)]),
])
def test_expected_layers_record_calls(workload, ops):
    totals = traced(ops).layer_totals()
    assert [name for name in EXPECTED_LAYERS[workload] if not totals.get(name)] == []


def test_expected_homology_layers_record_calls(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"cells": {"0": ["v"], "1": ["a", "b"], "2": ["f"]},
                                "boundary": {"a": [], "b": [], "f": []}}))
    argv = ["homology", "--file", str(path), "--format", "json"]
    tr = traced([op("homology", argv, valid=True, betti=[1, 2, 1], cells=4, file=str(path))])
    totals = tr.layer_totals()
    assert [name for name in EXPECTED_LAYERS["homology-json"] if not totals.get(name)] == []
    assert tr.counts["homology.cells_validated"] == tr.counts["homology.cells_used"] == 4


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_the_metrics_run_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = [{"deck": 0, "wall_ns": 5_000_000, "cpu_ns": 4_000_000, "ref_ns": 400_000, "steal_share": 0.0,
            "ok": True, "size": {"class": "a"}}] * 4
    e2e, _ = run.end_to_end(ops, [(0.1, 4e6), (0.2, 4e6)], 20_000, "certify")
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    traced = {"layers": {"op": {"calls": 1, "total_ns": 10, "self_ns": 1}}, "counts": {},
              "ops": ops, "untraced_ops": ops}
    layer, _ = run.per_layer(traced, "certify")
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
