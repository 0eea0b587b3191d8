"""Schedules depend on the seed alone, and traced counts repeat exactly."""

from __future__ import annotations

import collections

import pytest

import checker
import workloads
from tracer import Tracer
from worker import run_decks

from msym import cli


@pytest.fixture
def small_homology(monkeypatch):
    monkeypatch.setattr(workloads, "HOMOLOGY_DECKS", 2)


def flatten(sched):
    ops = [op.argv for op in sched.warmup] + [op.argv for deck in sched.decks for op in deck]
    return ops, sorted(sched.files.items())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, small_homology):
    a = flatten(workloads.build(workload, 7, "in"))
    b = flatten(workloads.build(workload, 7, "in"))
    c = flatten(workloads.build(workload, 8, "in"))
    assert a == b
    assert a[0] != c[0]
    if workload == "homology-json":
        assert a[1] != c[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_argv_repeats_and_decks_share_one_mix(workload):
    sched = workloads.build(workload, 3, "in")
    argvs = [tuple(op.argv) for op in sched.warmup] + [tuple(op.argv) for d in sched.decks for op in d]
    assert len(argvs) == len(set(argvs))
    if workload == "homology-json":
        texts = list(sched.files.values())
        assert len(texts) == len(set(texts))

    def mix(deck):
        return collections.Counter(op.size["class"] for op in deck)

    assert all(mix(d) == mix(sched.decks[0]) for d in sched.decks)
    assert len(sched.decks) >= 2 * workloads.TRACE_DECKS[workload]


def traced_counts(decks):
    tr = Tracer()
    tr.install()
    try:
        records = run_decks(cli, decks, checker.check, tracer=tr)
    finally:
        tr.uninstall()
    assert all(r["ok"] for r in records), [r["reason"] for r in records if not r["ok"]]
    calls = {name: agg["calls"] for name, agg in tr.layer_totals().items()}
    return dict(tr.counts), calls, sum(r["stdout_bytes"] for r in records)


def small_decks(workload, seed, tmp_path):
    sched = workloads.build(workload, seed, str(tmp_path))
    for name, text in sched.files.items():
        (tmp_path / name).write_text(text)
    if workload == "certify":
        # the cheapest singles and the smallest sweep class keep the test short
        ops = [o for o in sched.decks[0] if o.size.get("g", 99) < 16 or o.size.get("gmax", 99) <= 6]
    elif workload == "betti-sym":
        ops = [o for o in sched.decks[0] if not o.size["class"].startswith("large")]
    elif workload == "fibration":
        ops = sched.decks[0][:2]
    else:
        ops = sched.decks[0]
    return [[o.to_json() for o in ops]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload, tmp_path, small_homology):
    decks = small_decks(workload, 4, tmp_path)
    first = traced_counts(decks)
    assert first == traced_counts(decks)
    assert any(first[0].values()) and first[2] > 0
