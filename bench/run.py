"""msym benchmark: one seeded, closed-loop workload run against msym.cli.main.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
and ``.bench_run/results/`` hold the details (per-op sizes and times, tail
percentile and sample count, run metadata, spans, ROADMAP baseline rows).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import REF_NOMINAL_NS, reference_ns  # noqa: E402

# setup probes before and as many after the worker, so the median spans the run
SETUP_PROBES = 4
# a run never lasts longer than this, whatever --seconds says
MAX_RUN_S = 170.0

PROBE = """
import contextlib, io, sys
import msym.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        msym.cli.main(["--help"])
    except SystemExit:
        pass
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

# Layers that must record calls on each workload in a traced run.
EXPECTED_LAYERS = {
    "certify": ("cli.main", "mcheck.check", "mcheck.sweep", "realmodels.build_Y",
                "realmodels.build_B", "homology.complex_init", "homology.glue",
                "homology.product", "homology.boundary_matrix", "homology.rank",
                "homology.betti", "genfun.betti_sum_sym", "genfun.closed_forms"),
    "betti-sym": ("cli.main", "genfun.poincare_sym", "genfun.betti_sum_sym"),
    "homology-json": ("cli.main", "homology.from_json", "homology.complex_init",
                      "homology.boundary_matrix", "homology.rank", "homology.betti"),
    "fibration": ("cli.main", "fibration.run_property_suite", "fibration.t_map",
                  "fibration.t_inverse", "fibration.theta", "fibration.enumerate"),
}

# (span, reported fields) of the per-layer metrics
LAYER_FIELDS = (
    ("realmodels.build_Y", ("calls", "self_ms")),
    ("realmodels.build_B", ("calls", "self_ms")),
    ("homology.complex_init", ("calls", "self_ms")),
    ("homology.glue", ("calls", "self_ms")),
    ("homology.product", ("calls", "self_ms")),
    ("homology.from_json", ("calls", "self_ms")),
    ("homology.boundary_matrix", ("calls", "self_ms")),
    ("homology.rank", ("calls", "self_ms")),
    ("homology.betti", ("calls", "self_ms")),
    ("genfun.poincare_sym", ("calls", "self_ms")),
    ("genfun.betti_sum_sym", ("calls", "self_ms")),
    ("genfun.closed_forms", ("calls", "self_ms")),
    ("mcheck.check", ("calls", "busy_ms", "self_ms")),
    ("mcheck.sweep", ("calls", "self_ms")),
    ("fibration.run_property_suite", ("calls", "self_ms")),
    ("fibration.t_map", ("calls", "self_ms")),
    ("fibration.t_inverse", ("calls", "self_ms")),
    ("fibration.theta", ("calls", "self_ms")),
    ("fibration.enumerate", ("calls", "self_ms")),
    ("cli.main", ("calls", "self_ms")),
)
COUNT_METRICS = ("realmodels.model_cells", "homology.cells_validated", "homology.matrix_bits",
                 "homology.from_json.errors", "genfun.poly_degree_sum", "mcheck.errors",
                 "fibration.samples", "cli.stdout_bytes")


def git_revision(root: str):
    """HEAD of the checkout's own .git, read as files; None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(root: str, args) -> dict:
    return {
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(env: dict, cwd: str) -> tuple:
    """Seconds from spawning an interpreter to msym.cli ready to take an op,
    and the reference time around the probe."""
    refs = [reference_ns() for _ in range(3)]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                            env=env, cwd=cwd, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {rc}")
    refs += [reference_ns() for _ in range(3)]
    return t1 - t0, sum(refs) / len(refs)


def tail(values: list, pct: int):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def scaled(r: dict, key: str) -> float:
    """``r[key]`` at the nominal host speed: scaled by the reference loop's
    nominal time over its time around the op, and for wall time without the
    share the hypervisor stole (CPU time never contains it)."""
    value = r[key] * REF_NOMINAL_NS / r["ref_ns"]
    return value * (1 - r["steal_share"]) if key == "wall_ns" else value


def class_median_sum(ops: list, key: str) -> float:
    """Sum over ops of the median scaled ``key`` of the op's size class: the
    cost of the run had every op cost its class median."""
    by_class: dict = {}
    for r in ops:
        by_class.setdefault(r["size"]["class"], []).append(scaled(r, key))
    return sum(len(v) * statistics.median(v) for v in by_class.values())


def end_to_end(ops: list, setup: list, peak_rss_kib: int, workload: str) -> tuple:
    walls = [scaled(r, "wall_ns") / 1e6 for r in ops]
    ok = sum(r["ok"] for r in ops)
    pct = workloads.TAIL_PERCENTILE[workload]
    tail_ms, beyond = tail(walls, pct)
    # Ops of one class have nearly the same cost, so the class medians are
    # robust to short stalls of the host and to the order of the ops.
    metrics = {
        "throughput_ops_s": (ok / (class_median_sum(ops, "wall_ns") / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(walls), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "cpu_ms_per_op": (class_median_sum(ops, "cpu_ns") / 1e6 / len(ops), "ms"),
        "setup_s": (statistics.median(t * REF_NOMINAL_NS / ref for t, ref in setup), "s"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }
    raw_walls = [r["wall_ns"] / 1e6 for r in ops]
    extra = {"tail_percentile": pct, "tail_samples_beyond": beyond, "samples": len(ops),
             "failed_ratio": (len(ops) - ok) / len(ops),
             "host_speed": statistics.median(REF_NOMINAL_NS / r["ref_ns"] for r in ops),
             "steal_share": statistics.mean(r["steal_share"] for r in ops),
             "unscaled": {"throughput_ops_s": ok / (sum(raw_walls) / 1e3),
                          "op_p50_ms": statistics.median(raw_walls),
                          "op_tail_ms": tail(raw_walls, pct)[0],
                          "cpu_ms_per_op": sum(r["cpu_ns"] for r in ops) / 1e6 / len(ops),
                          "setup_s": statistics.median(t for t, _ in setup)},
             "busy_s": sum(raw_walls) / 1e3, "setup_probes": setup}
    return metrics, extra


def per_layer(result: dict, workload: str) -> tuple:
    layers, counts = result["layers"], result["counts"]
    metrics = {}
    for name, fields in LAYER_FIELDS:
        agg = layers.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        for field in fields:
            if field == "calls":
                metrics[f"{name}.calls"] = (agg["calls"], "count")
            elif field == "self_ms":
                metrics[f"{name}.self_ms"] = (agg["self_ns"] / 1e6, "ms")
            else:
                metrics[f"{name}.busy_ms"] = (agg["total_ns"] / 1e6, "ms")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    validated = counts.get("homology.cells_validated", 0)
    metrics["homology.validation_yield"] = (
        counts.get("homology.cells_used", 0) / validated if validated else 0.0, "ratio")
    op_wall = layers.get("op", {}).get("total_ns", 0)
    rank_self = layers.get("homology.rank", {}).get("self_ns", 0)
    metrics["homology.rank.share"] = (rank_self / op_wall if op_wall else 0.0, "ratio")
    traced_tput = len(result["ops"]) / (class_median_sum(result["ops"], "wall_ns") / 1e9)
    untraced_tput = len(result["untraced_ops"]) / (class_median_sum(result["untraced_ops"], "wall_ns") / 1e9)
    metrics["trace.overhead_share"] = (1 - traced_tput / untraced_tput, "ratio")
    missing = [name for name in EXPECTED_LAYERS[workload] if not layers.get(name, {}).get("calls")]
    extra = {"traced_throughput_ops_s": traced_tput, "untraced_throughput_ops_s": untraced_tput,
             "missing_layers": missing, "counts": counts}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "msym", "cli.py")):
        print(f"error: {root} is not an msym checkout (no src/msym/cli.py)", file=sys.stderr)
        return 2
    started = time.monotonic()
    out_dir = os.path.join(root, ".bench_run")
    # relative, so that the argv lists depend on the seed alone
    work = os.path.join(".bench_run", f"inputs-{args.workload}-seed{args.seed}")
    results_dir = os.path.join(out_dir, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        schedule = workloads.build(args.workload, args.seed, work)
        for name, text in schedule.files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        schedule.files = {}

        probe_setup(env, root)  # fills the bytecode cache; not recorded
        setup = [probe_setup(env, root) for _ in range(SETUP_PROBES)]

        pct = workloads.TAIL_PERCENTILE[args.workload]
        first_files = {}
        for deck in schedule.decks:
            for op in deck:
                if op.kind == "homology" and op.params["valid"]:
                    first_files.setdefault(op.size["class"], op.params["file"])
        job = {
            "workload": args.workload,
            "src": src,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "min_ops": -(-10 * 100 // (100 - pct)),
            # leaves time for the setup probes after the worker and for slack
            "max_wall_s": MAX_RUN_S - 60 - (time.monotonic() - started),
            "trace_decks": workloads.TRACE_DECKS[args.workload],
            "warmup": [op.to_json() for op in schedule.warmup],
            "decks": [[op.to_json() for op in deck] for deck in schedule.decks],
            "spans_path": stem + ".spans.tsv",
            "baseline_files": sorted(first_files.values()),
        }
        job_path = os.path.join(work, "job.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        worker = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
                                  env=env, cwd=root)
        try:
            rc = worker.wait(timeout=max(1.0, MAX_RUN_S - (time.monotonic() - started)))
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        if rc != 0:
            print(f"error: worker exited with code {rc}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        setup += [probe_setup(env, root) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    all_ops = result["warmup"] + ops + result.get("untraced_ops", [])
    failures = [r for r in all_ops if not r["ok"]]
    if args.trace:
        metrics, extra = per_layer(result, args.workload)
    else:
        metrics, extra = end_to_end(ops, setup, result["peak_rss_kib"], args.workload)
    correct = not failures and not extra.get("missing_layers")

    report = {"metadata": metadata(root, args), "correct": correct, "summary": extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "failures": failures[:20], "ops": ops}
    if args.trace:
        report["baseline_rows"] = result["baseline_rows"]
        report["layers"] = result["layers"]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    meta = report["metadata"]
    print(f"msym bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rev={meta['git_revision']} python={meta['python']} nproc={meta['nproc']}")
    for r in failures[:5]:
        print(f"FAILED {' '.join(r['argv'])}: {r['reason']}")
    if extra.get("missing_layers"):
        print(f"FAILED: no calls recorded for {', '.join(extra['missing_layers'])}")
    if args.trace:
        print(f"tracing overhead: {extra['untraced_throughput_ops_s']:.2f} ops/s untraced, "
              f"{extra['traced_throughput_ops_s']:.2f} ops/s traced")
        for row in result["baseline_rows"]:
            print(f"baseline {row['layer']:<11} {row['case']:<34} {row['median_ms']:10.3f} ms "
                  f"(median of {row['repeats']}) size={json.dumps(row['size'])}")
    else:
        print(f"ops={extra['samples']} busy_s={extra['busy_s']:.3f} "
              f"op_tail_ms=p{extra['tail_percentile']} with {extra['tail_samples_beyond']} samples "
              f"beyond; failed_ratio={extra['failed_ratio']}")
        print(f"host speed {extra['host_speed']:.3f} x nominal, steal {extra['steal_share']:.3f}; unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in extra["unscaled"].items()))
    for k, (v, u) in metrics.items():
        print(f"{k:<36} {v} {u}")
    print(f"details: {os.path.relpath(stem, root)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
