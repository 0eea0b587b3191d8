"""One workload run, in a process of its own: ``worker.py JOB RESULT``.

Reads the job (schedule and settings) that ``run.py`` wrote, imports
``msym.cli`` from the checkout, and drives ``msym.cli.main(argv)`` as a single
closed-loop client: the next op is sent only when the previous one returned.
Each op's wall and CPU time cover the ``main`` call alone; its output is
checked after the timer stops.  The result goes to RESULT as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

# Time of reference_loop() at the host speed all time metrics are scaled to.
REF_NOMINAL_NS = 400_000
# An op's host speed is the mean of this many reference samples on each side.
REF_WINDOW = 3

# 65536 ints, a few MiB: large enough that the reference loop feels the
# cache and memory contention that slows msym's allocation-heavy ops
_REF_TABLE = list(range(1 << 16))


def reference_loop() -> int:
    """A fixed amount of pure-Python work that reads a preallocated table and
    allocates nothing the garbage collector tracks, so the program's heap
    cannot slow it down."""
    table = _REF_TABLE
    acc = 0
    for i in range(2_000):
        acc = (acc + table[(i * 40503) & 0xFFFF] * i) % 1000003
    return acc


def reference_ns() -> int:
    """A sample of the host's current speed: the fastest of three reference
    loops, so that an interrupt or cold caches do not count."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        reference_loop()
        samples.append(time.perf_counter_ns() - t0)
    return min(samples)


def steal_ns() -> int:
    """CPU time the hypervisor took from this machine's CPUs, from the steal
    column of /proc/stat; 0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) * 1_000_000_000 // os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0


def _import_cli(src: str):
    import msym
    import msym.cli

    here = os.path.realpath(os.path.dirname(msym.__file__))
    if os.path.commonpath([here, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"error: msym was imported from {here}, not from {src}")
    return msym.cli


def run_op(cli, op: dict, check, tracer=None, index: int = -1) -> dict:
    """Call main once; return its timings, stdout size and verdict."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op(index)
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc, escaped = exc.code, f"SystemExit({exc.code!r}) escaped main"
        except Exception as exc:  # an exception escaping main is a failed op
            rc, escaped = None, f"{type(exc).__name__} escaped main: {exc}"
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        if tracer is not None:
            tracer.end_op()
    text = out.getvalue()
    reason = escaped or check(op, rc, text, err.getvalue())
    return {"wall_ns": t1 - t0, "cpu_ns": c1 - c0, "stdout_bytes": len(text.encode()),
            "ok": reason is None, "reason": reason}


def run_decks(cli, decks, check, *, seconds=None, min_ops=0, deadline=None, tracer=None):
    """Run whole decks; with ``seconds``, stop after the first deck at which
    the measured op time reaches it and at least ``min_ops`` ops ran.  A
    reference sample is taken before every op and after the last; each op
    records the mean of the REF_WINDOW samples on either side as ``ref_ns``,
    and the share of its deck's wall time stolen by the hypervisor as
    ``steal_share``."""
    records = []
    refs = []
    busy = 0
    for deck_index, deck in enumerate(decks):
        first = len(records)
        steal0, t0 = steal_ns(), time.perf_counter_ns()
        for op in deck:
            refs.append(reference_ns())
            rec = run_op(cli, op, check, tracer, len(records))
            rec["op"] = op
            rec["deck"] = deck_index
            records.append(rec)
            busy += rec["wall_ns"]
        share = (steal_ns() - steal0) / (time.perf_counter_ns() - t0)
        for rec in records[first:]:
            rec["steal_share"] = min(max(share, 0.0), 0.9)
        if seconds is not None and busy >= seconds * 1e9 and len(records) >= min_ops:
            break
        if deadline is not None and time.monotonic() > deadline:
            break
    refs.append(reference_ns())
    for i, rec in enumerate(records):
        window = refs[max(0, i + 1 - REF_WINDOW): i + 1 + REF_WINDOW]
        rec["ref_ns"] = sum(window) / len(window)
    return records


def _time_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)


def baseline_rows(workload: str, schedule_files: list, repeats: int = 5) -> list:
    """The ROADMAP baseline table rows for the layers this workload runs,
    timed by direct calls with no wrapper installed."""
    from msym import fibration, genfun, homology, realmodels

    rows = []

    def row(layer, case, size, fn):
        rows.append({"layer": layer, "case": case, "size": size,
                     "median_ms": _time_ms(fn, repeats), "repeats": repeats})

    def shapes(cx):
        return [list(homology.boundary_matrix(cx, k).shape) for k in range(1, cx.dim + 1)]

    if workload == "certify":
        for g in (16, 64, 128):
            for name, build in (("build_Y", realmodels.build_Y), ("build_B", realmodels.build_B)):
                cx = build(g)
                cells = [cx.n_cells(d) for d in range(cx.dim + 1)]
                row("realmodels", f"{name}({g})", {"g": g, "cells_per_dim": cells}, lambda: build(g))
                row("homology", f"betti({name[-1]}({g}))",
                    {"g": g, "cells_per_dim": cells, "matrix_shapes": shapes(cx)},
                    lambda: homology.betti(cx))
    elif workload == "betti-sym":
        for g in (200, 2000):
            row("genfun", f"poincare_sym({g},{g})", {"g": g, "n": g},
                lambda: genfun.poincare_sym(g, g))
            row("genfun", f"betti_sum_sym({g},{g})", {"g": g, "n": g},
                lambda: genfun.betti_sum_sym(g, g))
    elif workload == "fibration":
        for samples in (10_000, 100_000):
            row("fibration", f"run_property_suite({samples})", {"samples": samples},
                lambda: fibration.run_property_suite(samples=samples, seed=0))
    elif workload == "homology-json":
        for path in schedule_files:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            cx = homology.ChainComplexF2.from_json(text)
            size = {"cells_per_dim": [cx.n_cells(d) for d in range(cx.dim + 1)],
                    "matrix_shapes": shapes(cx)}
            name = os.path.basename(path)
            row("homology", f"from_json({name})", size, lambda: homology.ChainComplexF2.from_json(text))
            row("homology", f"betti({name})", size, lambda: homology.betti(cx))
    return rows


def _summary(records: list) -> list:
    return [{"deck": r.get("deck"), "wall_ns": r["wall_ns"], "cpu_ns": r["cpu_ns"],
             "ref_ns": r.get("ref_ns"), "steal_share": r.get("steal_share"),
             "ok": r["ok"], "reason": r["reason"],
             "argv": r["op"]["argv"], "size": r["op"]["size"]} for r in records]


def main(argv) -> int:
    job_path, result_path = argv[1], argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    cli = _import_cli(job["src"])
    from checker import check
    from tracer import Tracer, installed_wrappers

    start = time.monotonic()
    deadline = start + job["max_wall_s"]
    result = {"warmup": _summary([dict(run_op(cli, op, check), op=op) for op in job["warmup"]])}
    decks = job["decks"]
    if not job["trace"]:
        records = run_decks(cli, decks, check, seconds=job["seconds"],
                            min_ops=job["min_ops"], deadline=deadline)
        if installed_wrappers():
            raise SystemExit("error: the untraced run has span wrappers installed")
        result["ops"] = _summary(records)
    else:
        k = job["trace_decks"]
        untraced = run_decks(cli, decks[k:2 * k], check)
        if installed_wrappers():
            raise SystemExit("error: the untraced pass has span wrappers installed")
        tr = Tracer()
        tr.install()
        try:
            traced = run_decks(cli, decks[:k], check, tracer=tr)
        finally:
            tr.uninstall()
        left = installed_wrappers()
        if left:
            raise SystemExit(f"error: wrappers left installed after the traced pass: {left}")
        tr.counts["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in traced)
        result["untraced_ops"] = _summary(untraced)
        result["ops"] = _summary(traced)
        for i, rec in enumerate(result["ops"]):
            rec["size"] = dict(rec["size"], **tr.op_sizes.get(i, {}))
        result["layers"] = tr.layer_totals()
        result["counts"] = dict(tr.counts)
        tr.write_spans(job["spans_path"])
        result["baseline_rows"] = baseline_rows(job["workload"], job["baseline_files"])
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
