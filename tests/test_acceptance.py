"""Acceptance suite.

Each criterion is one test that performs the full check at its stated exact
tolerance (everything here is integer-exact except the fibration float
bounds) and prints a single pass/fail line.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines.
"""

from __future__ import annotations

import random
import time

from conftest import (
    chained_B,
    disc,
    klein_bottle,
    point,
    sphere,
    three_torus,
    two_torus,
    without_labels,
)

from msym.fibration import run_property_suite
from msym.genfun import betti_sum_sym, closed_form_sym2, closed_form_sym3
from msym.homology import betti, product
from msym.mcheck import M_VARIETY, check
from msym.realmodels import (
    build_B,
    build_half_surface,
    build_sym2_circle,
    build_sym3_circle,
    build_Y,
    circle,
    real_sym2_decomposition,
    real_sym3_decomposition,
)


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} ({name}): {status} [{elapsed:.2f}s / budget {budget:.0f}s]")


def test_criterion_1_closed_form_agreement():
    t0 = time.perf_counter()
    ok = all(
        closed_form_sym2(g) == betti_sum_sym(g, 2)
        and closed_form_sym3(g) == betti_sum_sym(g, 3)
        for g in range(31)
    )
    elapsed = time.perf_counter() - t0
    _report(1, "closed-form agreement", ok, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_sym2_equality_from_matrix_rank():
    t0 = time.perf_counter()
    failures = []
    for g in range(65):
        total = sum(m * sum(betti(cw)) for _, cw, m in real_sym2_decomposition(g))  # runs matrix ranks
        if total != 3 + 3 * g + 2 * g * g:
            failures.append((g, total))
    elapsed = time.perf_counter() - t0
    _report(2, "real locus of the square", not failures, elapsed, 10.0)
    assert not failures
    assert elapsed < 10.0


def test_criterion_3_sym3_equality_from_matrix_rank():
    t0 = time.perf_counter()
    failures = []
    for g in range(1, 65):
        total = sum(m * sum(betti(cw)) for _, cw, m in real_sym3_decomposition(g))
        if total != closed_form_sym3(g):
            failures.append((g, total))
    elapsed = time.perf_counter() - t0
    _report(3, "real locus of the cube", not failures, elapsed, 60.0)
    assert not failures
    assert elapsed < 60.0
    # spot values fixed by the closed form
    assert closed_form_sym3(1) == 12
    assert closed_form_sym3(2) == 32
    assert closed_form_sym3(3) == 72


def test_criterion_4_block_structure():
    t0 = time.perf_counter()
    ok = True
    for g in range(1, 65):
        b = betti(build_B(g))
        closed = b == tuple(reversed(b)) and b[0] == b[-1] == 1
        partial_b1 = betti(chained_B(g, glue_sym3=False))[1]
        ok = ok and closed and b[1] == g + 1 and sum(b) == 2 * (g + 2) and partial_b1 == g + 1
    elapsed = time.perf_counter() - t0
    _report(4, "3-manifold block structure", ok, elapsed, 60.0)
    assert ok


def test_criterion_5_bundle_range():
    t0 = time.perf_counter()
    ok = True
    for g in range(9):
        for n in range(max(0, 2 * g - 1), 2 * g + 7):
            ok = ok and betti_sum_sym(g, n) == 4 ** g * (n - g + 1)
            ok = ok and check(g, n).verdict == M_VARIETY
    elapsed = time.perf_counter() - t0
    _report(5, "projective-bundle range", ok, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_6_fibration_suite():
    t0 = time.perf_counter()
    report = run_property_suite(samples=10_000, seed=0)
    ok = (
        report.max_roundtrip_error < 1e-9
        and report.max_fiber_error < 1e-12
        and report.boundary_agreement == 1.0
        and report.section_intersections == 1
        and report.fiber_boundary_intersections == 2
    )
    elapsed = time.perf_counter() - t0
    _report(6, "circle-triples bundle", ok, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_7_homology_oracles():
    t0 = time.perf_counter()
    expected = {
        "circle": ((circle()), (1, 1)),
        "torus": (two_torus(), (1, 2, 1)),
        "klein": (klein_bottle(), (1, 2, 1)),
        "rp2": (build_Y(0), (1, 1, 1)),
        "mobius": (build_sym2_circle(), (1, 1, 0)),
        "solid_torus": (build_sym3_circle(), (1, 1, 0, 0)),
        "three_torus": (three_torus(), (1, 3, 3, 1)),
    }
    ok = all(betti(cw) == want for cw, want in expected.values())

    # Kunneth convolution on 20 seeded random pairs of curated models
    pool = [cw for cw, _ in expected.values()] + [
        point(),
        disc(),
        sphere(),
        build_half_surface(2),
        build_Y(2),
        build_B(1),
    ]
    rng = random.Random(20_24)
    for _ in range(20):
        a, b = without_labels(rng.choice(pool)), without_labels(rng.choice(pool))
        ba, bb = betti(a), betti(b)
        conv = [0] * (len(ba) + len(bb) - 1)
        for i, x in enumerate(ba):
            for j, y in enumerate(bb):
                conv[i + j] += x * y
        got = list(betti(product(a, b)))
        while got and got[-1] == 0:
            got.pop()
        while conv and conv[-1] == 0:
            conv.pop()
        ok = ok and got == conv

    # boundary-of-boundary vanishes in every model, recomputed from the data
    for cw in pool:
        for d in range(2, cw.dim + 1):
            for cid in cw.cells_of(d):
                acc: set[str] = set()
                for f in cw.boundary_of(cid):
                    acc ^= cw.boundary_of(f)
                ok = ok and not acc
    elapsed = time.perf_counter() - t0
    _report(7, "homology engine oracles", ok, elapsed, 60.0)
    assert ok


def test_criterion_8_smith_inequality_everywhere():
    t0 = time.perf_counter()
    reports = []
    for g in range(65):
        reports.append(check(g, 2))
    for g in range(1, 65):
        reports.append(check(g, 3))
    for g in range(9):
        for n in range(max(0, 2 * g - 1), 2 * g + 7):
            reports.append(check(g, n))
    ok = all(r.real_sum is not None and r.real_sum <= r.complex_sum for r in reports)
    elapsed = time.perf_counter() - t0
    _report(8, "Smith inequality invariant", ok, elapsed, 60.0)
    assert ok
