"""Tests of the circle-triples bundle: projection, fiber charts, boundary."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction as Fr
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import msym.fibration as fibration
from conftest import (
    reference_circle_angle,
    reference_circle_dist,
    reference_on_fiber_boundary_curve,
    reference_on_section_curve,
    reference_sorted_points,
    reference_t_inverse,
)
from msym.fibration import (
    DomainError,
    FiberError,
    SimplexPoint,
    SymTriple,
    diagonal_curve_point,
    enumerate_diagonal_fiber_boundary_intersections,
    enumerate_diagonal_section_intersections,
    is_boundary_point,
    on_fiber_boundary_curve,
    on_section_curve,
    run_property_suite,
    t_inverse,
    t_map,
    theta,
)

# --- theta -------------------------------------------------------------------


def test_theta_examples():
    assert theta(SymTriple(0, 0, 0)) == 0
    assert theta(SymTriple(0.25, 0.25, 0.5)) == 0.0  # i * i * (-1) = 1
    assert theta(SymTriple(Fr(1, 3), Fr(1, 3), Fr(1, 3))) == 0


def test_theta_order_invariance():
    angles = (0.13, 0.58, 0.91)
    results = {theta(SymTriple(*p)) for p in permutations(angles)}
    assert len(results) == 1


# --- the fiber chart t ---------------------------------------------------------


def test_t_map_examples():
    assert t_map(SimplexPoint(0, 0)).angles() == (Fr(0), Fr(0), Fr(0))
    # frozen from the exact (Fraction) evaluation of the chart formula
    assert t_map(SimplexPoint(Fr(1, 3), Fr(1, 3))).angles() == (Fr(0), Fr(1, 3), Fr(2, 3))
    assert t_map(SimplexPoint(Fr(1), Fr(0))).angles() == (Fr(1, 3), Fr(1, 3), Fr(1, 3))


def test_t_map_exact_oracle():
    # independent high-precision evaluation of the printed chart formula
    for d1, d2 in [(Fr(1, 5), Fr(2, 7)), (Fr(0), Fr(3, 4)), (Fr(1, 2), Fr(1, 2))]:
        lam = (-(2 * d1 + d2) / 3) % 1
        expected = sorted((lam, (lam + d1) % 1, (lam + d1 + d2) % 1))
        assert list(t_map(SimplexPoint(d1, d2)).angles()) == expected


def test_t_map_lands_on_the_fiber():
    rng = random.Random(5)
    for _ in range(200):
        u, v = rng.random(), rng.random()
        if u + v > 1:
            u, v = 1 - u, 1 - v
        tr = t_map(SimplexPoint(u, v))
        assert reference_circle_dist(theta(tr), 0.0) < 1e-12


def test_t_map_rejects_points_outside_the_triangle():
    with pytest.raises(DomainError):
        t_map(SimplexPoint(0.7, 0.7))
    with pytest.raises(DomainError):
        t_map(SimplexPoint(-0.2, 0.1))
    with pytest.raises(DomainError):
        t_map(SimplexPoint(Fr(-1, 10), Fr(1, 2)))


NAN = float("nan")


@pytest.mark.parametrize("d1,d2", [(NAN, 0.2), (0.2, NAN), (NAN, NAN)])
def test_t_map_rejects_nan_naming_it(d1, d2):
    # nan fails every comparison, so a test of the form `d < -tol` lets it in
    with pytest.raises(DomainError, match="nan"):
        t_map(SimplexPoint(d1, d2))


# --- the inverse chart ----------------------------------------------------------


def test_t_inverse_examples():
    assert t_inverse(SymTriple(0, 0, 0)).as_tuple() == (Fr(0), Fr(0))
    cube_roots = SymTriple(Fr(0), Fr(1, 3), Fr(2, 3))
    assert t_inverse(cube_roots).as_tuple() == (Fr(1, 3), Fr(1, 3))


def test_t_inverse_by_exhaustive_lift_search():
    # oracle: scan the whole shift orbit and keep the lift with sum zero
    tr = SymTriple(Fr(0), Fr(1, 3), Fr(2, 3))
    lift = tr.angles()
    candidates = []
    down = lift
    for _ in range(6):
        s1, s2, s3 = down
        down = (s3 - 1, s1, s2)
        candidates.append(down)
    up = lift
    candidates.append(lift)
    for _ in range(6):
        s1, s2, s3 = up
        up = (s2, s3, s1 + 1)
        candidates.append(up)
    zero_sum = [c for c in candidates if sum(c) == 0]
    assert len(zero_sum) == 1
    s1, s2, s3 = zero_sum[0]
    assert t_inverse(tr).as_tuple() == (s2 - s1, s3 - s2)


def test_t_inverse_roundtrip_on_floats():
    tr = SymTriple(0.9, 0.9, 0.2)
    p = t_inverse(tr)
    assert t_map(p).angles() == pytest.approx(tr.angles(), abs=1e-9)


def test_t_inverse_order_invariance():
    angles = (0.15, 0.25, 0.6)
    outs = {t_inverse(SymTriple(*p)).as_tuple() for p in permutations(angles)}
    assert len(outs) == 1


def test_t_inverse_rejects_triples_off_the_fiber():
    with pytest.raises(FiberError):
        t_inverse(SymTriple(0.1, 0.2, 0.3))
    with pytest.raises(FiberError):
        t_inverse(SymTriple(Fr(1, 4), Fr(1, 4), Fr(1, 4)))


@pytest.mark.parametrize("angles", [(NAN, NAN, NAN), (NAN, 0.1, 0.2)])
def test_t_inverse_rejects_nan_naming_it(angles):
    with pytest.raises((DomainError, FiberError), match="nan"):
        t_inverse(SymTriple(*angles))


@given(st.floats(0, 1), st.floats(0, 1))
def test_roundtrip_property(u, v):
    if u + v > 1:
        u, v = 1 - u, 1 - v
    p = SimplexPoint(u, v)
    q = t_inverse(t_map(p))
    assert abs(q.d1 - p.d1) < 1e-9 and abs(q.d2 - p.d2) < 1e-9


def test_roundtrip_at_the_corners():
    for d1, d2 in [(Fr(0), Fr(0)), (Fr(1), Fr(0)), (Fr(0), Fr(1))]:
        assert t_inverse(t_map(SimplexPoint(d1, d2))).as_tuple() == (d1, d2)


# every (i/q, j/q) with q <= 16 and i + j <= q, each point once
RATIONAL_GRID = sorted({(Fr(i, q), Fr(j, q))
                        for q in range(1, 17) for i in range(q + 1) for j in range(q + 1 - i)})


def test_exact_roundtrip_on_a_rational_grid():
    assert len(RATIONAL_GRID) == 733
    for d1, d2 in RATIONAL_GRID:
        p = SimplexPoint(d1, d2)
        tr = t_map(p)
        assert tr.is_exact and theta(tr) == 0, p
        assert _exact(t_inverse(tr).as_tuple()) == (d1, d2)
        assert is_boundary_point(p, 0) == tr.has_repeated_point(0), p


# --- boundary characterization ------------------------------------------------------


def test_boundary_examples():
    assert is_boundary_point(SimplexPoint(0, 0.4))
    assert not is_boundary_point(SimplexPoint(0.2, 0.3))
    assert is_boundary_point(SimplexPoint(0.5, 0.5))


@pytest.mark.parametrize("d1,d2", [(NAN, 0.2), (0.2, NAN), (NAN, NAN)])
def test_boundary_test_rejects_nan_naming_it(d1, d2):
    with pytest.raises(DomainError, match="nan"):
        is_boundary_point(SimplexPoint(d1, d2))


def test_boundary_matches_repeated_points():
    rng = random.Random(3)
    for i in range(2000):
        if i % 4 == 0:
            u = rng.random()
            p = [SimplexPoint(0.0, u), SimplexPoint(u, 0.0), SimplexPoint(u, 1 - u)][i % 3]
        else:
            u, v = rng.random(), rng.random()
            if u + v > 1:
                u, v = 1 - u, 1 - v
            p = SimplexPoint(u, v)
        assert is_boundary_point(p) == t_map(p).has_repeated_point(1e-9)


# --- exact and float angle types -------------------------------------------------------


class FrSub(Fr):
    """A Fraction subclass: must take the exact path, like Fraction itself."""


def _exact(values):
    assert all(type(v) is Fr for v in values), values
    return values


def _stored(s):
    """The angle a triple stores for s."""
    return SymTriple(s, s, s).angles()[0]


def test_exact_inputs_give_fraction_angles():
    # values frozen from the implementation before the float fast paths
    assert _exact((_stored(3), _stored(-2), _stored(True))) == (0, 0, 0)
    assert _exact((_stored(Fr(7, 3)), _stored(FrSub(-1, 4)))) == (Fr(1, 3), Fr(3, 4))
    assert _exact(t_map(SimplexPoint(1, 0)).angles()) == (Fr(1, 3),) * 3
    assert _exact(t_map(SimplexPoint(0, 1)).angles()) == (Fr(2, 3),) * 3
    for d1, d2 in [(Fr(1, 5), Fr(2, 7)), (FrSub(1, 5), FrSub(2, 7))]:
        assert _exact(t_map(SimplexPoint(d1, d2)).angles()) == (Fr(9, 35), Fr(27, 35), Fr(34, 35))
    assert _exact(t_map(SimplexPoint(FrSub(1, 2), 0)).angles()) == (Fr(1, 6), Fr(1, 6), Fr(2, 3))
    assert _exact(t_inverse(SymTriple(0, 1, 2)).as_tuple()) == (0, 0)
    sub_triple = SymTriple(FrSub(1, 5), FrSub(2, 5), FrSub(2, 5))
    assert _exact(t_inverse(sub_triple).as_tuple()) == (Fr(4, 5), Fr(1, 5))
    mixed = SymTriple(Fr(5, 6), Fr(1, 2), Fr(2, 3))
    assert _exact(t_inverse(mixed).as_tuple()) == (Fr(1, 6), Fr(2, 3))
    assert _exact((theta(SymTriple(1, FrSub(1, 4), Fr(1, 2))),)) == (Fr(3, 4),)
    assert _exact((theta(SymTriple(2, 3, 5)),)) == (0,)
    sub_sum = theta(SymTriple(FrSub(2, 3), FrSub(2, 3), FrSub(1, 2)))
    assert _exact((sub_sum,)) == (Fr(5, 6),)


def test_tiny_negative_float_wraps_to_zero():
    assert -1e-18 % 1.0 == 1.0  # what the guard in _angle is for
    s = _stored(-1e-18)
    assert s == 0.0 and type(s) is float


def test_triple_sort_is_stable_on_ties():
    # equal angles of different types keep their input order, as sorted() does
    def types(*angles):
        return [type(s) for s in SymTriple(*angles).angles()]

    assert types(Fr(1, 2), 0.5, 0.1) == [float, Fr, float]
    assert types(0.5, Fr(1, 2), 0.1) == [float, float, Fr]
    for p in permutations((0.7, 0.2, 0.4)):
        assert SymTriple(*p).angles() == (0.2, 0.4, 0.7)


def _outcome(fn, *args):
    """(type, repr) of the result, or of the exception with its text."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, never swallowed
        return ("raises", type(exc), str(exc))
    return (type(value), repr(value))


CIRCLE_INPUTS = [
    -0.0, -1e-18, 1.0, 2.5, NAN, 0.25, -0.75, 1e300, float("inf"),
    0, 3, -2, 10 ** 30, True, False,
    Fr(-1, 4), Fr(-7, 3), Fr(7, 3), Fr(1), Fr(3, 2), Fr(0), Fr(1, 2), Fr(99, 100),
    FrSub(-1, 4), FrSub(5, 4), FrSub(1, 2), FrSub(0),
    None, "0.5",
]


@pytest.mark.parametrize("s", CIRCLE_INPUTS, ids=repr)
def test_stored_angle_matches_the_reference_reduction(s):
    want = _outcome(reference_circle_angle, s)
    assert _outcome(_stored, s) == want
    assert _outcome(lambda x: theta(SymTriple(x, 0, 0)), s) == want


def test_triple_keeps_an_exact_angle_in_range_and_stays_frozen():
    half = Fr(1, 2)
    assert all(s is half for s in SymTriple(half, half, half).angles())
    tr = SymTriple(0.25, 0.5, 0.75)
    with pytest.raises(FrozenInstanceError):
        tr.s = (0.5, 0.5, 0.5)


TRIPLE_INPUTS = [
    (0.7, 0.2, 0.4), (0.5, Fr(1, 2), 0.1), (Fr(1, 2), 0.5, 0.1), (0.1, 0.1, 0.1),
    (NAN, 0.2, 0.1), (0.2, NAN, 0.1), (0.3, 0.2, NAN), (Fr(2, 3), 0, FrSub(1, 3)),
    (-1e-18, 1.0, 0.0), (True, Fr(1, 2), 2.75),
]


@pytest.mark.parametrize("angles", TRIPLE_INPUTS, ids=repr)
def test_triple_matches_the_reference(angles):
    want = reference_sorted_points(angles)
    got = SymTriple(*angles).angles()
    assert [(type(s), repr(s)) for s in got] == [(type(s), repr(s)) for s in want]


@pytest.mark.parametrize("wrap", [tuple, list, iter], ids=["tuple", "list", "one-shot"])
def test_triple_keeps_the_reference_order_of_its_points(wrap):
    for angles in TRIPLE_INPUTS:
        got = SymTriple(*wrap(angles)).angles()
        want = reference_sorted_points(wrap(angles))
        assert len(got) == 3
        assert [(type(s), repr(s)) for s in got] == [(type(s), repr(s)) for s in want], angles
        # an exact angle already in range is stored as the input object itself
        kept = [a for a in angles if type(a) is Fr and 0 <= a < 1]
        assert all(any(s is a for s in got) for a in kept), angles


@pytest.mark.parametrize("make", [
    lambda: (), lambda: [0.1] * 2, lambda: [0.1] * 4,
    lambda: iter([0.2] * 4), lambda: 5,
], ids=["empty", "two", "four", "one-shot-four", "not-iterable"])
def test_triple_rejects_what_the_reference_rejects(make):
    # a triple takes exactly three angles; Python's own TypeError rejects
    # any other count, and anything that cannot be unpacked at all
    assert _outcome(reference_sorted_points, make())[0] == "raises"
    with pytest.raises(TypeError):
        SymTriple(*make())


def _inverse_outcome(fn, tr, tol):
    return _outcome(lambda t: repr(fn(t, tol=tol).as_tuple()), tr)


def _assert_inverse_matches_the_reference(tr):
    for tol in (1e-12, 1e-6):
        assert _inverse_outcome(t_inverse, tr, tol) == _inverse_outcome(reference_t_inverse, tr, tol)


@given(st.floats(0, 1), st.floats(0, 1))
def test_t_inverse_matches_the_reference_on_the_fiber(u, v):
    if u + v > 1:
        u, v = 1 - u, 1 - v
    _assert_inverse_matches_the_reference(t_map(SimplexPoint(u, v)))


_NEAR_WRAP = st.one_of(st.floats(0, 1e-9), st.floats(1 - 1e-9, 1, exclude_max=True))


@given(_NEAR_WRAP, _NEAR_WRAP, st.sampled_from([0.0, 1e-9, -1e-9, 1e-5]))
def test_t_inverse_matches_the_reference_near_the_wrap(a, b, offset):
    # the third angle brings the sum to offset mod 1: on the fiber within one
    # tolerance or both, or off it, where both must raise the same error
    _assert_inverse_matches_the_reference(SymTriple(a, b, (offset - a - b) % 1.0))


_FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=60)


@given(_FRACTIONS, _FRACTIONS, _FRACTIONS)
def test_t_inverse_matches_the_reference_on_exact_triples(a, b, c):
    _assert_inverse_matches_the_reference(SymTriple(a, b, -a - b))
    _assert_inverse_matches_the_reference(SymTriple(a, b, c))
    d1, d2 = a % 1, b % 1
    if d1 + d2 <= 1:
        _assert_inverse_matches_the_reference(t_map(SimplexPoint(d1, d2)))


@pytest.mark.parametrize("angles,k", [
    ((0.0, 0.0, 0.0), 0), ((0.1, 0.3, 0.6), 1), ((0.5, 0.7, 0.8), 2),
    ((1 - 1e-10, 1 - 2e-10, 1 - 3e-10), 3),
    ((Fr(0), Fr(1, 5), Fr(4, 5)), 1), ((Fr(1, 2), Fr(3, 4), Fr(3, 4)), 2),
    ((0.0, 0.0, 1 - 1e-13), 1), ((0.5, 0.5, 1 - 1e-13), 2),
], ids=repr)
def test_t_inverse_matches_the_reference_in_every_lift(angles, k):
    tr = SymTriple(*angles)
    assert round(sum(tr.angles())) == k
    _assert_inverse_matches_the_reference(tr)


def _edge_triples(tol):
    """Exact angle triples whose sum is k + off for an integer k and an off
    of 0, +-tol, or just inside or past +-tol; the offset is spread over the
    three angles of a triple with sum k, kept where all three lie in [0, 1).
    (1, 1, 1) serves the k = 3 lift, reached by negative offsets only."""
    t, step = Fr(tol), Fr(tol) / 2 ** 20
    bases = ((0, 0, 0), (Fr(1, 4), Fr(1, 4), Fr(1, 2)), (Fr(1, 2), Fr(3, 4), Fr(3, 4)), (1, 1, 1))
    out = []
    for off in (0, t - step, t, t + step, -t + step, -t, -t - step):
        for a, b, c in bases:
            angles = (a + off / 4, b + off / 4, c + off / 2)
            if all(0 <= s < 1 for s in angles):
                out.append((a + b + c, off, angles))
    return out


def test_t_inverse_matches_the_reference_at_the_edge_of_the_fiber():
    tol = 2.0 ** -30  # a power of two, so every float below is exact
    seen = set()
    for k, off, angles in _edge_triples(tol):
        floats = tuple(map(float, angles))
        assert tuple(map(Fr, floats)) == angles
        for tr in (SymTriple(*angles), SymTriple(*floats)):
            s1, s2, s3 = tr.angles()
            assert s1 + s2 + s3 == k + off  # exact in floats too
            got = _inverse_outcome(t_inverse, tr, tol)
            assert got == _inverse_outcome(reference_t_inverse, tr, tol), angles
            if not tr.is_exact:
                # within tol of an integer is on the fiber, past it is not
                assert (got[0] == "raises") == (abs(off) > tol), angles
            seen.add((k, got[0] == "raises"))
    # both answers in the k = 0 and k = 3 lifts, and accepted in every lift
    assert {(0, False), (0, True), (3, False), (3, True), (1, False), (2, False)} <= seen
    for _, _, angles in _edge_triples(1e-12):  # a tol no float hits exactly
        tr = SymTriple(*angles)
        for t in (1e-12, 1e-6):
            assert _inverse_outcome(t_inverse, tr, t) == _inverse_outcome(reference_t_inverse, tr, t)
    for angles in ((NAN, 0.25, 0.75), (0.25, 0.75, NAN), (Fr(1, 4), NAN, Fr(3, 4))):
        tr = SymTriple(*angles)
        got = _inverse_outcome(t_inverse, tr, tol)
        assert got[:2] == ("raises", FiberError) and "nan" in got[2]
        assert got == _inverse_outcome(reference_t_inverse, tr, tol)


@pytest.mark.parametrize("angles", [
    (0.1, 0.2, 0.3), (Fr(1, 4), Fr(1, 4), Fr(1, 4)), (NAN, NAN, NAN), (NAN, 0.1, 0.2),
    (float("inf"), 0.0, 0.0), (0.5, 0.5, 1e-5),
], ids=repr)
def test_t_inverse_fails_like_the_reference_off_the_fiber(angles):
    tr = SymTriple(*angles)
    for tol in (1e-12, 1e-6):
        got = _inverse_outcome(t_inverse, tr, tol)
        assert got[0] == "raises" and got[1] in (FiberError, DomainError)
        assert got == _inverse_outcome(reference_t_inverse, tr, tol)


def _unchecked_triple(*angles):
    """A triple whose stored angles skip the reduction mod 1."""
    tr = object.__new__(SymTriple)
    object.__setattr__(tr, "s", angles)
    return tr


@pytest.mark.parametrize("angles", [(1.5, 1.5, 1.0), (-0.5, -0.25, -0.25)], ids=repr)
def test_t_inverse_fails_like_the_reference_on_an_out_of_range_lift(angles):
    tr = _unchecked_triple(*angles)
    got = _inverse_outcome(t_inverse, tr, 1e-12)
    assert got == ("raises", AssertionError, "the angles of a triple lie in [0, 1)")
    # the reference's assert statement gets pytest's explanation appended
    want = _inverse_outcome(reference_t_inverse, tr, 1e-12)
    assert want[:2] == got[:2] and want[2].startswith(got[2])


# --- exact curve intersections -------------------------------------------------------


def test_curve_membership_predicates():
    origin = diagonal_curve_point(Fr(0))
    assert on_section_curve(origin)
    assert on_fiber_boundary_curve(origin)
    half = diagonal_curve_point(Fr(1, 2))
    assert not on_section_curve(half)
    assert on_fiber_boundary_curve(half)
    third = diagonal_curve_point(Fr(1, 3))
    assert not on_section_curve(third)
    assert not on_fiber_boundary_curve(third)


def test_membership_requires_exact_angles():
    with pytest.raises(ValueError, match="exact"):
        on_section_curve(SymTriple(0.0, 0.0, 0.5))


# every angle k/q in [0, 1) with q <= 12, each once
SMALL_DENOMINATOR_ANGLES = sorted({Fr(k, q) for q in range(1, 13) for k in range(q)})


@pytest.mark.parametrize("predicate,reference", [
    (on_section_curve, reference_on_section_curve),
    (on_fiber_boundary_curve, reference_on_fiber_boundary_curve),
], ids=["section", "fiber_boundary"])
def test_curve_predicates_match_fraction_arithmetic(predicate, reference):
    triples = [SymTriple(*t) for t in combinations_with_replacement(SMALL_DENOMINATOR_ANGLES, 3)]
    assert len(triples) == 17_296
    got = [predicate(tr) for tr in triples]
    assert [tr for tr, hit in zip(triples, got) if hit != reference(tr)] == []
    assert 0 < sum(got) < len(triples)


def test_curve_predicates_on_subclass_and_mixed_triples():
    # Fraction subclasses and ints are stored as exact Fractions
    for tr in (SymTriple(FrSub(1, 2), FrSub(1, 2), FrSub(0)), SymTriple(Fr(1, 2), True, FrSub(3, 2))):
        assert tr.is_exact
        assert on_fiber_boundary_curve(tr) and not on_section_curve(tr)
    # one float angle, first, second or third once sorted, makes a triple inexact
    mixed = [SymTriple(Fr(1, 2), Fr(1, 2), 0.0), SymTriple(Fr(0), 0.0, Fr(1, 2)),
             SymTriple(Fr(0), Fr(0), 0.5)]
    assert [[type(s) for s in tr.angles()].index(float) for tr in mixed] == [0, 1, 2]
    for tr in (*mixed, SymTriple(0.0, 0.0, 0.5)):
        assert not tr.is_exact
        for predicate in (on_section_curve, on_fiber_boundary_curve,
                          reference_on_section_curve, reference_on_fiber_boundary_curve):
            with pytest.raises(ValueError, match="exact"):
                predicate(tr)


def test_intersection_counts():
    section = enumerate_diagonal_section_intersections()
    assert len(section) == 1
    assert section[0].angles() == (Fr(0), Fr(0), Fr(0))
    fiber_bd = enumerate_diagonal_fiber_boundary_intersections()
    assert len(fiber_bd) == 2
    assert {t.angles() for t in fiber_bd} == {
        (Fr(0), Fr(0), Fr(0)),
        (Fr(0), Fr(1, 2), Fr(1, 2)),
    }


# the default search tests (a, a, 0) for every a = k/q in [0, 1) in lowest
# terms with q <= 24
DIAGONAL_CANDIDATES = 180


@pytest.mark.parametrize("predicate,field", [
    ("on_section_curve", "section_intersections"),
    ("on_fiber_boundary_curve", "fiber_boundary_intersections"),
])
def test_every_suite_runs_its_curve_search_again(monkeypatch, predicate, field):
    assert run_property_suite(samples=10, seed=1).all_passed  # the search is warm
    tested = []

    def reject(tr):
        tested.append(tr)
        return False

    monkeypatch.setattr(fibration, predicate, reject)
    report = run_property_suite(samples=10, seed=1)
    assert getattr(report, field) == 0
    assert not report.all_passed
    assert len(tested) == len(set(tested)) == DIAGONAL_CANDIDATES


def test_a_second_suite_builds_no_curve_point(monkeypatch):
    calls = []
    build = fibration.diagonal_curve_point

    def counting(a):
        calls.append(a)
        return build(a)

    monkeypatch.setattr(fibration, "diagonal_curve_point", counting)
    first = run_property_suite(samples=10, seed=1)
    built = len(calls)
    assert built in (0, DIAGONAL_CANDIDATES)  # 0 when an earlier test built them
    second = run_property_suite(samples=10, seed=2)
    assert len(calls) == built
    assert first.all_passed and second.all_passed


# --- randomized suite ------------------------------------------------------------------


def test_property_suite_passes():
    report = run_property_suite(samples=2000, seed=42)
    assert report.max_roundtrip_error < 1e-9
    assert report.max_fiber_error < 1e-12
    assert report.boundary_mismatches == 0
    assert report.boundary_agreement == 1.0
    assert report.section_intersections == 1
    assert report.fiber_boundary_intersections == 2
    assert report.all_passed


@pytest.mark.parametrize("field,value,failing", [
    ("max_roundtrip_error", 1e-9, "roundtrip_max_error"),
    ("max_fiber_error", 1e-12, "fiber_max_error"),
    ("boundary_mismatches", 1, "boundary_agreement"),
    ("section_intersections", 2, "section_intersections"),
    ("fiber_boundary_intersections", 1, "fiber_boundary_intersections"),
])
def test_each_check_fails_the_report_on_its_own(field, value, failing):
    report = run_property_suite(samples=100, seed=1)
    assert [row[0] for row in report.checks() if not row[3]] == []
    bad = replace(report, **{field: value})
    assert [row[0] for row in bad.checks() if not row[3]] == [failing]
    assert not bad.all_passed


def test_property_suite_is_seeded():
    a = run_property_suite(samples=500, seed=7)
    b = run_property_suite(samples=500, seed=7)
    assert a == b


# run_property_suite(2000, seed), field by field with floats by repr, recorded
# before the single-store point constructors; the fields added since then
# are checked by the replay test below
PINNED_SUITE = {
    "samples": "2000",
    "roundtrip_tol": "1e-09",
    "fiber_tol": "1e-12",
    "max_roundtrip_error": "1.1102230246251565e-16",
    "max_fiber_error": "2.220446049250313e-16",
    "boundary_mismatches": "0",
    "section_intersections": "1",
    "fiber_boundary_intersections": "2",
}


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_property_suite_is_pinned(seed):
    report = run_property_suite(2000, seed)
    assert {name: repr(getattr(report, name)) for name in PINNED_SUITE} == PINNED_SUITE
    assert report.seed == seed


@pytest.mark.parametrize("seed", [0, 5, 2024])
@pytest.mark.parametrize("worst,error", [("worst_roundtrip", "max_roundtrip_error"),
                                         ("worst_fiber", "max_fiber_error")])
def test_worst_sample_replays_to_the_reported_maximum(seed, worst, error):
    report = run_property_suite(2000, seed)
    index, point = getattr(report, worst)
    replay = run_property_suite(index + 1, seed)
    assert getattr(replay, error) == getattr(report, error)
    assert getattr(replay, worst) == (index, point)
    if index:  # the first sample with the largest error: none before it reaches it
        assert getattr(run_property_suite(index, seed), error) < getattr(report, error)


def test_worst_points_have_the_reported_errors():
    report = run_property_suite(2000, 5)
    p = SimplexPoint(*report.worst_roundtrip[1])
    q = t_inverse(t_map(p, tol=1e-6), tol=1e-6)
    assert max(abs(q.d1 - p.d1), abs(q.d2 - p.d2)) == report.max_roundtrip_error
    p = SimplexPoint(*report.worst_fiber[1])
    assert reference_circle_dist(theta(t_map(p, tol=1e-6)), 0.0) == report.max_fiber_error


def test_property_suite_rejects_empty_runs():
    with pytest.raises(ValueError):
        run_property_suite(samples=0)
