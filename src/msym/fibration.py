"""The third symmetric product of the circle as a simplex bundle over the circle.

A circle point is its angle in [0, 1), taken mod 1 (the angle s stands for
e^(2*pi*i*s)), and a triple is its three angles, sorted; so the bundle
projection -- the product of the three entries -- is plain addition of
angles.  Angles given as :class:`fractions.Fraction` are carried exactly;
float angles are handled to machine precision with explicit tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable

ROUNDTRIP_TOL = 1e-9
FIBER_TOL = 1e-12

Angle = float | Fraction


class DomainError(ValueError):
    """Input point outside the parameter domain."""


class FiberError(ValueError):
    """Input triple does not lie on the requested fiber."""


def _angle(s: Angle) -> Angle:
    """The angle s reduced mod 1 into [0, 1).  Ints and bools are promoted to
    Fraction and Fraction subclasses reduced to Fraction; an exact Fraction
    already in [0, 1) is returned as the same object."""
    # floats skip every isinstance test: Fraction's ABC instance check costs
    # several times the float arithmetic, and the sampled suite is all floats
    if type(s) is not float:
        if type(s) is Fraction and 0 <= s.numerator < s.denominator:
            return s
        if isinstance(s, int):
            s = Fraction(s)
        if isinstance(s, Fraction):
            return s % 1
    s = s % 1.0
    # float modulo of a tiny negative can round up to exactly 1.0
    return 0.0 if s >= 1.0 else s


def _circle_dist(x: Angle, y: Angle):
    d = _angle(x - y)
    return min(d, 1 - d)


@dataclass(frozen=True, slots=True, init=False)
class SymTriple:
    """Unordered triple of circle points: ``s`` holds their three angles,
    reduced mod 1 and sorted."""

    s: tuple[Angle, Angle, Angle]

    def __init__(self, a: Angle, b: Angle, c: Angle):
        a, b, c = _angle(a), _angle(b), _angle(c)
        # insertion sort on strict <: stable, like sorted()
        if b < a:
            a, b = b, a
        if c < b:
            b, c = c, b
            if b < a:
                a, b = b, a
        object.__setattr__(self, "s", (a, b, c))

    def angles(self) -> tuple[Angle, Angle, Angle]:
        return self.s

    @property
    def is_exact(self) -> bool:
        return all(isinstance(s, Fraction) for s in self.s)

    def has_repeated_point(self, tol: float = ROUNDTRIP_TOL) -> bool:
        """Whether two of the three points coincide within tol (mod 1)."""
        a, b, c = self.s
        return bool(b - a <= tol or c - b <= tol or (a + 1) - c <= tol)


@dataclass(frozen=True, slots=True)
class SimplexPoint:
    """Point (d1, d2) of the standard triangle d1, d2 >= 0, d1 + d2 <= 1."""

    d1: Angle
    d2: Angle

    def as_tuple(self) -> tuple[Angle, Angle]:
        return (self.d1, self.d2)


def theta(tr: SymTriple) -> Angle:
    """Bundle projection: the product of the three circle entries, i.e. the
    angle that is the sum of the three angles mod 1.  Independent of the
    ordering."""
    a, b, c = tr.s
    return _angle(a + b + c)


def t_map(p: SimplexPoint, *, tol: float = ROUNDTRIP_TOL) -> SymTriple:
    """Parametrization of the fiber over 1 by the standard triangle.

    Sends (d1, d2) to the triple with angles (L, L + d1, L + d1 + d2) where
    L = -(2*d1 + d2)/3, so the three angles sum to 0 mod 1.
    """
    d1, d2 = p.d1, p.d2
    # written so that nan fails the test: every comparison with nan is false
    if not (d1 >= -tol and d2 >= -tol and d1 + d2 <= 1 + tol):
        raise DomainError(f"({d1}, {d2}) is not in the parameter triangle")
    if (type(d1) is not float
            and isinstance(d1, (int, Fraction)) and isinstance(d2, (int, Fraction))):
        lam = -Fraction(2 * d1 + d2) / 3
    else:
        lam = -(2 * d1 + d2) / 3.0
    return SymTriple(lam, lam + d1, lam + d1 + d2)


def t_inverse(tr: SymTriple, *, tol: float = FIBER_TOL) -> SimplexPoint:
    """Inverse of :func:`t_map` on the fiber over 1.

    Among the ordered lifts (s1 <= s2 <= s3 <= s1 + 1) of the triple, related
    to each other by the shift (s1, s2, s3) -> (s2, s3, s1 + 1), exactly one
    has angle sum 0; the result is (s2 - s1, s3 - s2) for that lift.  The
    sorted angles lie in [0, 1), so their sum is near an integer k in 0..3,
    and that lift is k unshifts (s1, s2, s3) -> (s3 - 1, s1, s2) away.
    Raises :class:`FiberError` when the product of the entries is not 1
    within tol.
    """
    s1, s2, s3 = tr.s
    sigma = s1 + s2 + s3
    th = _angle(sigma)  # theta(tr), from the sum that k needs too
    if not (_circle_dist(th, 0) <= tol):  # a nan angle sum fails too
        raise FiberError(f"triple with angle sum {th} is not on the fiber over 1")
    # sigma is exact iff all three angles are, and then so are d1 and d2
    exact = type(sigma) is not float and isinstance(sigma, Fraction)
    if exact:
        if sigma.denominator != 1:
            raise FiberError(f"exact triple has non-integral angle sum {sigma}")
        k = int(sigma)
    else:
        k = round(sigma)
    if k == 1:
        s1, s2, s3 = s3 - 1, s1, s2
    elif k == 2:
        s1, s2, s3 = s2 - 1, s3 - 1, s1
    elif k == 3:
        s1, s2, s3 = s1 - 1, s2 - 1, s3 - 1
    elif k != 0:
        raise AssertionError("the angles of a triple lie in [0, 1)")
    d1 = s2 - s1
    d2 = s3 - s2
    if not exact:
        # float rounding can push a boundary value a few ulps outside
        if d1 < 0.0:
            d1 = 0.0
        elif d1 > 1.0:
            d1 = 1.0
        if d2 < 0.0:
            d2 = 0.0
        elif d2 > 1.0:
            d2 = 1.0
        if d1 + d2 > 1.0:
            d2 = 1.0 - d1
    return SimplexPoint(d1, d2)


def is_boundary_point(p: SimplexPoint, tol: float = ROUNDTRIP_TOL) -> bool:
    """Whether (d1, d2) lies on the triangle edges d1=0, d2=0 or d1+d2=1;
    equivalently, whether :func:`t_map` sends it to a triple with a repeated
    point.  Raises :class:`DomainError` on a nan coordinate."""
    d1, d2 = p.d1, p.d2
    if d1 != d1 or d2 != d2:  # only nan differs from itself
        raise DomainError(f"({d1}, {d2}) has a nan coordinate")
    return bool(abs(d1) <= tol or abs(d2) <= tol or abs(d1 + d2 - 1) <= tol)


# --- boundary-torus curves and their exact intersections ---------------------
#
# Three curves on the solid torus of circle triples, in exact angle
# coordinates:  the diagonal-direction curve {(a, a, 0)}, the section curve
# {(0, 0, m)} of the bundle projection, and the fiber-boundary curve
# {(v, v, m) : 2v + m = 0 mod 1}.


def diagonal_curve_point(a: Angle) -> SymTriple:
    """Point (a, a, 0) of the diagonal-direction boundary curve."""
    return SymTriple(a, a, 0 if isinstance(a, (int, Fraction)) else 0.0)


def on_section_curve(tr: SymTriple) -> bool:
    """Exact membership in {(0, 0, m)}: at least two angles equal to 0."""
    if not tr.is_exact:
        raise ValueError("curve membership is decided on exact (Fraction) angles only")
    zeros = sum(1 for s in tr.angles() if s == 0)
    return zeros >= 2


def on_fiber_boundary_curve(tr: SymTriple) -> bool:
    """Exact membership in {(v, v, m) : 2v + m = 0 mod 1}."""
    if not tr.is_exact:
        raise ValueError("curve membership is decided on exact (Fraction) angles only")
    a, b, c = tr.angles()
    candidates = []
    if a == b:
        candidates.append((a, c))
    if b == c:
        candidates.append((b, a))
    return any((2 * v + m).denominator == 1 for v, m in candidates)


_SEARCH_DENOMINATOR = 24  # the largest q of the angles a = k/q the curve searches try


@cache
def _diagonal_curve_candidates() -> tuple[SymTriple, ...]:
    """The points (a, a, 0), a = k/q in [0, 1) in lowest terms, q <= _SEARCH_DENOMINATOR,
    by q then k; built once per process, as sorting Fraction angles is the cost."""
    return tuple(diagonal_curve_point(Fraction(k, q)) for q in range(1, _SEARCH_DENOMINATOR + 1)
                 for k in range(q) if gcd(k, q) == 1)


def _diagonal_curve_hits(on_curve: Callable[[SymTriple], bool]):
    """The points of the diagonal-direction curve that satisfy ``on_curve``,
    searched over rational angles, sorted by their angles.  The candidates
    are distinct and built once per process; ``on_curve`` tests all of them
    at every call."""
    return tuple(sorted(filter(on_curve, _diagonal_curve_candidates()), key=SymTriple.angles))


def enumerate_diagonal_section_intersections() -> tuple[SymTriple, ...]:
    """All intersection points of the diagonal-direction curve with the
    section curve, by exhaustive search over rational angles.

    Any solution satisfies a congruence q*a = 0 (mod 1) with q <= 3, so its
    denominator is at most 3; the search bound leaves a wide margin.
    """
    return _diagonal_curve_hits(on_section_curve)


def enumerate_diagonal_fiber_boundary_intersections() -> tuple[SymTriple, ...]:
    """All intersection points of the diagonal-direction curve with the
    fiber-boundary curve, by exhaustive search over rational angles."""
    return _diagonal_curve_hits(on_fiber_boundary_curve)


# --- randomized property suite ------------------------------------------------


@dataclass(frozen=True)
class FibrationReport:
    """Worst observed errors of the randomized bundle-structure checks.

    ``worst_roundtrip`` and ``worst_fiber`` give the index and the (d1, d2)
    point of the first sample with the largest error of each kind: a run of
    ``index + 1`` samples with the same seed ends on that sample.
    """

    samples: int
    seed: int
    roundtrip_tol: float
    fiber_tol: float
    max_roundtrip_error: float
    max_fiber_error: float
    boundary_mismatches: int
    section_intersections: int
    fiber_boundary_intersections: int
    worst_roundtrip: tuple[int, tuple[float, float]]
    worst_fiber: tuple[int, tuple[float, float]]

    @property
    def boundary_agreement(self) -> float:
        return 1.0 - self.boundary_mismatches / self.samples

    def checks(self) -> tuple[tuple[str, float | int, float | int, bool], ...]:
        """The pass rule: one (name, value, required, passed) row per check."""
        return (
            ("roundtrip_max_error", self.max_roundtrip_error, self.roundtrip_tol,
             self.max_roundtrip_error < self.roundtrip_tol),
            ("fiber_max_error", self.max_fiber_error, self.fiber_tol,
             self.max_fiber_error < self.fiber_tol),
            ("boundary_agreement", self.boundary_agreement, 1.0,
             self.boundary_mismatches == 0),
            ("section_intersections", self.section_intersections, 1,
             self.section_intersections == 1),
            ("fiber_boundary_intersections", self.fiber_boundary_intersections, 2,
             self.fiber_boundary_intersections == 2),
        )

    @property
    def all_passed(self) -> bool:
        return all(passed for _, _, _, passed in self.checks())


def _sample_simplex_point(rng: random.Random, i: int) -> SimplexPoint:
    # every fifth sample sits exactly on a triangle edge so the boundary
    # characterization is exercised on both answers
    if i % 5 == 4:
        u = rng.random()
        edge = (i // 5) % 3
        if edge == 0:
            return SimplexPoint(0.0, u)
        if edge == 1:
            return SimplexPoint(u, 0.0)
        return SimplexPoint(u, 1.0 - u)
    u, v = rng.random(), rng.random()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return SimplexPoint(u, v)


def run_property_suite(
    samples: int = 10_000,
    seed: int = 0,
    roundtrip_tol: float = ROUNDTRIP_TOL,
) -> FibrationReport:
    """Seeded random verification of the bundle structure.

    Checks, over uniform triangle samples (with a deterministic share of
    exact edge points): that the fiber parametrization lands on the fiber
    (within ``roundtrip_tol / 1000``), that its inverse undoes it, and that
    the repeated-point locus is exactly the triangle boundary.  Both exact
    curve searches run their membership predicate on every candidate point
    in every suite; only the candidate points are built once per process.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    # every error is a finite float >= 0, so sample 0 sets both maxima
    max_rt = max_fib = -1.0
    mismatches = 0
    for i in range(samples):
        p = _sample_simplex_point(rng, i)
        tr = t_map(p, tol=1e-6)
        err = _circle_dist(theta(tr), 0.0)
        if err > max_fib:
            max_fib, worst_fib = err, (i, p)
        # inversion itself runs at a loose tolerance; the measured errors are
        # compared against the requested thresholds in the report
        q = t_inverse(tr, tol=1e-6)
        err = abs(q.d1 - p.d1)
        err2 = abs(q.d2 - p.d2)
        if err2 > err:
            err = err2
        if err > max_rt:
            max_rt, worst_rt = err, (i, p)
        if is_boundary_point(p, roundtrip_tol) != tr.has_repeated_point(roundtrip_tol):
            mismatches += 1
    return FibrationReport(
        samples=samples,
        seed=seed,
        roundtrip_tol=roundtrip_tol,
        fiber_tol=roundtrip_tol / 1000,
        max_roundtrip_error=max_rt,
        max_fiber_error=max_fib,
        boundary_mismatches=mismatches,
        section_intersections=len(enumerate_diagonal_section_intersections()),
        fiber_boundary_intersections=len(enumerate_diagonal_fiber_boundary_intersections()),
        worst_roundtrip=(worst_rt[0], worst_rt[1].as_tuple()),
        worst_fiber=(worst_fib[0], worst_fib[1].as_tuple()),
    )
