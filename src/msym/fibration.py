"""The third symmetric product of the circle as a simplex bundle over the circle.

Circle points are angles in [0, 1) taken mod 1 (the angle s stands for
e^(2*pi*i*s)), so the bundle projection -- the product of the three entries --
is plain addition of angles.  Angles given as :class:`fractions.Fraction`
are carried exactly; float angles are handled to machine precision with
explicit tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

ROUNDTRIP_TOL = 1e-9
FIBER_TOL = 1e-12

Angle = float | Fraction


class DomainError(ValueError):
    """Input point outside the parameter domain."""


class FiberError(ValueError):
    """Input triple does not lie on the requested fiber."""


def _mod1(x: Angle) -> Angle:
    if isinstance(x, Fraction):
        return x % 1
    y = x % 1.0
    # float modulo of a tiny negative can round up to exactly 1.0
    return 0.0 if y >= 1.0 else y


def _circle_dist(x: Angle, y: Angle):
    d = _mod1(x - y)
    return min(d, 1 - d)


@dataclass(frozen=True)
class CirclePoint:
    """Angle in [0, 1) representing a point on the unit circle."""

    s: Angle

    def __post_init__(self):
        s = self.s
        if isinstance(s, int):
            s = Fraction(s)
        object.__setattr__(self, "s", _mod1(s))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.s, Fraction)

    def rotated(self, ds: Angle) -> "CirclePoint":
        return CirclePoint(self.s + ds)

    def distance_to(self, other: "CirclePoint"):
        return _circle_dist(self.s, other.s)


@dataclass(frozen=True)
class SymTriple:
    """Unordered triple of circle points, stored sorted by angle."""

    pts: tuple[CirclePoint, CirclePoint, CirclePoint]

    def __post_init__(self):
        pts = tuple(sorted(self.pts, key=lambda p: p.s))
        if len(pts) != 3:
            raise ValueError("a triple needs exactly three points")
        object.__setattr__(self, "pts", pts)

    @classmethod
    def from_angles(cls, a: Angle, b: Angle, c: Angle) -> "SymTriple":
        return cls((CirclePoint(a), CirclePoint(b), CirclePoint(c)))

    def angles(self) -> tuple[Angle, Angle, Angle]:
        return tuple(p.s for p in self.pts)

    @property
    def is_exact(self) -> bool:
        return all(p.is_exact for p in self.pts)

    def rotated(self, ds: Angle) -> "SymTriple":
        return SymTriple(tuple(p.rotated(ds) for p in self.pts))

    def distance_to(self, other: "SymTriple"):
        """Max angle distance under the best cyclic matching.

        The sorted representative is ambiguous when angles sit near 0/1, so
        all three rotations of the matching are considered.
        """
        a = self.angles()
        b = other.angles()
        best = None
        for k in range(3):
            d = max(_circle_dist(a[i], b[(i + k) % 3]) for i in range(3))
            if best is None or d < best:
                best = d
        return best

    def has_repeated_point(self, tol: float = ROUNDTRIP_TOL) -> bool:
        """Whether two of the three points coincide within tol (mod 1)."""
        a, b, c = self.angles()
        return bool(b - a <= tol or c - b <= tol or (a + 1) - c <= tol)


@dataclass(frozen=True)
class SimplexPoint:
    """Point (d1, d2) of the standard triangle d1, d2 >= 0, d1 + d2 <= 1."""

    d1: Angle
    d2: Angle

    def as_tuple(self) -> tuple[Angle, Angle]:
        return (self.d1, self.d2)


def theta(tr: SymTriple) -> CirclePoint:
    """Bundle projection: the product of the three circle entries, i.e. the
    sum of the three angles mod 1.  Independent of the ordering."""
    a, b, c = tr.angles()
    return CirclePoint(a + b + c)


def t_map(p: SimplexPoint, *, tol: float = ROUNDTRIP_TOL) -> SymTriple:
    """Parametrization of the fiber over 1 by the standard triangle.

    Sends (d1, d2) to the triple with angles (L, L + d1, L + d1 + d2) where
    L = -(2*d1 + d2)/3, so the three angles sum to 0 mod 1.
    """
    d1, d2 = p.d1, p.d2
    if d1 < -tol or d2 < -tol or d1 + d2 > 1 + tol:
        raise DomainError(f"({d1}, {d2}) is not in the parameter triangle")
    if isinstance(d1, (int, Fraction)) and isinstance(d2, (int, Fraction)):
        lam = -Fraction(2 * d1 + d2) / 3
    else:
        lam = -(2 * d1 + d2) / 3.0
    return SymTriple.from_angles(lam, lam + d1, lam + d1 + d2)


def shift_lift(lift: tuple) -> tuple:
    """One step of the lift shift (s1, s2, s3) -> (s2, s3, s1 + 1).

    Preserves the ordering constraint s1 <= s2 <= s3 <= s1 + 1 and raises the
    lift sum by exactly 1.
    """
    s1, s2, s3 = lift
    return (s2, s3, s1 + 1)


def unshift_lift(lift: tuple) -> tuple:
    """Inverse of :func:`shift_lift`; lowers the lift sum by exactly 1."""
    s1, s2, s3 = lift
    return (s3 - 1, s1, s2)


def t_inverse(tr: SymTriple, *, tol: float = FIBER_TOL) -> SimplexPoint:
    """Inverse of :func:`t_map` on the fiber over 1.

    Among the ordered lifts (s1 <= s2 <= s3 <= s1 + 1) of the triple, related
    to each other by the shift operation, exactly one has angle sum 0; the
    result is (s2 - s1, s3 - s2) for that lift.  Raises :class:`FiberError`
    when the product of the entries is not 1 within tol.
    """
    th = theta(tr)
    if th.distance_to(CirclePoint(0)) > tol:
        raise FiberError(f"triple with angle sum {th.s} is not on the fiber over 1")
    lift = tr.angles()
    sigma = lift[0] + lift[1] + lift[2]
    if isinstance(sigma, Fraction):
        if sigma.denominator != 1:
            raise FiberError(f"exact triple has non-integral angle sum {sigma}")
        k = int(sigma)
    else:
        k = round(sigma)
    steps = 0
    while k > 0:
        lift = unshift_lift(lift)
        k -= 1
        steps += 1
        assert steps < 5, "lift normalization did not terminate"
    while k < 0:
        lift = shift_lift(lift)
        k += 1
        steps += 1
        assert steps < 5, "lift normalization did not terminate"
    d1 = lift[1] - lift[0]
    d2 = lift[2] - lift[1]
    if not isinstance(d1, Fraction) or not isinstance(d2, Fraction):
        # float rounding can push a boundary value a few ulps outside
        d1 = min(max(d1, 0.0), 1.0)
        d2 = min(max(d2, 0.0), 1.0)
        if d1 + d2 > 1.0:
            d2 = 1.0 - d1
    return SimplexPoint(d1, d2)


def local_trivialization(
    mu: CirclePoint, s: Angle, tr: SymTriple, *, tol: float = FIBER_TOL
) -> SymTriple:
    """Slide a triple on the fiber over mu to the fiber over mu*e^(2*pi*i*s)
    by rotating every entry by s/3.  The identity at s = 0."""
    if not -0.5 < s < 0.5:
        raise DomainError(f"trivialization parameter {s} outside (-1/2, 1/2)")
    if theta(tr).distance_to(mu) > tol:
        raise FiberError(f"triple with angle sum {theta(tr).s} is not on the fiber over {mu.s}")
    if isinstance(s, Fraction):
        return tr.rotated(s / 3)
    return tr.rotated(s / 3.0)


def is_boundary_point(p: SimplexPoint, tol: float = ROUNDTRIP_TOL) -> bool:
    """Whether (d1, d2) lies on the triangle edges d1=0, d2=0 or d1+d2=1;
    equivalently, whether :func:`t_map` sends it to a triple with a repeated
    point."""
    d1, d2 = p.d1, p.d2
    return bool(abs(d1) <= tol or abs(d2) <= tol or abs(d1 + d2 - 1) <= tol)


# --- boundary-torus curves and their exact intersections ---------------------
#
# Three curves on the solid torus of circle triples, in exact angle
# coordinates:  the diagonal-direction curve {(a, a, 0)}, the section curve
# {(0, 0, m)} of the bundle projection, and the fiber-boundary curve
# {(v, v, m) : 2v + m = 0 mod 1}.


def diagonal_curve_point(a: Angle) -> SymTriple:
    """Point (a, a, 0) of the diagonal-direction boundary curve."""
    zero = Fraction(0) if isinstance(a, (int, Fraction)) else 0.0
    return SymTriple.from_angles(a, a, zero)


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
    return any(_mod1(2 * v + m) == 0 for v, m in candidates)


def _rational_angles(max_denominator: int) -> Iterable[Fraction]:
    seen: set[Fraction] = set()
    for q in range(1, max_denominator + 1):
        for k in range(q):
            a = Fraction(k, q)
            if a not in seen:
                seen.add(a)
                yield a


def _diagonal_curve_hits(on_curve: Callable[[SymTriple], bool], max_denominator: int):
    """Distinct points of the diagonal-direction curve that satisfy
    ``on_curve``, searched over rational angles, sorted by their angles."""
    found: dict[tuple, SymTriple] = {}
    for a in _rational_angles(max_denominator):
        tr = diagonal_curve_point(a)
        if on_curve(tr):
            found.setdefault(tr.angles(), tr)
    return tuple(found[k] for k in sorted(found))


def enumerate_diagonal_section_intersections(max_denominator: int = 24) -> tuple[SymTriple, ...]:
    """All intersection points of the diagonal-direction curve with the
    section curve, by exhaustive search over rational angles.

    Any solution satisfies a congruence q*a = 0 (mod 1) with q <= 3, so its
    denominator is at most 3; the search bound leaves a wide margin.
    """
    return _diagonal_curve_hits(on_section_curve, max_denominator)


def enumerate_diagonal_fiber_boundary_intersections(
    max_denominator: int = 24,
) -> tuple[SymTriple, ...]:
    """All intersection points of the diagonal-direction curve with the
    fiber-boundary curve, by exhaustive search over rational angles."""
    return _diagonal_curve_hits(on_fiber_boundary_curve, max_denominator)


# --- randomized property suite ------------------------------------------------


@dataclass(frozen=True)
class FibrationReport:
    """Worst observed errors of the randomized bundle-structure checks."""

    samples: int
    seed: int
    roundtrip_tol: float
    fiber_tol: float
    max_roundtrip_error: float
    max_fiber_error: float
    boundary_mismatches: int
    section_intersections: int
    fiber_boundary_intersections: int

    @property
    def boundary_agreement(self) -> float:
        return 1.0 - self.boundary_mismatches / self.samples

    @property
    def all_passed(self) -> bool:
        return (
            self.max_roundtrip_error < self.roundtrip_tol
            and self.max_fiber_error < self.fiber_tol
            and self.boundary_mismatches == 0
            and self.section_intersections == 1
            and self.fiber_boundary_intersections == 2
        )


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
    fiber_tol: float = FIBER_TOL,
) -> FibrationReport:
    """Seeded random verification of the bundle structure.

    Checks, over uniform triangle samples (with a deterministic share of
    exact edge points): that the fiber parametrization lands on the fiber,
    that its inverse undoes it, and that the repeated-point locus is exactly
    the triangle boundary.  Exact curve intersections are recomputed as well.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    origin = CirclePoint(0.0)
    max_rt = 0.0
    max_fib = 0.0
    mismatches = 0
    for i in range(samples):
        p = _sample_simplex_point(rng, i)
        tr = t_map(p, tol=1e-6)
        max_fib = max(max_fib, theta(tr).distance_to(origin))
        # inversion itself runs at a loose tolerance; the measured errors are
        # compared against the requested thresholds in the report
        q = t_inverse(tr, tol=1e-6)
        max_rt = max(max_rt, abs(q.d1 - p.d1), abs(q.d2 - p.d2))
        if is_boundary_point(p, roundtrip_tol) != tr.has_repeated_point(roundtrip_tol):
            mismatches += 1
    return FibrationReport(
        samples=samples,
        seed=seed,
        roundtrip_tol=roundtrip_tol,
        fiber_tol=fiber_tol,
        max_roundtrip_error=max_rt,
        max_fiber_error=max_fib,
        boundary_mismatches=mismatches,
        section_intersections=len(enumerate_diagonal_section_intersections()),
        fiber_boundary_intersections=len(enumerate_diagonal_fiber_boundary_intersections()),
    )
