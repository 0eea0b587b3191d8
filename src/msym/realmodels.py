"""Curated CW models for the real loci of second and third symmetric products.

The building blocks are deliberately tiny: circles and discs with one cell
per dimension, a Möbius band modelled as the mapping cylinder of the circle's
double cover, and a solid torus.  Each boundary circle that ever gets glued
is a two-cell subcomplex (one vertex, one loop edge), so gluing bijections
are canonical.

A real-locus decomposition stores each homeomorphism type once together with
its multiplicity; total Betti sums scale linearly with multiplicity.

The blocks that do not depend on the genus (circle, Möbius band, solid torus,
and their products: the tube, the 2-torus and the 3-torus) are built once per
process, on first use, and shared: complexes are immutable, and neither
``glue`` nor ``product`` mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterable

from .genfun import _check_genus
from .homology import BettiVector, ChainComplexF2, betti, glue, product


@cache
def _block_product(a: ChainComplexF2, b: ChainComplexF2) -> ChainComplexF2:
    """``product`` of two shared blocks, built once.  Complexes hash by
    identity, so any other argument would be kept alive for good."""
    return product(a, b)


def point(vertex: str = "pt") -> ChainComplexF2:
    return ChainComplexF2({0: [vertex]}, {})


@cache
def circle(vertex: str = "v", edge: str = "e") -> ChainComplexF2:
    """Circle with one vertex and one loop edge (empty mod-2 boundary)."""
    return ChainComplexF2({0: [vertex], 1: [edge]}, {edge: []})


def disc() -> ChainComplexF2:
    """Disc whose boundary circle is the labeled subcomplex ``boundary``."""
    return ChainComplexF2(
        {0: ["v"], 1: ["e"], 2: ["f"]},
        {"e": [], "f": ["e"]},
        {"boundary": ["v", "e"]},
    )


@dataclass(frozen=True)
class RealLocusDecomposition:
    """Disjoint-union decomposition of a real locus into named CW pieces."""

    pieces: tuple[tuple[str, ChainComplexF2, int], ...]

    def __post_init__(self):
        for name, _, mult in self.pieces:
            if mult < 1:
                raise ValueError(f'piece "{name}" has multiplicity {mult}')

    def betti_by_piece(self) -> tuple[tuple[str, int, BettiVector], ...]:
        return tuple((name, mult, betti(cw)) for name, cw, mult in self.pieces)


def betti_total(per_piece: Iterable[tuple[str, int, BettiVector]]) -> int:
    """Total mod-2 Betti sum of a decomposition from its per-piece Betti
    vectors, as :meth:`RealLocusDecomposition.betti_by_piece` returns them:
    each piece counts once per copy."""
    return sum(mult * sum(b) for _, mult, b in per_piece)


def build_half_surface(g: int) -> ChainComplexF2:
    """Sphere minus g+1 open discs, as a fundamental-polygon complex; one
    half of an M-curve minus its real circles.

    One 2-cell attached along the word r0 a1 r1 a1' a2 r2 a2' ... : each
    boundary loop appears once (odd), each connecting arc twice (even), so
    the mod-2 boundary of the face is the set of all boundary loops.  Betti
    vector (1, g, 0), Euler characteristic 1 - g.  The boundary circles are
    the labels ``C1`` .. ``C(g+1)``: ``C(i+1)`` is the vertex ``vi`` with the
    loop ``ri``.
    """
    g = _check_genus(g)
    verts = [f"v{i}" for i in range(g + 1)]
    rims = [f"r{i}" for i in range(g + 1)]
    arcs = [f"a{i}" for i in range(1, g + 1)]
    bnd: dict[str, list[str]] = {r: [] for r in rims}
    bnd.update({f"a{i}": ["v0", f"v{i}"] for i in range(1, g + 1)})
    bnd["f"] = list(rims)
    labels = {f"C{i + 1}": [f"v{i}", f"r{i}"] for i in range(g + 1)}
    return ChainComplexF2({0: verts, 1: rims + arcs, 2: ["f"]}, bnd, labels)


@cache
def build_sym2_circle() -> ChainComplexF2:
    """Unordered pairs of circle points: a Möbius band.

    Modelled as the mapping cylinder of the circle's double cover.  The
    boundary circle (pairs of equal points) carries the label ``diagonal``;
    it runs twice around the core circle, so its class dies in mod-2 H_1.
    """
    return ChainComplexF2(
        {0: ["bd_v", "core_v"], 1: ["bd_e", "core_e", "rung"], 2: ["sheet"]},
        {"bd_e": [], "core_e": [], "rung": ["bd_v", "core_v"], "sheet": ["bd_e"]},
        {"diagonal": ["bd_v", "bd_e"], "core": ["core_v", "core_e"]},
    )


@cache
def build_sym3_circle() -> ChainComplexF2:
    """Unordered triples of circle points: a solid torus.

    The boundary torus (triples with a repeated entry) carries three labels:
    ``fiber_boundary`` is the meridian circle, which bounds the 2-cell
    ``mdisc`` and is null-homologous; ``section`` is the longitude, a section
    of the product-of-entries bundle map, and generates H_1; ``torus`` is the
    whole boundary torus.
    """
    return ChainComplexF2(
        {0: ["pt"], 1: ["mer", "lon"], 2: ["tor", "mdisc"], 3: ["body"]},
        {"mer": [], "lon": [], "tor": [], "mdisc": ["mer"], "body": ["tor"]},
        {
            "fiber_boundary": ["pt", "mer"],
            "section": ["pt", "lon"],
            "torus": ["pt", "mer", "lon", "tor"],
        },
    )


def build_Y(g: int) -> ChainComplexF2:
    """Half surface with a Möbius band capping each boundary circle.

    This closed surface is the non-torus component of the real locus of the
    second symmetric product; Betti vector (1, g+1, 1).
    """
    g = _check_genus(g)
    band = build_sym2_circle()
    return glue(
        build_half_surface(g),
        [
            (f"C{i + 1}", band, "diagonal", {"bd_v": f"v{i}", "bd_e": f"r{i}"}, f"band{i + 1}")
            for i in range(g + 1)
        ],
    )


def build_B(g: int, *, glue_sym3: bool = True) -> ChainComplexF2:
    """Closed 3-manifold component of the real locus of the third symmetric
    product.

    Start from circle x half-surface, whose boundary is g+1 tori.  Glue a
    circle x Möbius tube to each of the last g tori (circle factors matched,
    Möbius boundary matched to the surface's boundary circle), then cap the
    first torus with the solid torus of circle triples: its meridian is
    matched to the surface-boundary direction and its longitude to the circle
    factor, realizing the required mod-2 homology classes of the interface
    curves.  With ``glue_sym3=False`` the cap is omitted (the intermediate
    space used to check that the tubes do not change first homology).
    """
    g = _check_genus(g)
    tube = _block_product(circle(), build_sym2_circle())
    attachments = [
        (
            f"C{j + 1}",
            tube,
            "diagonal",
            {"v*bd_v": f"v*v{j}", "e*bd_v": f"e*v{j}", "v*bd_e": f"v*r{j}", "e*bd_e": f"e*r{j}"},
            f"tube{j + 1}",
        )
        for j in range(1, g + 1)
    ]
    if glue_sym3:
        match = {"pt": "v*v0", "mer": "v*r0", "lon": "e*v0", "tor": "e*r0"}
        attachments.append(("C1", build_sym3_circle(), "torus", match, "cap"))
    return glue(product(circle(), build_half_surface(g)), attachments)


def real_sym2_decomposition(g: int) -> RealLocusDecomposition:
    """Real locus of the second symmetric product: one capped surface Y plus
    C(g+1, 2) tori (pairs of points on two distinct real circles)."""
    g = _check_genus(g)
    pieces: list[tuple[str, ChainComplexF2, int]] = [("Y", build_Y(g), 1)]
    tori = comb(g + 1, 2)
    if tori:
        pieces.append(("torus", _block_product(circle(), circle()), tori))
    return RealLocusDecomposition(pieces=tuple(pieces))


def real_sym3_decomposition(g: int) -> RealLocusDecomposition:
    """Real locus of the third symmetric product: C(g+1, 3) three-tori
    (points on three distinct real circles) plus g+1 copies of B."""
    g = _check_genus(g)
    pieces: list[tuple[str, ChainComplexF2, int]] = []
    tori = comb(g + 1, 3)
    if tori:
        pieces.append(("3-torus", _block_product(_block_product(circle(), circle()), circle()), tori))
    pieces.append(("B", build_B(g), g + 1))
    return RealLocusDecomposition(pieces=tuple(pieces))
