"""Shared fixtures: a zoo of curated models, refinement utilities, and
reference operations on complexes and matrices that only the tests use."""

from __future__ import annotations

from typing import Callable

import pytest

from msym import (
    BitMatrixF2,
    ChainComplexF2,
    build_B,
    build_half_surface,
    build_sym2_circle,
    build_sym3_circle,
    build_Y,
    circle,
    disc,
    glue,
    point,
    product,
)


def without_labels(c: ChainComplexF2) -> ChainComplexF2:
    """The same complex with every label removed (useful before products of
    a model with itself, where label names would collide)."""
    cells = {d: c.cells_of(d) for d in range(c.dim + 1)}
    bnd = {cid: c.boundary_of(cid) for d in range(1, c.dim + 1) for cid in c.cells_of(d)}
    return ChainComplexF2(cells, bnd)


def rename_cells(c: ChainComplexF2, fn: Callable[[str], str]) -> ChainComplexF2:
    """Apply an injective renaming to every cell identifier."""
    new_id = {cid: str(fn(cid)) for _, cid in c.all_cells()}
    if len(set(new_id.values())) != len(new_id):
        raise ValueError("renaming is not injective")
    cells = {d: [new_id[cid] for cid in c.cells_of(d)] for d in range(c.dim + 1)}
    bnd = {}
    for d in range(1, c.dim + 1):
        for cid in c.cells_of(d):
            bnd[new_id[cid]] = [new_id[f] for f in c.boundary_of(cid)]
    labs = {name: [new_id[cid] for cid in members] for name, members in c.labels.items()}
    return ChainComplexF2(cells, bnd, labs)


def disjoint_union(a: ChainComplexF2, b: ChainComplexF2) -> ChainComplexF2:
    """Disjoint union; cells and labels of the two sides get u0:/u1: prefixes."""
    cells: dict[int, list[str]] = {}
    bnd: dict[str, list[str]] = {}
    labs: dict[str, list[str]] = {}
    for prefix, side in (("u0", a), ("u1", b)):
        for d in range(side.dim + 1):
            cells.setdefault(d, []).extend(f"{prefix}:{cid}" for cid in side.cells_of(d))
            if d >= 1:
                for cid in side.cells_of(d):
                    bnd[f"{prefix}:{cid}"] = [f"{prefix}:{f}" for f in side.boundary_of(cid)]
        for name, members in side.labels.items():
            labs[f"{prefix}:{name}"] = [f"{prefix}:{cid}" for cid in members]
    return ChainComplexF2(cells, bnd, labs)


def transpose(m: BitMatrixF2) -> BitMatrixF2:
    """Transpose of a GF(2) bit matrix."""
    cols = [0] * m.ncols
    for i, row in enumerate(m.rows):
        bit = 1 << i
        while row:
            j = (row & -row).bit_length() - 1
            cols[j] |= bit
            row &= row - 1
    return BitMatrixF2(cols, len(m.rows))


def subdivided_circle(k: int) -> ChainComplexF2:
    """Circle cellulated with k vertices and k edges (k >= 1)."""
    verts = [f"p{i}" for i in range(k)]
    edges = [f"q{i}" for i in range(k)]
    bnd = {}
    for i in range(k):
        a, b = f"p{i}", f"p{(i + 1) % k}"
        bnd[f"q{i}"] = [] if a == b else [a, b]
    return ChainComplexF2({0: verts, 1: edges}, bnd)


def wide_mobius() -> ChainComplexF2:
    """Möbius band as a square with a flip identification; its boundary
    circle has two vertices and two edges (label ``rim``)."""
    return ChainComplexF2(
        {0: ["u", "w"], 1: ["seam", "top", "bot"], 2: ["sq"]},
        {"seam": ["u", "w"], "top": ["u", "w"], "bot": ["u", "w"], "sq": ["top", "bot"]},
        {"rim": ["u", "w", "top", "bot"]},
    )


def with_elementary_expansions(c: ChainComplexF2) -> ChainComplexF2:
    """Double every cell by an elementary expansion.

    For each cell s a copy s+dup with the same boundary is added, together
    with a bridge cell one dimension up whose boundary is {s, s+dup}; each
    such pair collapses away, so the result is homotopy equivalent to c.
    """
    cells: dict[int, list[str]] = {d: list(c.cells_of(d)) for d in range(c.dim + 1)}
    bnd: dict[str, list[str]] = {}
    for d in range(1, c.dim + 1):
        for cid in c.cells_of(d):
            bnd[cid] = list(c.boundary_of(cid))
    for d, cid in list(c.all_cells()):
        dup = f"{cid}+dup"
        bridge = f"{cid}+bridge"
        cells.setdefault(d, []).append(dup)
        cells.setdefault(d + 1, []).append(bridge)
        if d >= 1:
            bnd[dup] = list(c.boundary_of(cid))
        bnd[bridge] = [cid, dup]
    return ChainComplexF2(cells, bnd, c.labels)


def two_torus() -> ChainComplexF2:
    return product(circle(), circle())


def three_torus() -> ChainComplexF2:
    return product(product(circle(), circle()), circle())


def sphere() -> ChainComplexF2:
    cap = disc()
    return glue(cap, [("boundary", disc(), "boundary", {"v": "v", "e": "e"}, "cap")])


def klein_bottle() -> ChainComplexF2:
    band = build_sym2_circle()
    return glue(
        band,
        [("diagonal", build_sym2_circle(), "diagonal", {"bd_v": "bd_v", "bd_e": "bd_e"}, "other")],
    )


def chained_Y(g: int) -> ChainComplexF2:
    """Reference for ``build_Y``: one single-attachment glue per Möbius band,
    each validating the whole complex built so far."""
    out = build_half_surface(g)
    for i in range(g + 1):
        match = {"bd_v": f"v{i}", "bd_e": f"r{i}"}
        out = glue(out, [(f"C{i + 1}", build_sym2_circle(), "diagonal", match, f"band{i + 1}")])
    return out


def chained_B(g: int, *, glue_sym3: bool = True) -> ChainComplexF2:
    """Reference for ``build_B``: one single-attachment glue per tube, then
    one for the solid-torus cap."""
    out = product(circle(), build_half_surface(g))
    for j in range(1, g + 1):
        tube = product(circle(), build_sym2_circle())
        match = {"v*bd_v": f"v*v{j}", "e*bd_v": f"e*v{j}", "v*bd_e": f"v*r{j}", "e*bd_e": f"e*r{j}"}
        out = glue(out, [(f"C{j + 1}", tube, "diagonal", match, f"tube{j + 1}")])
    if glue_sym3:
        match = {"pt": "v*v0", "mer": "v*r0", "lon": "e*v0", "tor": "e*r0"}
        out = glue(out, [("C1", build_sym3_circle(), "torus", match, "cap")])
    return out


@pytest.fixture(scope="session")
def zoo() -> dict[str, ChainComplexF2]:
    return {
        "point": point(),
        "circle": circle(),
        "disc": disc(),
        "mobius": build_sym2_circle(),
        "solid_torus": build_sym3_circle(),
        "torus": two_torus(),
        "three_torus": three_torus(),
        "sphere": sphere(),
        "klein": klein_bottle(),
        "rp2": build_Y(0),
        "half2": build_half_surface(2),
        "Y2": build_Y(2),
        "B1": build_B(1),
    }
