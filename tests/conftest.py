"""Shared fixtures: a zoo of curated models, refinement utilities, and
reference operations on complexes, matrices and generating functions that
only the tests use."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable

import pytest

from msym.fibration import FiberError, SimplexPoint
from msym.genfun import GradedPoly
from msym.homology import BitMatrixF2, ChainComplexF2, boundary_matrix, glue, product
from msym.realmodels import (
    build_B,
    build_half_surface,
    build_sym2_circle,
    build_sym3_circle,
    build_Y,
    circle,
)


def without_labels(c: ChainComplexF2) -> ChainComplexF2:
    """The same complex with every label removed (useful before products of
    a model with itself, where label names would collide)."""
    cells = {d: c.cells_of(d) for d in range(c.dim + 1)}
    bnd = {cid: c.boundary_of(cid) for d in range(1, c.dim + 1) for cid in c.cells_of(d)}
    return ChainComplexF2(cells, bnd)


def rename_cells(c: ChainComplexF2, fn: Callable[[str], str]) -> ChainComplexF2:
    """Apply an injective renaming to every cell identifier."""
    new_id = {cid: str(fn(cid)) for d in range(c.dim + 1) for cid in c.cells_of(d)}
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


def reference_fault(obj: dict) -> str | None:
    """Reference for the first fault ``ChainComplexF2.from_json_obj`` names
    in a well-typed CW object (dimension keys of digits; ids, faces and
    members strings), straight from the documented rules and in their order:

    1. ids, by dimension then in list order: an empty or a repeated id;
    2. boundary entries in input order: an unknown cell, a repeated face,
       faces of a 0-cell, then the first unknown or wrong-dimension face;
    3. boundary entries in input order: a nonzero boundary of the boundary;
    4. labels in input order, members in input order: an unknown member, or
       one whose faces are not all in the label.

    None when the object is a valid complex.
    """
    cells = obj["cells"]
    boundary = obj.get("boundary", {})
    labels = obj.get("labels", {})
    dim_of: dict[str, int] = {}
    for d in sorted(cells, key=int):
        for cid in cells[d]:
            if cid == "":
                return "empty cell identifier"
            if cid in dim_of:
                return f'duplicate cell id "{cid}"'
            dim_of[cid] = int(d)
    for cid, faces in boundary.items():
        if cid not in dim_of:
            return f'boundary given for unknown cell "{cid}"'
        if len(set(faces)) < len(faces):
            return f'cell "{cid}": repeated face (mod-2 boundaries must be pre-reduced)'
        d = dim_of[cid]
        if d == 0 and faces:
            return f'0-cell "{cid}" cannot have a boundary'
        for f in faces:
            if f not in dim_of:
                return f'cell "{cid}": unknown face "{f}"'
            if dim_of[f] != d - 1:
                return f'cell "{cid}": face "{f}" has dimension {dim_of[f]}, expected {d - 1}'
    for cid, faces in boundary.items():
        odd: set[str] = set()
        for f in faces:
            odd ^= set(boundary.get(f, []))
        if odd:
            return f'cell "{cid}": boundary of boundary is {sorted(odd)}, not zero'
    for name, members in labels.items():
        for cid in members:
            if cid not in dim_of:
                return f'label "{name}": unknown cell "{cid}"'
            if not set(boundary.get(cid, [])) <= set(members):
                return f'label "{name}": not closed under boundary at cell "{cid}"'
    return None


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


def reference_betti(c: ChainComplexF2) -> tuple[int, ...]:
    """Reference for ``betti``: every row of every boundary matrix ranked,
    with no rows cleared."""
    ranks = [boundary_matrix(c, k).rank() for k in range(c.dim + 2)]
    return tuple(c.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(c.dim + 1))


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
    Where c already has such ids (an expansion of an expansion), the
    suffixes get the first number that makes every new id fresh: s+dup1,
    s+bridge1, and so on.
    """
    cells: dict[int, list[str]] = {d: list(c.cells_of(d)) for d in range(c.dim + 1)}
    bnd: dict[str, list[str]] = {}
    for d in range(1, c.dim + 1):
        for cid in c.cells_of(d):
            bnd[cid] = list(c.boundary_of(cid))
    ids = {cid for d in range(c.dim + 1) for cid in c.cells_of(d)}
    r = 0
    while any(f"{cid}+dup{r or ''}" in ids or f"{cid}+bridge{r or ''}" in ids for cid in ids):
        r += 1
    for d in range(c.dim + 1):
        for cid in c.cells_of(d):
            dup = f"{cid}+dup{r or ''}"
            bridge = f"{cid}+bridge{r or ''}"
            cells.setdefault(d, []).append(dup)
            cells.setdefault(d + 1, []).append(bridge)
            if d >= 1:
                bnd[dup] = list(c.boundary_of(cid))
            bnd[bridge] = [cid, dup]
    return ChainComplexF2(cells, bnd, c.labels)


def point() -> ChainComplexF2:
    return ChainComplexF2({0: ["pt"]}, {})


def disc() -> ChainComplexF2:
    """Disc whose boundary circle is the labeled subcomplex ``boundary``."""
    return ChainComplexF2(
        {0: ["v"], 1: ["e"], 2: ["f"]},
        {"e": [], "f": ["e"]},
        {"boundary": ["v", "e"]},
    )


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
    one for the solid-torus cap.  With ``glue_sym3=False`` the cap is
    omitted: the intermediate space used to check that the tubes do not
    change first homology."""
    out = product(circle(), build_half_surface(g))
    for j in range(1, g + 1):
        tube = product(circle(), build_sym2_circle())
        match = {"v*bd_v": f"v*v{j}", "e*bd_v": f"e*v{j}", "v*bd_e": f"v*r{j}", "e*bd_e": f"e*r{j}"}
        out = glue(out, [(f"C{j + 1}", tube, "diagonal", match, f"tube{j + 1}")])
    if glue_sym3:
        match = {"pt": "v*v0", "mer": "v*r0", "lon": "e*v0", "tor": "e*r0"}
        out = glue(out, [("C1", build_sym3_circle(), "torus", match, "cap")])
    return out


def reference_poincare_sym(g: int, n: int) -> GradedPoly:
    """Reference for ``poincare_sym``: truncated series multiplication, adding
    C(2g,k) into degree k + 2b for every b <= n - k, O(g*n) big-int additions."""
    coeffs = [0] * (2 * n + 1)
    for k in range(min(2 * g, n) + 1):
        c = comb(2 * g, k)
        for b in range(n - k + 1):
            coeffs[k + 2 * b] += c
    return GradedPoly(tuple(coeffs))


def reference_betti_sum_sym(g: int, n: int) -> int:
    """Reference for ``betti_sum_sym``: every C(2g, k) computed from scratch."""
    return sum(comb(2 * g, k) * (n - k + 1) for k in range(min(2 * g, n) + 1))


def reference_circle_angle(s):
    """Reference for the angle ``SymTriple`` stores for s: ints and bools
    promoted to Fraction, then the generic reduction mod 1, with no fast
    path."""
    if type(s) is not float and isinstance(s, int):
        s = Fraction(s)
    if type(s) is not float and isinstance(s, Fraction):
        return s % 1
    y = s % 1.0
    return 0.0 if y >= 1.0 else y


def reference_circle_dist(x, y):
    """Reference for the distance of two angles along the circle."""
    d = reference_circle_angle(x - y)
    return min(d, 1 - d)


def reference_sorted_points(angles):
    """Reference for ``SymTriple(a, b, c).angles()``: the angles reduced by
    :func:`reference_circle_angle`, then sorted by insertion on strict <,
    which keeps ties in input order and places nan as the triple does."""
    a, b, c = map(reference_circle_angle, angles)
    if b < a:
        a, b = b, a
    if c < b:
        b, c = c, b
        if b < a:
            a, b = b, a
    return (a, b, c)


def reference_t_inverse(tr, *, tol=1e-12):
    """Reference for ``t_inverse``: the version that built all four shifted
    lifts of the sorted angles and then indexed the one for k."""
    lift = tr.angles()
    sigma = lift[0] + lift[1] + lift[2]
    th = reference_circle_angle(sigma)
    if not (reference_circle_dist(th, 0) <= tol):  # a nan angle sum fails too
        raise FiberError(f"triple with angle sum {th} is not on the fiber over 1")
    # sigma is exact iff all three angles are, and then so are d1 and d2
    exact = type(sigma) is not float and isinstance(sigma, Fraction)
    if exact:
        if sigma.denominator != 1:
            raise FiberError(f"exact triple has non-integral angle sum {sigma}")
        k = int(sigma)
    else:
        k = round(sigma)
    assert 0 <= k <= 3, "the angles of a triple lie in [0, 1)"
    s1, s2, s3 = lift
    lift = (lift, (s3 - 1, s1, s2), (s2 - 1, s3 - 1, s1), (s1 - 1, s2 - 1, s3 - 1))[k]
    d1 = lift[1] - lift[0]
    d2 = lift[2] - lift[1]
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
