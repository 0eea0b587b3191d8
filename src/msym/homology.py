"""Finite CW/chain complexes over the field with two elements.

A complex stores, per dimension, an ordered list of string cell identifiers,
and for every cell of positive dimension the *set* of faces that appear with
odd incidence (mod-2 boundaries carry no signs and no multiplicities).  The
boundary-of-boundary condition is checked at construction time, so every
value of :class:`ChainComplexF2` in circulation is a valid chain complex.

Betti numbers are computed by Gaussian elimination over GF(2) on bit-packed
boundary matrices: one arbitrary-precision Python integer per matrix row,
eliminated with word-level XOR.

Larger complexes are built with :func:`product` and :func:`glue`.
``glue(a, attachments)`` attaches a whole sequence of
``(la, b, lb, match, prefix)`` attachments to the base complex a: it checks
each match against a and validates the result once, so attaching g pieces
in one call costs time linear in the size of the result.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

BettiVector = tuple[int, ...]


class InvalidComplexError(ValueError):
    """The given cells/boundaries/labels do not form a valid complex."""


class InterfaceMismatch(ValueError):
    """A gluing map is not a chain isomorphism of the labeled subcomplexes."""


class CWFormatError(ValueError):
    """Malformed CW-complex JSON input."""


class EulerCharacteristicMismatch(ArithmeticError):
    """Betti numbers whose alternating sum is not the Euler characteristic;
    signals a bug in the rank computation, never bad input."""


# Highest cell dimension accepted from JSON.  Work and output grow with the
# top dimension, not with the number of cells, so it is bounded; the curated
# models reach dimension 3.
MAX_CELL_DIM = 64


class BitMatrixF2(object):
    """Dense matrix over GF(2); each row is one Python int used as a bitmask.

    Bit j of ``rows[i]`` is the (i, j) entry.  Rank is computed by reducing
    each row against a growing pivot basis keyed by leading bit; every
    reduction step is a single big-int XOR, so words of 64 columns are
    processed per machine operation.
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[int], ncols: int):
        self.rows = tuple(int(r) for r in rows)
        self.ncols = int(ncols)
        if self.ncols < 0:
            raise ValueError("ncols must be nonnegative")
        limit = 1 << self.ncols
        for i, r in enumerate(self.rows):
            if r < 0 or r >= limit:
                raise ValueError(f"row {i} does not fit in {self.ncols} columns")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def rank(self) -> int:
        basis: dict[int, int] = {}
        rank = 0
        for row in self.rows:
            while row:
                pivot = row.bit_length() - 1
                reducer = basis.get(pivot)
                if reducer is None:
                    basis[pivot] = row
                    rank += 1
                    break
                row ^= reducer
        return rank


class ChainComplexF2(object):
    """Immutable finite chain complex over GF(2) with labeled subcomplexes."""

    __slots__ = ("_cells", "_boundary", "_labels", "_dims")

    def __init__(
        self,
        cells: Mapping[int, Iterable[str]],
        boundary: Mapping[str, Iterable[str]],
        labels: Mapping[str, Iterable[str]] | None = None,
    ):
        by_dim: dict[int, tuple[str, ...]] = {}
        for dim, ids in cells.items():
            d = int(dim)
            if d < 0:
                raise InvalidComplexError(f"negative cell dimension {d}")
            by_dim[d] = tuple(str(i) for i in ids)
        top = max((d for d, ids in by_dim.items() if ids), default=-1)
        self._cells = {d: by_dim.get(d, ()) for d in range(top + 1)}

        dims: dict[str, int] = {}
        for d in range(top + 1):
            for cid in self._cells[d]:
                if not cid:
                    raise InvalidComplexError("empty cell identifier")
                if cid in dims:
                    raise InvalidComplexError(f'duplicate cell id "{cid}"')
                dims[cid] = d
        self._dims = dims

        bnd: dict[str, frozenset[str]] = {}
        for cid, faces in boundary.items():
            cid = str(cid)
            if cid not in dims:
                raise InvalidComplexError(f'boundary given for unknown cell "{cid}"')
            face_list = [str(f) for f in faces]
            face_set = frozenset(face_list)
            if len(face_set) != len(face_list):
                raise InvalidComplexError(
                    f'cell "{cid}": repeated face (mod-2 boundaries must be pre-reduced)'
                )
            d = dims[cid]
            if d == 0:
                if face_set:
                    raise InvalidComplexError(f'0-cell "{cid}" cannot have a boundary')
                continue
            for f in face_set:
                if f not in dims:
                    raise InvalidComplexError(f'cell "{cid}": unknown face "{f}"')
                if dims[f] != d - 1:
                    raise InvalidComplexError(
                        f'cell "{cid}": face "{f}" has dimension {dims[f]}, expected {d - 1}'
                    )
            bnd[cid] = face_set
        for d in range(1, top + 1):
            for cid in self._cells[d]:
                bnd.setdefault(cid, frozenset())
        self._boundary = bnd

        for cid, faces in bnd.items():
            if dims[cid] >= 2:
                acc: set[str] = set()
                for f in faces:
                    acc ^= bnd[f]
                if acc:
                    raise InvalidComplexError(
                        f'cell "{cid}": boundary of boundary is {sorted(acc)}, not zero'
                    )

        labs: dict[str, frozenset[str]] = {}
        for name, ids in (labels or {}).items():
            name = str(name)
            members = frozenset(str(i) for i in ids)
            for cid in members:
                if cid not in dims:
                    raise InvalidComplexError(f'label "{name}": unknown cell "{cid}"')
                if dims[cid] >= 1 and not bnd[cid] <= members:
                    raise InvalidComplexError(
                        f'label "{name}": not closed under boundary at cell "{cid}"'
                    )
            labs[name] = members
        self._labels = labs

    @property
    def dim(self) -> int:
        """Top cell dimension; -1 for the empty complex."""
        return len(self._cells) - 1

    def cells_of(self, dim: int) -> tuple[str, ...]:
        return self._cells.get(dim, ())

    def n_cells(self, dim: int) -> int:
        return len(self._cells.get(dim, ()))

    def all_cells(self):
        for d in range(self.dim + 1):
            for cid in self._cells[d]:
                yield d, cid

    def dim_of(self, cid: str) -> int:
        return self._dims[cid]

    def __contains__(self, cid: str) -> bool:
        return cid in self._dims

    def boundary_of(self, cid: str) -> frozenset[str]:
        if self._dims[cid] == 0:
            return frozenset()
        return self._boundary[cid]

    @property
    def labels(self) -> dict[str, frozenset[str]]:
        return dict(self._labels)

    def label(self, name: str) -> frozenset[str]:
        return self._labels[name]

    def __repr__(self) -> str:
        counts = [self.n_cells(d) for d in range(self.dim + 1)]
        return f"ChainComplexF2(cells={counts}, labels={sorted(self._labels)})"

    def to_json_obj(self) -> dict:
        cells = {str(d): list(self._cells[d]) for d in range(self.dim + 1)}
        bnd = {}
        for d in range(1, self.dim + 1):
            for cid in self._cells[d]:
                bnd[cid] = sorted(self._boundary[cid])
        labs = {name: sorted(self._labels[name]) for name in sorted(self._labels)}
        return {"cells": cells, "boundary": bnd, "labels": labs}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)

    @classmethod
    def from_json_obj(cls, obj) -> "ChainComplexF2":
        if not isinstance(obj, dict):
            raise CWFormatError("top level must be a JSON object")
        for key in obj:
            if key not in ("cells", "boundary", "labels"):
                raise CWFormatError(f'unknown top-level key "{key}"')
        cells_obj = obj.get("cells")
        if not isinstance(cells_obj, dict):
            raise CWFormatError('"cells" must be an object mapping dimension to id list')
        cells: dict[int, list[str]] = {}
        for dim_key, ids in cells_obj.items():
            if not isinstance(dim_key, str) or not (dim_key.isascii() and dim_key.isdigit()):
                raise CWFormatError(f'cell dimension key "{dim_key}" is not a nonnegative integer')
            digits = dim_key.lstrip("0") or "0"
            # the length test keeps int() away from strings of thousands of digits
            if len(digits) > len(str(MAX_CELL_DIM)) or int(digits) > MAX_CELL_DIM:
                raise CWFormatError(
                    f'cell dimension key "{dim_key}" is above the maximum dimension {MAX_CELL_DIM}'
                )
            dim = int(digits)
            if dim in cells:
                raise CWFormatError(f'cell dimension key "{dim_key}" repeats dimension {dim}')
            if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                raise CWFormatError(f'cell list for dimension {dim_key} must be a list of strings')
            cells[dim] = ids
        boundary_obj = obj.get("boundary", {})
        if not isinstance(boundary_obj, dict):
            raise CWFormatError('"boundary" must be an object mapping cell id to face list')
        for cid, faces in boundary_obj.items():
            if not isinstance(faces, list) or not all(isinstance(f, str) for f in faces):
                raise CWFormatError(f'cell "{cid}": face list must be a list of strings')
        labels_obj = obj.get("labels", {})
        if not isinstance(labels_obj, dict):
            raise CWFormatError('"labels" must be an object mapping label name to id list')
        for name, ids in labels_obj.items():
            if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                raise CWFormatError(f'label "{name}": member list must be a list of strings')
        try:
            return cls(cells, boundary_obj, labels_obj)
        except InvalidComplexError as exc:
            raise CWFormatError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "ChainComplexF2":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CWFormatError(f"invalid JSON: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # an integer longer than int() converts, or nesting deeper than
            # the decoder's recursion allows
            raise CWFormatError(f"JSON beyond the decoder's limits: {exc}") from exc
        return cls.from_json_obj(obj)


def boundary_matrix(c: ChainComplexF2, k: int) -> BitMatrixF2:
    """Matrix of the k-th boundary map; one bit row per k-cell."""
    faces = c.cells_of(k - 1)
    index = {f: i for i, f in enumerate(faces)}
    rows = []
    for cid in c.cells_of(k):
        mask = 0
        for f in c.boundary_of(cid):
            mask |= 1 << index[f]
        rows.append(mask)
    return BitMatrixF2(rows, len(faces))


def betti(c: ChainComplexF2) -> BettiVector:
    """Mod-2 Betti numbers b_0 .. b_top, via bit-packed matrix ranks.

    b_k = dim ker(d_k) - rank(d_{k+1}); in particular b_0 is the number of
    connected components.

    Every call checks that the alternating sum of the result equals
    :func:`euler_char` and raises :class:`EulerCharacteristicMismatch`
    otherwise.  With b_k computed from the ranks as above, the two differ by
    rank(d_0) + (-1)^top * rank(d_{top+1}), the ranks of the two matrices
    with no columns or no rows, so the check catches a rank that miscounts
    those.
    """
    top = c.dim
    if top < 0:
        return ()
    ranks = [boundary_matrix(c, k).rank() for k in range(top + 2)]
    b = tuple(c.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(top + 1))
    alternating = sum(b[0::2]) - sum(b[1::2])
    chi = euler_char(c)
    if alternating != chi:
        raise EulerCharacteristicMismatch(
            f"Betti numbers {b} have alternating sum {alternating}, "
            f"but the Euler characteristic is {chi}"
        )
    return b


def euler_char(c: ChainComplexF2) -> int:
    """Alternating sum of cell counts."""
    return sum((-1) ** d * c.n_cells(d) for d in range(c.dim + 1))


def is_nullhomologous(c: ChainComplexF2, dim: int, chain: Iterable[str]) -> bool:
    """Whether a cycle (set of dim-cells with zero mod-2 boundary) bounds."""
    members = set(str(x) for x in chain)
    index = {cid: i for i, cid in enumerate(c.cells_of(dim))}
    acc: set[str] = set()
    for cid in members:
        if cid not in index:
            raise ValueError(f'"{cid}" is not a {dim}-cell of the complex')
        if dim >= 1:
            acc ^= c.boundary_of(cid)
    if acc:
        raise ValueError(f"chain is not a cycle; boundary is {sorted(acc)}")
    vec = 0
    for cid in members:
        vec |= 1 << index[cid]
    mat = boundary_matrix(c, dim + 1)
    return BitMatrixF2(mat.rows + (vec,), mat.ncols).rank() == mat.rank()


def label_subcomplex(c: ChainComplexF2, name: str) -> ChainComplexF2:
    """The labeled subcomplex as a standalone complex (labels are dropped)."""
    members = c.label(name)
    cells: dict[int, list[str]] = {}
    bnd: dict[str, frozenset[str]] = {}
    for d, cid in c.all_cells():
        if cid in members:
            cells.setdefault(d, []).append(cid)
            if d >= 1:
                bnd[cid] = c.boundary_of(cid)
    return ChainComplexF2(cells, bnd)


def product(a: ChainComplexF2, b: ChainComplexF2) -> ChainComplexF2:
    """Cellwise product complex with the mod-2 Leibniz boundary.

    The product of cells s and t is the cell ``s*t`` of dimension
    dim(s) + dim(t) with boundary (ds)*t + s*(dt); signs vanish mod 2.
    A label on either factor induces the label (subcomplex x full factor)
    with the same name on the product.
    """
    cells: dict[int, list[str]] = {}
    bnd: dict[str, list[str]] = {}
    for da in range(a.dim + 1):
        for db in range(b.dim + 1):
            d = da + db
            for xa in a.cells_of(da):
                for xb in b.cells_of(db):
                    cid = f"{xa}*{xb}"
                    cells.setdefault(d, []).append(cid)
                    if d >= 1:
                        faces = [f"{fa}*{xb}" for fa in a.boundary_of(xa)]
                        faces += [f"{xa}*{fb}" for fb in b.boundary_of(xb)]
                        bnd[cid] = faces
    labs: dict[str, list[str]] = {}
    for name, members in a.labels.items():
        labs[name] = [f"{xa}*{xb}" for xa in members for _, xb in b.all_cells()]
    for name, members in b.labels.items():
        if name in labs:
            raise ValueError(f'label "{name}" exists on both factors; rename before taking products')
        labs[name] = [f"{xa}*{xb}" for _, xa in a.all_cells() for xb in members]
    return ChainComplexF2(cells, bnd, labs)


Attachment = tuple[str, ChainComplexF2, str, Mapping[str, str], str]


def _checked_match(
    a: ChainComplexF2, la: str, b: ChainComplexF2, lb: str, match: Mapping[str, str]
) -> dict[str, str]:
    """``match`` as a str dict, after checking that it is a chain isomorphism
    from b's label ``lb`` onto a's label ``la``."""
    if la not in a._labels:
        raise InterfaceMismatch(f'no label "{la}" on the base complex')
    if lb not in b._labels:
        raise InterfaceMismatch(f'no label "{lb}" on the attached complex')
    la_cells = a.label(la)
    lb_cells = b.label(lb)
    match = {str(k): str(v) for k, v in match.items()}
    if set(match) != set(lb_cells):
        raise InterfaceMismatch("match domain differs from the attached-side label")
    if set(match.values()) != set(la_cells) or len(set(match.values())) != len(match):
        raise InterfaceMismatch("match is not a bijection onto the base-side label")
    for src, dst in match.items():
        if b.dim_of(src) != a.dim_of(dst):
            raise InterfaceMismatch(f'match sends "{src}" to "{dst}" of different dimension')
    for src, dst in match.items():
        if b.dim_of(src) >= 1:
            image = {match[f] for f in b.boundary_of(src)}
            if image != set(a.boundary_of(dst)):
                raise InterfaceMismatch(
                    f'match does not commute with the boundary at cell "{src}"'
                )
    return match


def glue(a: ChainComplexF2, attachments: Iterable[Attachment]) -> ChainComplexF2:
    """Pushout of several complexes onto a, each along a chain isomorphism of
    labeled subcomplexes.

    Each attachment is a tuple ``(la, b, lb, match, prefix)``: ``match`` sends
    each cell of b's label ``lb`` to a cell of a's label ``la``; it must be a
    dimension- and boundary-preserving bijection, or :class:`InterfaceMismatch`
    naming ``prefix`` is raised.  Every match is checked against the base a,
    so an attachment cannot glue onto cells that another attachment brings.
    Cells of a keep their identifiers, the remaining cells of b get a
    ``prefix:`` namespace, and b's labels other than ``lb`` survive under the
    same namespace.  New cells follow a's cells in attachment order, and the
    result is validated once, whatever the number of attachments.
    """
    cells: dict[int, list[str]] = {d: list(a.cells_of(d)) for d in range(a.dim + 1)}
    bnd: dict[str, Iterable[str]] = dict(a._boundary)
    labs: dict[str, Iterable[str]] = dict(a._labels)
    existing = set(a._dims)
    for la, b, lb, match, prefix in attachments:
        try:
            match = _checked_match(a, la, b, lb, match)
        except InterfaceMismatch as exc:
            raise InterfaceMismatch(f'attachment "{prefix}": {exc}') from None
        new_id = dict(match)
        for d in range(b.dim + 1):
            for cid in b.cells_of(d):
                if cid in match:
                    continue
                new = new_id[cid] = f"{prefix}:{cid}"
                if new in existing:
                    raise ValueError(
                        f'attachment "{prefix}": cell id collision "{new}"; pick a different prefix'
                    )
                existing.add(new)
                cells.setdefault(d, []).append(new)
                if d >= 1:
                    bnd[new] = [new_id[f] for f in b.boundary_of(cid)]
        for name, members in b._labels.items():
            if name == lb:
                continue
            new_name = f"{prefix}:{name}"
            if new_name in labs:
                raise ValueError(
                    f'attachment "{prefix}": label name collision "{new_name}"; '
                    "pick a different prefix"
                )
            labs[new_name] = [new_id[cid] for cid in members]
    return ChainComplexF2(cells, bnd, labs)
