"""Finite CW/chain complexes over the field with two elements.

A complex stores its cells by position: per dimension a tuple of ``str`` cell
ids, whose order gives each cell its position; per cell the distinct
positions, one dimension down, of its faces with odd incidence (mod-2
boundaries carry no signs and no multiplicities), a frozenset from the
validating constructor or a tuple from :func:`product` and :func:`glue`, and
only ever iterated; per label the (dimension, position) pairs of its members.
Ids and label names are used as given, never converted to ``str``, resolved
once, in the pass that checks them on construction, and read back only on
output.  The constructor checks the boundary of the boundary and the closure
of labels on positions, so every :class:`ChainComplexF2` in circulation is a
valid chain complex.

Betti numbers come from Gaussian elimination over GF(2) on boundary
matrices read off the stored positions, one Python int per row, with
clearing (Chen and Kerber, "Persistent homology computation with a twist",
EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and compress", 2014):
:func:`betti` ranks d_k from the top dimension down and leaves out the rows
of d_k that sit at the pivot columns of d_{k+1}, which reduce to zero.
:func:`product` and :func:`glue` compute the positions of their result
directly and, since valid inputs give a valid result, check only its ids;
``glue`` attaches many pieces in time linear in the result.
"""

from __future__ import annotations

import json
import operator
from itertools import chain, repeat
from typing import Collection, Container, Iterable, Mapping

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


def _sum(faces: tuple[Collection[int], ...], cells: Iterable[int]) -> set[int]:
    """Boundary of a chain: the face positions met an odd number of times
    among ``faces[i]`` for i in ``cells``."""
    odd: set[int] = set()
    for i in cells:
        odd.symmetric_difference_update(faces[i])
    return odd


class BitMatrixF2(object):
    """Dense matrix over GF(2); each row is one Python int used as a bitmask.

    Bit j of ``rows[i]`` is the (i, j) entry.  Rank is computed by reducing
    each row against a growing pivot basis keyed by leading bit; every
    reduction step is a single big-int XOR, so words of 64 columns are
    processed per machine operation.
    """

    __slots__ = ("rows", "ncols", "pivots")

    def __init__(self, rows: Iterable[int], ncols: int):
        self.rows = tuple(map(operator.index, rows))
        self.ncols = operator.index(ncols)
        if self.ncols < 0:
            raise ValueError("ncols must be nonnegative")
        limit = 1 << self.ncols
        if self.rows and (min(self.rows) < 0 or max(self.rows) >= limit):
            i = next(i for i, r in enumerate(self.rows) if r < 0 or r >= limit)
            raise ValueError(f"row {i} does not fit in {self.ncols} columns")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.ncols)

    def rank(self) -> int:
        """Rank.  Also sets ``pivots``, the frozenset of the leading bits of
        the reduced rows, one per unit of rank: the columns j such that some
        sum of rows has highest bit j.  A row that reduces to zero adds none."""
        basis: dict[int, int] = {}
        for row in self.rows:
            while row:
                pivot = row.bit_length() - 1
                reducer = basis.get(pivot)
                if reducer is None:
                    basis[pivot] = row
                    break
                row ^= reducer
        self.pivots = frozenset(basis)
        return len(basis)


class ChainComplexF2(object):
    """Immutable finite chain complex over GF(2) with labeled subcomplexes, built
    from ``int`` dimensions and ``str`` cell ids taken as given; of several faults,
    the first in input order is reported.  Stored, and nothing derived from them:
    ``_cells[d]``, the d-cell ids; ``_faces[d][i]``, the i-th d-cell's face positions,
    a frozenset or a tuple; ``_labels``, name -> set of (dimension, position) pairs."""

    __slots__ = ("_cells", "_faces", "_labels")

    def __init__(
        self,
        cells: Mapping[int, Iterable[str]],
        boundary: Mapping[str, Collection[str]],
        labels: Mapping[str, Collection[str]] | None = None,
    ):
        by_dim: dict[int, tuple[str, ...]] = {}
        for dim, ids in cells.items():
            d = operator.index(dim)
            if d < 0:
                raise InvalidComplexError(f"negative cell dimension {d}")
            by_dim[d] = tuple(ids)
        top = max((d for d, ids in by_dim.items() if ids), default=-1)
        dims = self._set_cells(tuple(by_dim.get(d, ()) for d in range(top + 1)))
        index = [dict(zip(ids, range(len(ids)))) for ids in self._cells]  # d-cell id -> position
        # lookups[d] finds a position among the (d - 1)-cells, or None; there are none for d = 0
        lookups = [{}.get] + [ix.get for ix in index]
        faces = [[frozenset()] * len(ids) for ids in self._cells]
        for cid, face_ids in boundary.items():
            d = dims.get(cid)
            if (d is None or None in (pos := frozenset(map(lookups[d], face_ids)))
                    or len(pos) != len(face_ids)):
                raise _boundary_fault(cid, d, face_ids, dims)
            faces[d][index[d][cid]] = pos
        self._faces = tuple(map(tuple, faces))

        bad = {self._cells[d][i]: odd for d in range(2, top + 1)
               for i, fs in enumerate(faces[d]) if (odd := _sum(faces[d - 1], fs))}
        if bad:  # every cell with faces has a boundary entry
            cid = next(filter(bad.__contains__, boundary))
            names = sorted(map(self._cells[dims[cid] - 2].__getitem__, bad[cid]))
            raise InvalidComplexError(f'cell "{cid}": boundary of boundary is {names}, not zero')

        self._labels = {}
        for name, ids in (labels or {}).items():
            try:
                label = frozenset((d := dims[c], index[d][c]) for c in ids)
            except KeyError:
                label = None
            if label is None or not label.issuperset([(d - 1, f) for d, i in label
                                                      if d for f in faces[d][i]]):
                members = {(d, index[d][c]) for c in ids if (d := dims.get(c)) is not None}
                for cid in ids:  # the first member that is unknown or has a face outside the label
                    d = dims.get(cid)
                    if d is None or not members.issuperset((d - 1, f) for f in faces[d][index[d][cid]]):
                        fault = "unknown" if d is None else "not closed under boundary at"
                        raise InvalidComplexError(f'label "{name}": {fault} cell "{cid}"')
                raise TypeError(f'label "{name}": the members must be a collection, not an iterator')
            self._labels[name] = label

    def _set_cells(self, cells: tuple[tuple[str, ...], ...]) -> dict[str, int]:
        """Store the cell ids, and return each id's dimension; raise on the
        first empty or repeated id."""
        dims: dict[str, int] = {}
        for d, ids in enumerate(cells):
            dims.update(zip(ids, repeat(d)))
        if len(dims) != sum(map(len, cells)) or "" in dims:
            seen: set[str] = set()  # the first empty id, or the first id seen before
            cid = next(c for c in chain.from_iterable(cells) if not c or c in seen or seen.add(c))
            raise InvalidComplexError(f'duplicate cell id "{cid}"' if cid else "empty cell identifier")
        self._cells = cells
        return dims

    @classmethod
    def _from_positions(cls, cells, faces, labels) -> "ChainComplexF2":
        """The complex that :func:`product` or :func:`glue` computed; only its
        ids are checked.  From valid complexes, the Leibniz rule and gluing
        along checked chain isomorphisms (an injective chain map of each
        attached complex) give a zero boundary of every boundary and labels
        closed under the boundary."""
        self = cls.__new__(cls)
        self._set_cells(cells)
        self._faces, self._labels = faces, labels
        return self

    @property
    def dim(self) -> int:
        """Top cell dimension; -1 for the empty complex."""
        return len(self._cells) - 1

    def cells_of(self, dim: int) -> tuple[str, ...]:
        return self._cells[dim] if 0 <= dim < len(self._cells) else ()

    def n_cells(self, dim: int) -> int:
        return len(self.cells_of(dim))

    def boundary_of(self, cid: str) -> frozenset[str]:
        for d, ids in enumerate(self._cells):
            if cid in ids:  # a 0-cell has no faces to look up
                return frozenset(map(self._cells[d - 1].__getitem__, self._faces[d][ids.index(cid)]))
        raise KeyError(cid)

    @property
    def labels(self) -> dict[str, frozenset[str]]:
        return {name: self.label(name) for name in self._labels}

    def label(self, name: str) -> frozenset[str]:
        return frozenset(self._cells[d][i] for d, i in self._labels[name])

    def __repr__(self) -> str:
        counts = [self.n_cells(d) for d in range(self.dim + 1)]
        return f"ChainComplexF2(cells={counts}, labels={sorted(self._labels)})"

    def to_json_obj(self) -> dict:
        cells = {str(d): list(ids) for d, ids in enumerate(self._cells)}
        bnd = {cid: sorted(map(self._cells[d - 1].__getitem__, fs))
               for d in range(1, self.dim + 1) for cid, fs in zip(self._cells[d], self._faces[d])}
        labs = {name: sorted(self.label(name)) for name in sorted(self._labels)}
        return {"cells": cells, "boundary": bnd, "labels": labs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

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
            _check_string_lists({dim_key: ids}, "cell list for dimension {} must be a list of strings")
            cells[dim] = ids
        boundary_obj = obj.get("boundary", {})
        if not isinstance(boundary_obj, dict):
            raise CWFormatError('"boundary" must be an object mapping cell id to face list')
        _check_string_lists(boundary_obj, 'cell "{}": face list must be a list of strings')
        labels_obj = obj.get("labels", {})
        if not isinstance(labels_obj, dict):
            raise CWFormatError('"labels" must be an object mapping label name to id list')
        _check_string_lists(labels_obj, 'label "{}": member list must be a list of strings')
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


def _boundary_fault(cid: str, d: int | None, face_ids, dims: Mapping[str, int]) -> InvalidComplexError:
    """The fault of a boundary entry that did not resolve: an unknown cell, a
    repeated face, faces of a 0-cell, or the first bad face, in that order."""
    if d is None:
        return InvalidComplexError(f'boundary given for unknown cell "{cid}"')
    if len(set(face_ids)) != len(face_ids):
        return InvalidComplexError(f'cell "{cid}": repeated face (mod-2 boundaries must be pre-reduced)')
    if d == 0:
        return InvalidComplexError(f'0-cell "{cid}" cannot have a boundary')
    f = next(f for f in face_ids if dims.get(f) != d - 1)
    if f not in dims:
        return InvalidComplexError(f'cell "{cid}": unknown face "{f}"')
    return InvalidComplexError(f'cell "{cid}": face "{f}" has dimension {dims[f]}, expected {d - 1}')


def _check_string_lists(mapping: dict, message: str) -> None:
    """Raise ``CWFormatError(message.format(key))`` for the first key whose
    value is not a list of strings; exact types, as JSON decodes them, skip
    the loop."""
    values = mapping.values()
    if {list}.issuperset(map(type, values)) and {str}.issuperset(map(type, chain.from_iterable(values))):
        return
    for key, ids in mapping.items():
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise CWFormatError(message.format(key))


def boundary_matrix(c: ChainComplexF2, k: int, skip: Container[int] = ()) -> BitMatrixF2:
    """Matrix of the k-th boundary map; one bit row per k-cell, in order,
    except the k-cells at the positions in ``skip``."""
    rows = c._faces[k] if 0 <= k <= c.dim else ()
    return BitMatrixF2([sum(map((1).__lshift__, fs)) for i, fs in enumerate(rows) if i not in skip],
                       c.n_cells(k - 1))


def betti(c: ChainComplexF2) -> BettiVector:
    """Mod-2 Betti numbers b_0 .. b_top, via bit-packed matrix ranks.

    b_k = dim ker(d_k) - rank(d_{k+1}); in particular b_0 is the number of
    connected components.

    The ranks are taken for k = top + 1 down to 0, and d_k is built without
    the rows of the k-cells at the pivots of d_{k+1} (clearing; see the
    module docstring).  This is exact: a pivot j of d_{k+1} is the highest
    bit of the boundary of some (k+1)-chain, since each reduced row is the
    original row plus earlier rows only, so cell j plus cells below j is a
    boundary.  As d_k d_{k+1} = 0 on every complex in circulation, row j of
    d_k is then a sum of the rows before it; it reduces to zero, and leaving
    it out changes neither the rank nor the pivots.

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
    ranks, cleared = [0] * (top + 2), ()
    for k in range(top + 1, -1, -1):
        m = boundary_matrix(c, k, cleared)
        ranks[k], cleared = m.rank(), m.pivots
        del m  # frees the rows of d_k before d_{k-1} is built
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
    index, members = {cid: i for i, cid in enumerate(c.cells_of(dim))}, []
    for cid in dict.fromkeys(chain):
        if cid not in index:
            raise ValueError(f'"{cid}" is not a {dim}-cell of the complex')
        members.append(index[cid])
    if dim >= 1 and (odd := _sum(c._faces[dim], members)):
        names = sorted(map(c._cells[dim - 1].__getitem__, odd))
        raise ValueError(f"chain is not a cycle; boundary is {names}")
    mat = boundary_matrix(c, dim + 1)
    vec = sum(map((1).__lshift__, members))
    return BitMatrixF2(mat.rows + (vec,), mat.ncols).rank() == mat.rank()


def label_subcomplex(c: ChainComplexF2, name: str) -> ChainComplexF2:
    """The labeled subcomplex as a standalone complex (labels are dropped)."""
    label, cells = c._labels[name], c._cells
    sub = {d: [cid for i, cid in enumerate(ids) if (d, i) in label] for d, ids in enumerate(cells)}
    return ChainComplexF2(sub, {cells[d][i]: [cells[d - 1][f] for f in c._faces[d][i]] for d, i in label})


def product(a: ChainComplexF2, b: ChainComplexF2) -> ChainComplexF2:
    """Cellwise product complex with the mod-2 Leibniz boundary.

    The product of cells s and t is the cell ``s*t`` of dimension
    dim(s) + dim(t) with boundary (ds)*t + s*(dt); signs vanish mod 2.
    A label on either factor induces the label (subcomplex x full factor)
    with the same name on the product.
    """
    for name in b._labels:
        if name in a._labels:
            raise ValueError(f'label "{name}" exists on both factors; rename before taking products')
    top = a.dim + b.dim if a.dim >= 0 and b.dim >= 0 else -1
    cells: list[list[str]] = [[] for _ in range(top + 1)]
    faces: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
    nb = [len(ys) for ys in b._cells]
    # dimension d holds blocks (da, d - da), da ascending; in block (da, db)
    # the cells i of a and j of b sit at start[da, db] + i * nb[db] + j
    start: dict[tuple[int, int], int] = {}
    for da, (xs, xfaces) in enumerate(zip(a._cells, a._faces)):
        for db, (ys, yfaces) in enumerate(zip(b._cells, b._faces)):
            d, o1, o2 = da + db, start.get((da - 1, db), 0), start.get((da, db - 1), 0)
            start[da, db] = len(cells[d])
            cells[d] += [f"{x}*{y}" for x in xs for y in ys]
            # faces in the blocks (da - 1, db) and (da, db - 1); 0-cells have none
            faces[d] += [tuple([o1 + f * nb[db] + j for f in xf] + [o2 + i * nb[db - 1] + f for f in yf])
                         for i, xf in enumerate(xfaces) for j, yf in enumerate(yfaces)]

    def lift(xs: Iterable[tuple[int, int]], ys: Iterable[tuple[int, int]]) -> frozenset:
        return frozenset((da + db, start[da, db] + i * nb[db] + j) for da, i in xs for db, j in ys)

    # every cell of one factor, needed only to lift the labels of the other
    every_a = [(d, i) for d, xs in enumerate(a._cells) for i in range(len(xs))] if b._labels else ()
    every_b = [(d, j) for d, ys in enumerate(b._cells) for j in range(len(ys))] if a._labels else ()
    labels = {name: lift(label, every_b) for name, label in a._labels.items()}
    labels.update((name, lift(every_a, label)) for name, label in b._labels.items())
    return ChainComplexF2._from_positions(tuple(map(tuple, cells)), tuple(map(tuple, faces)), labels)


def _checked_match(
    a: ChainComplexF2, la: str, b: ChainComplexF2, lb: str, match: Mapping[str, str]
) -> list[dict[int, int]]:
    """Per dimension of b, the map from the positions of b's label ``lb`` to
    positions in a, after checking that ``match`` is a chain isomorphism
    from that label onto a's label ``la``."""
    if la not in a._labels:
        raise InterfaceMismatch(f'no label "{la}" on the base complex')
    if lb not in b._labels:
        raise InterfaceMismatch(f'no label "{lb}" on the attached complex')
    src_at = {b._cells[d][i]: (d, i) for d, i in b._labels[lb]}
    dst_at = {a._cells[d][j]: (d, j) for d, j in a._labels[la]}
    if set(match) != src_at.keys():
        raise InterfaceMismatch("match domain differs from the attached-side label")
    targets = set(match.values())
    if targets != dst_at.keys() or len(targets) != len(match):
        raise InterfaceMismatch("match is not a bijection onto the base-side label")
    to_a: list[dict[int, int]] = [{} for _ in b._cells]
    for src, dst in match.items():
        (d, i), (e, j) = src_at[src], dst_at[dst]
        if d != e:
            raise InterfaceMismatch(f'match sends "{src}" to "{dst}" of different dimension')
        to_a[d][i] = j
    for src in match:
        d, i = src_at[src]  # a 0-cell has no faces to map
        if set(map(to_a[d - 1].__getitem__, b._faces[d][i])) != set(a._faces[d][to_a[d][i]]):
            raise InterfaceMismatch(f'match does not commute with the boundary at cell "{src}"')
    return to_a


def glue(a: ChainComplexF2,
         attachments: Iterable[tuple[str, ChainComplexF2, str, Mapping[str, str], str]]) -> ChainComplexF2:
    """Pushout of several complexes onto a, each along a chain isomorphism of
    labeled subcomplexes.

    Each attachment is a tuple ``(la, b, lb, match, prefix)``: ``match`` sends
    each cell of b's label ``lb`` to a cell of a's label ``la``; it must be a
    dimension- and boundary-preserving bijection, or :class:`InterfaceMismatch`
    naming ``prefix`` is raised.  Every match is checked against the base a,
    so an attachment cannot glue onto cells that another attachment brings.
    Cells of a keep their identifiers, the remaining cells of b get a
    ``prefix:`` namespace, and b's labels other than ``lb`` survive under the
    same namespace.  New cells follow a's cells in attachment order.
    """
    cells = [list(ids) for ids in a._cells]
    faces = [list(fs) for fs in a._faces]
    labels = dict(a._labels)
    existing = set(chain.from_iterable(a._cells))
    for la, b, lb, match, prefix in attachments:
        try:
            new_pos = _checked_match(a, la, b, lb, match)
        except InterfaceMismatch as exc:
            raise InterfaceMismatch(f'attachment "{prefix}": {exc}') from None
        cells += [[] for _ in range(len(cells), b.dim + 1)]
        faces += [[] for _ in range(len(faces), b.dim + 1)]
        for d, (ids, fs) in enumerate(zip(b._cells, b._faces)):
            to_new, below = new_pos[d], new_pos[d - 1].__getitem__  # 0-cells have no faces
            for i, cid in enumerate(ids):
                if i in to_new:
                    continue
                new = f"{prefix}:{cid}"
                if new in existing:
                    raise ValueError(
                        f'attachment "{prefix}": cell id collision "{new}"; pick a different prefix'
                    )
                existing.add(new)
                to_new[i] = len(cells[d])
                cells[d].append(new)
                faces[d].append(tuple(map(below, fs[i])))
        for name, label in b._labels.items():
            if name == lb:
                continue
            new_name = f"{prefix}:{name}"
            if new_name in labels:
                raise ValueError(
                    f'attachment "{prefix}": label name collision "{new_name}"; '
                    "pick a different prefix"
                )
            labels[new_name] = frozenset((d, new_pos[d][i]) for d, i in label)
    return ChainComplexF2._from_positions(tuple(map(tuple, cells)), tuple(map(tuple, faces)), labels)
