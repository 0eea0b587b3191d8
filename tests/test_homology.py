"""Homology engine tests: betti oracles, operations, bit matrices, JSON."""

from __future__ import annotations

import json
import random
import sys

import pytest
from conftest import (
    disc,
    disjoint_union,
    klein_bottle,
    reference_betti,
    reference_fault,
    rename_cells,
    sphere,
    subdivided_circle,
    three_torus,
    transpose,
    two_torus,
    wide_mobius,
    with_elementary_expansions,
    without_labels,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from msym import homology
from msym.homology import (
    MAX_CELL_DIM,
    BitMatrixF2,
    ChainComplexF2,
    CWFormatError,
    EulerCharacteristicMismatch,
    InterfaceMismatch,
    InvalidComplexError,
    betti,
    boundary_matrix,
    euler_char,
    glue,
    is_nullhomologous,
    label_subcomplex,
    product,
)
from msym.realmodels import (
    build_B,
    build_half_surface,
    build_sym2_circle,
    build_sym3_circle,
    build_Y,
    circle,
)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def strip(b):
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    return tuple(b)


# --- betti oracles ------------------------------------------------------------


def test_known_betti_vectors(zoo):
    assert betti(zoo["point"]) == (1,)
    assert betti(zoo["circle"]) == (1, 1)
    assert betti(zoo["disc"]) == (1, 0, 0)
    assert betti(zoo["mobius"]) == (1, 1, 0)
    assert betti(zoo["torus"]) == (1, 2, 1)
    assert betti(zoo["klein"]) == (1, 2, 1)
    assert betti(zoo["rp2"]) == (1, 1, 1)
    assert betti(zoo["sphere"]) == (1, 0, 1)
    assert betti(zoo["solid_torus"]) == (1, 1, 0, 0)
    assert betti(zoo["three_torus"]) == (1, 3, 3, 1)


def test_minimal_sphere_with_empty_dimension():
    # one vertex plus one 2-cell with empty mod-2 boundary; no 1-cells at all
    cw = ChainComplexF2({0: ["v"], 2: ["f"]}, {"f": []})
    assert betti(cw) == (1, 0, 1)
    assert euler_char(cw) == 2


def test_b0_counts_components(zoo):
    c = disjoint_union(zoo["circle"], disjoint_union(zoo["torus"], zoo["point"]))
    assert betti(c)[0] == 3


def test_closed_surface_duality():
    # for closed surfaces b0 = b2 = 1 and b1 = 2 - euler characteristic
    models = [two_torus(), klein_bottle(), sphere()] + [build_Y(g) for g in range(5)]
    for cw in models:
        b = betti(cw)
        chi = euler_char(cw)
        assert b[0] == 1 and b[2] == 1
        assert b[1] == 2 - chi


# --- disjoint union -----------------------------------------------------------


def test_disjoint_union_examples(zoo):
    assert betti(disjoint_union(zoo["circle"], zoo["circle"])) == (2, 2)
    assert betti(disjoint_union(zoo["torus"], zoo["point"])) == (2, 2, 1)
    # componentwise-sum oracle
    left, right = build_Y(1), zoo["torus"]
    expected = tuple(x + y for x, y in zip(betti(left), betti(right)))
    assert betti(disjoint_union(left, right)) == expected == (2, 4, 2)


def test_disjoint_union_is_additive(zoo):
    names = sorted(zoo)
    for a, b in zip(names, names[2:]):
        ba, bb = betti(zoo[a]), betti(zoo[b])
        n = max(len(ba), len(bb))
        pad = lambda v: v + (0,) * (n - len(v))
        assert strip(betti(disjoint_union(zoo[a], zoo[b]))) == strip(
            tuple(x + y for x, y in zip(pad(ba), pad(bb)))
        )


# --- product ------------------------------------------------------------------


def test_product_examples(zoo):
    assert betti(product(circle(), circle())) == (1, 2, 1)
    # the band factor has a 2-cell, so the product complex reaches dimension 3
    assert betti(product(circle(), build_sym2_circle())) == (1, 2, 1, 0)
    assert betti(three_torus()) == (1, 3, 3, 1)


def test_product_satisfies_kunneth(zoo):
    names = sorted(zoo)
    for a in ("point", "circle", "mobius", "torus"):
        for b in names:
            got = betti(product(without_labels(zoo[a]), without_labels(zoo[b])))
            assert strip(got) == strip(convolve(betti(zoo[a]), betti(zoo[b]))), (a, b)


def test_product_inherits_labels():
    p = product(circle(), build_sym2_circle())
    assert set(p.labels) == {"diagonal", "core"}
    assert len(p.label("diagonal")) == 4  # torus: 2 circle cells x 2 rim cells
    assert betti(label_subcomplex(p, "diagonal")) == (1, 2, 1)


def test_product_label_collision_rejected():
    with pytest.raises(ValueError, match="both factors"):
        product(disc(), disc())


# --- gluing -------------------------------------------------------------------


def test_glue_two_discs_make_a_sphere():
    assert betti(sphere()) == (1, 0, 1)


def test_glue_two_mobius_bands_make_a_klein_bottle():
    assert betti(klein_bottle()) == (1, 2, 1)


def test_glue_mobius_caps_on_annulus_make_a_klein_bottle():
    out = build_half_surface(1)
    for i, lab in enumerate(("C1", "C2")):
        out = glue(
            out,
            [(lab, build_sym2_circle(), "diagonal", {"bd_v": f"v{i}", "bd_e": f"r{i}"}, f"cap{i}")],
        )
    assert betti(out) == (1, 2, 1)
    assert euler_char(out) == 0
    assert sum(betti(out)) == 4


def test_glue_euler_characteristic_formula():
    a = disc()
    b = build_sym2_circle()
    out = glue(a, [("boundary", b, "diagonal", {"bd_v": "v", "bd_e": "e"}, "band")])
    interface_chi = 0  # the shared circle
    assert euler_char(out) == euler_char(a) + euler_char(b) - interface_chi
    assert betti(out) == (1, 1, 1)


def test_glue_rejects_bad_interfaces():
    a, b = disc(), build_sym2_circle()
    with pytest.raises(InterfaceMismatch):
        glue(a, [("nope", b, "diagonal", {"bd_v": "v", "bd_e": "e"}, "glued")])
    with pytest.raises(InterfaceMismatch):
        glue(a, [("boundary", b, "nope", {"bd_v": "v", "bd_e": "e"}, "glued")])
    with pytest.raises(InterfaceMismatch):  # not covering the label
        glue(a, [("boundary", b, "diagonal", {"bd_v": "v"}, "glued")])
    with pytest.raises(InterfaceMismatch):  # dimension swap
        glue(a, [("boundary", b, "diagonal", {"bd_v": "e", "bd_e": "v"}, "glued")])
    with pytest.raises(InterfaceMismatch):  # not injective
        glue(a, [("boundary", b, "diagonal", {"bd_v": "v", "bd_e": "v"}, "glued")])


def test_glue_rejects_non_chain_map():
    # interfaces with two cells per dimension where the edge map breaks d
    a = ChainComplexF2(
        {0: ["x0", "x1"], 1: ["d0", "d1"]},
        {"d0": ["x0", "x1"], "d1": ["x0", "x1"]},
        {"rim": ["x0", "x1", "d0", "d1"]},
    )
    b = ChainComplexF2(
        {0: ["y0", "y1"], 1: ["e0", "e1"]},
        {"e0": ["y0", "y1"], "e1": []},
        {"rim": ["y0", "y1", "e0", "e1"]},
    )
    with pytest.raises(InterfaceMismatch, match="commute"):
        glue(a, [("rim", b, "rim", {"y0": "x0", "y1": "x1", "e0": "d0", "e1": "d1"}, "glued")])


def test_glue_names_the_failing_attachment():
    base = build_half_surface(2)
    band = build_sym2_circle()
    attachments = [
        ("C1", band, "diagonal", {"bd_v": "v0", "bd_e": "r0"}, "band1"),
        ("C2", band, "diagonal", {"bd_v": "r1", "bd_e": "v1"}, "band2"),  # dimension swap
        ("C3", band, "diagonal", {"bd_v": "v2", "bd_e": "r2"}, "band3"),
    ]
    with pytest.raises(InterfaceMismatch, match='attachment "band2": .*different dimension'):
        glue(base, attachments)
    attachments[1] = ("C2", band, "diagonal", {"bd_v": "v1", "bd_e": "r1"}, "band1")
    with pytest.raises(ValueError, match='attachment "band1": cell id collision'):
        glue(base, attachments)


def test_glue_keeps_base_ids_and_namespaces_attached_side():
    out = glue(disc(), [("boundary", build_sym2_circle(), "diagonal",
                         {"bd_v": "v", "bd_e": "e"}, "band")])
    ids = {cid for d in range(out.dim + 1) for cid in out.cells_of(d)}
    assert {"v", "e", "f"} <= ids
    assert "band:core_v" in ids and "band:sheet" in ids
    assert "band:core" in out.labels and "diagonal" not in out.labels


# --- euler characteristic -----------------------------------------------------


def test_euler_char_examples(zoo):
    assert euler_char(zoo["torus"]) == 0
    assert euler_char(build_half_surface(2)) == -1
    assert euler_char(zoo["solid_torus"]) == 0
    assert euler_char(zoo["rp2"]) == 1


def test_euler_char_equals_alternating_betti_sum(zoo):
    for name, cw in zoo.items():
        b = betti(cw)
        assert euler_char(cw) == sum((-1) ** k * x for k, x in enumerate(b)), name


def test_betti_raises_when_ranks_contradict_the_euler_characteristic(zoo, monkeypatch):
    # one too many on every matrix; the torus has top dimension 2, so the
    # matrices with no columns (d_0) and no rows (d_3) add 2 and chi is off
    real_rank = BitMatrixF2.rank
    monkeypatch.setattr(BitMatrixF2, "rank", lambda self: real_rank(self) + 1)
    with pytest.raises(EulerCharacteristicMismatch) as exc:
        betti(zoo["torus"])
    assert str(exc.value) == (
        "Betti numbers (-1, 0, -1) have alternating sum -2, but the Euler characteristic is 0"
    )


# --- bit matrices --------------------------------------------------------------


def test_bitmatrix_small_ranks():
    assert BitMatrixF2([], 5).rank() == 0
    assert BitMatrixF2([0, 0], 3).rank() == 0
    assert BitMatrixF2([1, 2, 4], 3).rank() == 3
    assert BitMatrixF2([3, 5, 6], 3).rank() == 2  # third row is the sum
    assert BitMatrixF2([7, 7, 7], 3).rank() == 1


def test_bitmatrix_rejects_out_of_range_rows():
    with pytest.raises(ValueError):
        BitMatrixF2([8], 3)
    with pytest.raises(ValueError):
        BitMatrixF2([-1], 3)


@pytest.mark.parametrize("rows,ncols", [([3.9, 1], 2), ([3, "1"], 2), ([3, 1], 2.5)])
def test_bitmatrix_rejects_non_integer_rows_and_width(rows, ncols):
    with pytest.raises(TypeError):  # not truncated or parsed
        BitMatrixF2(rows, ncols)


@pytest.mark.parametrize("nrows,ncols,seed", [(10, 17, 1), (64, 64, 2), (200, 100, 3), (600, 600, 4)])
def test_bitmatrix_rank_equals_transpose_rank(nrows, ncols, seed):
    rng = random.Random(seed)
    m = BitMatrixF2([rng.getrandbits(ncols) for _ in range(nrows)], ncols)
    r = m.rank()
    assert r <= min(nrows, ncols)
    assert transpose(m).rank() == r


def test_bitmatrix_rank_transpose_large():
    rng = random.Random(2024)
    n = 2000
    m = BitMatrixF2([rng.getrandbits(n) for _ in range(n)], n)
    assert m.rank() == transpose(m).rank()


def test_bitmatrix_rank_invariant_under_permutations():
    rng = random.Random(7)
    nrows, ncols = 60, 45
    rows = [rng.getrandbits(ncols) for _ in range(nrows)]
    base = BitMatrixF2(rows, ncols).rank()
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert BitMatrixF2(shuffled, ncols).rank() == base
    perm = list(range(ncols))
    rng.shuffle(perm)
    permuted = [sum(((r >> j) & 1) << perm[j] for j in range(ncols)) for r in rows]
    assert BitMatrixF2(permuted, ncols).rank() == base


# --- clearing -------------------------------------------------------------------


def _assert_cleared_rows_add_no_rank(c):
    """Every row of d_k at a pivot column of d_{k+1} adds no rank to the rows
    of d_k before it; the rows of d_k are reduced here, not by
    ``BitMatrixF2.rank``."""
    for k in range(c.dim + 1):
        up = boundary_matrix(c, k + 1)
        up.rank()
        basis: dict[int, int] = {}
        for i, row in enumerate(boundary_matrix(c, k).rows):
            while row and (lead := row.bit_length() - 1) in basis:
                row ^= basis[lead]
            if row:
                basis[lead] = row
            assert not row or i not in up.pivots, (k, i)


def _shuffled(c, rng):
    """The same complex with the cells of each dimension in a random order."""
    cells = {d: rng.sample(c.cells_of(d), c.n_cells(d)) for d in range(c.dim + 1)}
    return ChainComplexF2(cells, {cid: c.boundary_of(cid) for d in range(c.dim + 1) for cid in c.cells_of(d)}, c.labels)


def test_clearing_betti_matches_the_full_rank_reference_on_models(zoo):
    models = list(zoo.values())
    models += [build(g) for g in range(65) for build in (build_Y, build_B)]
    for c in models:
        assert betti(c) == reference_betti(c), c
        _assert_cleared_rows_add_no_rank(c)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 2), st.randoms(use_true_random=False))
def test_clearing_betti_matches_the_full_rank_reference_on_expansions(zoo, data, rounds, rng):
    c = zoo[data.draw(st.sampled_from(sorted(zoo)))]
    for _ in range(rounds):
        c = _shuffled(with_elementary_expansions(c), rng)
    assert betti(c) == reference_betti(c)
    _assert_cleared_rows_add_no_rank(c)


def test_betti_leaves_out_the_rows_at_the_pivots_one_dimension_up(zoo, monkeypatch):
    cases = [(c, [boundary_matrix(c, k).rank() for k in range(c.dim + 2)] + [0])
             for c in (build_B(5), zoo["torus"])]
    assert sum(cases[0][1]) > 0  # B(5) has rows to leave out
    built, ranked = [], []
    real_matrix, real_rank = homology.boundary_matrix, BitMatrixF2.rank

    def recording_matrix(c, k, *rest):
        m = real_matrix(c, k, *rest)
        built.append((k, m))
        return m

    monkeypatch.setattr(homology, "boundary_matrix", recording_matrix)
    monkeypatch.setattr(BitMatrixF2, "rank", lambda self: ranked.append(self) or real_rank(self))
    for c, full in cases:
        built.clear()
        ranked.clear()
        betti(c)
        # d_{top+1} down to d_0, each built once and ranked once
        assert [k for k, _ in built] == list(range(c.dim + 1, -1, -1))
        assert ranked == [m for _, m in built]
        for k, m in built:
            assert m.shape == (c.n_cells(k) - full[k + 1], c.n_cells(k - 1)), k


# --- invariance under renaming and refinement ----------------------------------


def test_betti_invariant_under_renaming(zoo):
    for name, cw in zoo.items():
        renamed = rename_cells(cw, lambda cid: f"X/{cid}/Y")
        assert betti(renamed) == betti(cw), name


def test_rename_requires_injectivity():
    with pytest.raises(ValueError):
        rename_cells(circle(), lambda cid: "same")


def test_betti_invariant_under_elementary_expansions(zoo):
    for name, cw in zoo.items():
        refined = with_elementary_expansions(cw)
        assert strip(betti(refined)) == strip(betti(cw)), name


def test_elementary_expansions_apply_to_their_own_output():
    c = circle()
    for rounds in range(1, 4):
        c = with_elementary_expansions(c)
        assert strip(betti(c)) == (1, 1), rounds
    assert c.n_cells(0) == 2 ** 3
    assert {"v+dup", "v+dup1", "v+dup+dup1", "v+dup2"} <= set(c.cells_of(0))


def test_alternative_cellulations():
    assert betti(subdivided_circle(1)) == (1, 1)
    assert betti(subdivided_circle(5)) == (1, 1)
    assert betti(product(subdivided_circle(2), subdivided_circle(3))) == (1, 2, 1)
    assert betti(wide_mobius()) == (1, 1, 0)
    fat_klein = glue(
        wide_mobius(),
        [("rim", wide_mobius(), "rim", {"u": "u", "w": "w", "top": "top", "bot": "bot"}, "other")],
    )
    assert betti(fat_klein) == (1, 2, 1)


# --- homology classes and subcomplexes -----------------------------------------


def test_nullhomologous_cycles():
    band = build_sym2_circle()
    assert is_nullhomologous(band, 1, ["bd_e"])  # rim runs twice around the core
    assert not is_nullhomologous(band, 1, ["core_e"])
    solid = build_sym3_circle()
    assert is_nullhomologous(solid, 1, ["mer"])
    assert not is_nullhomologous(solid, 1, ["lon"])


def test_nullhomologous_rejects_non_cycles():
    surf = build_half_surface(1)
    with pytest.raises(ValueError, match="not a cycle"):
        is_nullhomologous(surf, 1, ["a1"])
    with pytest.raises(ValueError, match="not a 1-cell"):
        is_nullhomologous(surf, 1, ["v0"])


def test_label_subcomplex():
    solid = build_sym3_circle()
    assert betti(label_subcomplex(solid, "torus")) == (1, 2, 1)
    assert betti(label_subcomplex(solid, "fiber_boundary")) == (1, 1)
    assert betti(label_subcomplex(solid, "section")) == (1, 1)


# --- construction validation ----------------------------------------------------


def test_construction_rejects_duplicate_ids():
    with pytest.raises(InvalidComplexError, match="duplicate"):
        ChainComplexF2({0: ["v", "v"]}, {})


def test_construction_rejects_unknown_face():
    with pytest.raises(InvalidComplexError, match='unknown face "w"'):
        ChainComplexF2({0: ["v"], 1: ["e"]}, {"e": ["w"]})


def test_construction_rejects_wrong_dimension_face():
    with pytest.raises(InvalidComplexError, match="dimension"):
        ChainComplexF2({0: ["v"], 1: ["e"], 2: ["f"]}, {"e": [], "f": ["v"]})


def test_construction_rejects_repeated_faces():
    with pytest.raises(InvalidComplexError, match="repeated face"):
        ChainComplexF2({0: ["u", "v"], 1: ["e"]}, {"e": ["u", "u"]})


def test_construction_rejects_nonzero_double_boundary():
    with pytest.raises(InvalidComplexError, match="boundary of boundary"):
        ChainComplexF2(
            {0: ["v"], 1: ["e"], 2: ["f"]},
            {"e": ["v"], "f": ["e"]},
        )


def test_construction_rejects_bad_labels():
    with pytest.raises(InvalidComplexError, match='label "L"'):
        ChainComplexF2({0: ["v"]}, {}, {"L": ["w"]})
    with pytest.raises(InvalidComplexError, match="not closed"):
        ChainComplexF2(
            {0: ["u", "v"], 1: ["e"]},
            {"e": ["u", "v"]},
            {"L": ["e", "u"]},
        )


def test_construction_takes_face_and_member_lists_as_collections_not_iterators():
    with pytest.raises(TypeError):
        ChainComplexF2({0: ["v"], 1: ["e"]}, {"e": iter(["v"])})
    with pytest.raises(TypeError, match='label "L": the members must be a collection, not an iterator'):
        ChainComplexF2({0: ["v"], 1: ["e"]}, {"e": ["v"]}, {"L": iter(["e"])})
    closed = ChainComplexF2({0: ["v"], 1: ["e"]}, {"e": ["v"]}, {"L": iter(["e", "v"])})
    assert closed.label("L") == {"e", "v"}


def test_construction_rejects_zero_cell_boundary():
    with pytest.raises(InvalidComplexError, match="0-cell"):
        ChainComplexF2({0: ["u", "v"]}, {"u": ["v"]})


def test_construction_rejects_negative_dimension():
    with pytest.raises(InvalidComplexError, match="negative"):
        ChainComplexF2({-1: ["v"]}, {})


# --- JSON round trip -------------------------------------------------------------


def test_json_round_trip(zoo):
    for name, cw in zoo.items():
        text = cw.to_json()
        back = ChainComplexF2.from_json(text)
        assert back.to_json() == text, name
        assert betti(back) == betti(cw), name


def test_json_parse_errors_name_the_cell():
    with pytest.raises(CWFormatError, match="invalid JSON"):
        ChainComplexF2.from_json("{not json")
    with pytest.raises(CWFormatError, match='"cells"'):
        ChainComplexF2.from_json('{"boundary": {}}')
    with pytest.raises(CWFormatError, match='unknown face "w"'):
        ChainComplexF2.from_json(
            '{"cells": {"0": ["v"], "1": ["e"]}, "boundary": {"e": ["w"]}}'
        )
    with pytest.raises(CWFormatError, match='"e"'):
        ChainComplexF2.from_json(
            '{"cells": {"0": ["u", "v"], "1": ["e"]}, "boundary": {"e": ["u", "u"]}}'
        )
    with pytest.raises(CWFormatError, match="dimension key"):
        ChainComplexF2.from_json('{"cells": {"x": ["v"]}, "boundary": {}}')
    with pytest.raises(CWFormatError, match="top-level"):
        ChainComplexF2.from_json('{"cells": {"0": ["v"]}, "boundary": {}, "junk": 1}')
    with pytest.raises(CWFormatError, match='label "L"'):
        ChainComplexF2.from_json(
            '{"cells": {"0": ["v"]}, "boundary": {}, "labels": {"L": ["w"]}}'
        )


# Inputs with two faults in different places, and the full error each one
# gets: the text, and which fault is reported first
TWO_FAULTS = {
    "unknown-face-beats-earlier-double-boundary": (
        {"cells": {"0": ["v"], "1": ["e", "x"], "2": ["f"]},
         "boundary": {"f": ["e"], "e": ["v"], "x": ["w"]}},
        'cell "x": unknown face "w"'),
    "double-boundary-in-input-order": (
        {"cells": {"0": ["u", "v"], "1": ["a", "b"], "2": ["f", "g"]},
         "boundary": {"g": ["a"], "f": ["b"], "a": ["u"], "b": ["v"]}},
        "cell \"g\": boundary of boundary is ['u'], not zero"),
    "open-label-beats-later-unknown-member": (
        {"cells": {"0": ["u", "v"], "1": ["e"]}, "boundary": {"e": ["u", "v"]},
         "labels": {"A": ["e", "u"], "B": ["zz"]}},
        'label "A": not closed under boundary at cell "e"'),
    "duplicate-id-beats-empty-id-above": (
        {"cells": {"2": [""], "1": ["e", "e"], "0": ["v"]}, "boundary": {}},
        'duplicate cell id "e"'),
    "label-type-beats-double-boundary": (
        {"cells": {"0": ["v"], "1": ["e"], "2": ["f"]}, "boundary": {"e": ["v"], "f": ["e"]},
         "labels": {"L": ["v", 1]}},
        'label "L": member list must be a list of strings'),
    "repeated-face-beats-later-unknown-face": (
        {"cells": {"0": ["u", "v"], "1": ["e", "d"]}, "boundary": {"e": ["u", "u"], "d": ["w"]}},
        'cell "e": repeated face (mod-2 boundaries must be pre-reduced)'),
    "zero-cell-boundary-beats-unknown-cell": (
        {"cells": {"0": ["v", "w"]}, "boundary": {"v": ["w"], "q": []}},
        '0-cell "v" cannot have a boundary'),
    "wrong-dimension-beats-later-unknown-face": (
        {"cells": {"0": ["v"], "1": ["e"], "2": ["f", "g"]},
         "boundary": {"e": [], "f": ["v"], "g": ["zz"]}},
        'cell "f": face "v" has dimension 0, expected 1'),
    "face-type-beats-later-bad-face-list": (
        {"cells": {"0": ["v"], "1": ["e"]}, "boundary": {"e": ["v", None], "v": "w"}},
        'cell "e": face list must be a list of strings'),
}


@pytest.mark.parametrize("name", sorted(TWO_FAULTS))
def test_two_fault_inputs_keep_their_first_error_word_for_word(name):
    obj, error = TWO_FAULTS[name]
    with pytest.raises(CWFormatError) as exc:
        ChainComplexF2.from_json(json.dumps(obj))
    assert str(exc.value) == error


@pytest.mark.parametrize("key", ["\u00b2", "\u0663", "1\u00b9"])
def test_json_rejects_non_ascii_digit_dimension_keys(key):
    text = json.dumps({"cells": {"0": ["v"], key: ["x"]}})
    with pytest.raises(CWFormatError, match=f'dimension key "{key}" is not a nonnegative integer'):
        ChainComplexF2.from_json(text)


@pytest.mark.parametrize("key", ["300000", str(MAX_CELL_DIM + 1), "9" * 5000, "0" * 5000 + "65"])
def test_json_rejects_dimensions_above_the_cap(key):
    text = json.dumps({"cells": {"0": ["v"], key: ["x"]}})
    with pytest.raises(CWFormatError, match=f'"{key}" is above the maximum dimension {MAX_CELL_DIM}'):
        ChainComplexF2.from_json(text)


def test_json_accepts_dimensions_up_to_the_cap():
    assert MAX_CELL_DIM >= 16  # well above the curated models and the benchmark files
    for key, dim in ((str(MAX_CELL_DIM), MAX_CELL_DIM), ("0" * 5000 + "2", 2)):
        cw = ChainComplexF2.from_json(json.dumps({"cells": {"0": ["v"], key: ["x"]}}))
        assert cw.dim == dim and betti(cw)[-1] == 1


def test_json_rejects_two_keys_for_one_dimension():
    text = '{"cells": {"0": ["v"], "1": ["a"], "01": ["b"]}}'
    with pytest.raises(CWFormatError, match='"01" repeats dimension 1'):
        ChainComplexF2.from_json(text)


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"cells": ' * 200_000,
    '{"cells": {"0": [' + "1" * 5000 + "]}}",
], ids=["deep-array", "deep-object", "long-integer"])
def test_json_beyond_the_decoder_limits_is_a_format_error(text):
    with pytest.raises(CWFormatError, match="beyond the decoder's limits"):
        ChainComplexF2.from_json(text)


_IDS = st.sampled_from(["v", "w", "e", "f", "t"])
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _IDS | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_IDS | st.text(max_size=3), kids, max_size=3),
    max_leaves=12,
)
_ID_LISTS = st.lists(_IDS, max_size=4) | _ANY_JSON
_CW_SHAPED = st.fixed_dictionaries({}, optional={
    "cells": st.dictionaries(
        st.sampled_from(["0", "1", "2", "3", "01", "-1", "x", str(MAX_CELL_DIM + 1)]),
        _ID_LISTS, max_size=4,
    ) | _ANY_JSON,
    "boundary": st.dictionaries(_IDS, _ID_LISTS, max_size=5) | _ANY_JSON,
    "labels": st.dictionaries(st.text(max_size=2), _ID_LISTS, max_size=2) | _ANY_JSON,
    "junk": _ANY_JSON,
})


def _faces(*ids):
    return st.lists(st.sampled_from(ids), unique=True)


# a two-vertex, two-edge, one-face complex with random boundaries and labels:
# valid often enough that the accepting path is fuzzed as well
_NEAR_VALID = st.fixed_dictionaries({
    "cells": st.just({"0": ["v", "w"], "1": ["e", "f"], "2": ["t"]}),
    "boundary": st.fixed_dictionaries({
        "e": _faces("v", "w"), "f": _faces("v", "w"), "t": _faces("e", "f"),
    }),
    "labels": st.dictionaries(st.sampled_from(["L", "M"]), _faces("v", "w", "e", "t"), max_size=2),
})
# nesting far past the recursion limit, and integers past int()'s digit limit
_BEYOND_LIMITS = st.builds(
    lambda opener, depth: opener * depth,
    st.sampled_from(["[", '{"cells": ', '{"cells": {"0": ']),
    st.integers(sys.getrecursionlimit(), 100_000),
) | st.builds(lambda k: '{"cells": {"0": [' + "7" * k + "]}}", st.integers(4301, 6000))


@settings(max_examples=250, deadline=None)
@given(st.one_of(_NEAR_VALID.map(json.dumps), _CW_SHAPED.map(json.dumps),
                 _ANY_JSON.map(json.dumps), _BEYOND_LIMITS, st.text(max_size=20)))
def test_from_json_parses_or_raises_only_cw_format_error(text):
    try:
        cw = ChainComplexF2.from_json(text)
    except CWFormatError:
        return
    assert ChainComplexF2.from_json(cw.to_json()).to_json_obj() == cw.to_json_obj()


# ids each dimension may hold; strays ("", an unknown id, an id of any
# dimension, repeats) are shuffled into a cell list, a face list, the
# boundary keys or a label now and then
_DIM_IDS = (["v", "w", "x"], ["a", "b", "c"], ["s", "t"], ["u"])
_STRAY = st.sampled_from([c for ids in _DIM_IDS for c in ids] + ["", "zz"])


def _with_strays(draw, ids: list, one_in: int) -> list:
    """``ids``, or in roughly one draw of ``one_in`` ``ids`` with one to
    three strays shuffled in."""
    if draw(st.integers(1, one_in)) > 1:
        return ids
    return draw(st.permutations(ids + draw(st.lists(_STRAY, min_size=1, max_size=3))))


@st.composite
def _near_valid_complexes(draw) -> dict:
    """A CW object of dimension at most 3, with cells in every dimension and
    random boundaries and labels: faces one dimension down and distinct,
    labels often closed under the boundary, except for the strays.  About
    half are valid, and many of the rest have several faults."""
    cells = {}
    for d in draw(st.permutations(range(draw(st.integers(0, 3)) + 1))):
        ids = draw(st.lists(st.sampled_from(_DIM_IDS[d]), min_size=1, unique=True))
        cells[str(d)] = _with_strays(draw, ids, 30)
    dim_of = {cid: int(d) for d, ids in cells.items() for cid in ids}
    boundary = {}
    for cid in _with_strays(draw, sorted(dim_of), 20):
        below = cells.get(str(dim_of.get(cid, 0) - 1), [])
        if draw(st.booleans()):
            faces = draw(st.lists(st.sampled_from(below), unique=True, max_size=3)) if below else []
            boundary[cid] = _with_strays(draw, faces, 20)
    labels = {}
    for name in draw(st.lists(st.sampled_from(["L", "M"]), unique=True, max_size=2)):
        members = draw(st.lists(st.sampled_from(sorted(dim_of)), max_size=4)) if dim_of else []
        if draw(st.booleans()):  # close it under the boundary as given
            i = 0
            while i < len(members):
                members += [f for f in boundary.get(members[i], []) if f not in members]
                i += 1
        labels[name] = _with_strays(draw, members, 10)
    return {"cells": cells, "boundary": boundary, "labels": labels}


@settings(max_examples=500, deadline=None)
@given(_near_valid_complexes())
def test_from_json_names_the_first_fault_that_the_plain_reference_names(obj):
    expected = reference_fault(obj)
    try:
        ChainComplexF2.from_json(json.dumps(obj))
    except CWFormatError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_double_boundary_is_zero_everywhere(zoo):
    # recompute d(d(cell)) from the stored face sets, independently of the
    # constructor's own validation
    models = dict(zoo)
    models["B2"] = product(zoo["circle"], zoo["mobius"])
    for name, cw in models.items():
        for d in range(2, cw.dim + 1):
            for cid in cw.cells_of(d):
                acc: set[str] = set()
                for f in cw.boundary_of(cid):
                    acc ^= cw.boundary_of(f)
                assert not acc, (name, cid)
