"""Tests for the curated real-locus CW models."""

from __future__ import annotations

from math import comb

import pytest
from conftest import chained_B, chained_Y

from msym import (
    ChainComplexF2,
    RealLocusDecomposition,
    betti,
    betti_total,
    build_B,
    build_half_surface,
    build_sym2_circle,
    build_sym3_circle,
    build_Y,
    check,
    circle,
    closed_form_sym2,
    closed_form_sym3,
    euler_char,
    is_nullhomologous,
    label_subcomplex,
    product,
    real_sym2_decomposition,
    real_sym3_decomposition,
    realmodels,
)


# --- half surface ---------------------------------------------------------------


@pytest.mark.parametrize("g,expected", [(0, (1, 0, 0)), (1, (1, 1, 0)), (2, (1, 2, 0))])
def test_half_surface_betti(g, expected):
    surf = build_half_surface(g)
    assert betti(surf) == expected
    assert euler_char(surf) == 1 - g


def test_half_surface_boundary_circles():
    for g in range(5):
        surf = build_half_surface(g)
        assert set(surf.labels) == {f"C{i + 1}" for i in range(g + 1)}
        for lab in surf.labels:
            ring = label_subcomplex(surf, lab)
            assert ring.n_cells(0) == 1 and ring.n_cells(1) == 1
            assert betti(ring) == (1, 1)


def test_half_surface_is_connected():
    for g in range(5):
        assert betti(build_half_surface(g))[0] == 1


# --- circle pairs (Möbius band) ---------------------------------------------------


def test_sym2_circle_is_a_mobius_band():
    band = build_sym2_circle()
    assert betti(band) == (1, 1, 0)
    assert euler_char(band) == 0
    assert betti(label_subcomplex(band, "diagonal")) == (1, 1)


def test_sym2_circle_boundary_class_vanishes():
    band = build_sym2_circle()
    diag_edges = [c for c in band.label("diagonal") if band.dim_of(c) == 1]
    assert is_nullhomologous(band, 1, diag_edges)
    core_edges = [c for c in band.label("core") if band.dim_of(c) == 1]
    assert not is_nullhomologous(band, 1, core_edges)


# --- circle triples (solid torus) --------------------------------------------------


def test_sym3_circle_is_a_solid_torus():
    solid = build_sym3_circle()
    assert betti(solid) == (1, 1, 0, 0)
    assert euler_char(solid) == 0
    assert betti(label_subcomplex(solid, "torus")) == (1, 2, 1)


def test_sym3_circle_interface_classes():
    solid = build_sym3_circle()
    assert is_nullhomologous(solid, 1, ["mer"])  # fiber boundary dies
    assert not is_nullhomologous(solid, 1, ["lon"])  # section generates


# --- capped surface Y ---------------------------------------------------------------


@pytest.mark.parametrize("g", range(7))
def test_Y_betti(g):
    y = build_Y(g)
    b = betti(y)
    assert b == (1, g + 1, 1)
    assert sum(b) == 3 + g
    assert euler_char(y) == 1 - g


def test_Y_examples():
    assert betti(build_Y(0)) == (1, 1, 1)  # projective plane
    assert betti(build_Y(1)) == (1, 2, 1)  # Klein bottle
    assert sum(betti(build_Y(3))) == 6


def test_Y_consumes_all_gluing_interfaces():
    y = build_Y(2)
    assert not [name for name in y.labels if name.endswith("diagonal")]
    b = betti(y)
    assert b == tuple(reversed(b))


# --- the 3-manifold block B ----------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_B_structure(g):
    b = betti(build_B(g))
    assert b == (1, g + 1, g + 1, 1)
    assert b == tuple(reversed(b))
    assert sum(b) == 2 * (g + 2)
    assert euler_char(build_B(g)) == 0


def test_B_first_homology_matches_circle_times_half_surface():
    for g in range(1, 5):
        base = product(circle(), build_half_surface(g))
        assert betti(build_B(g))[1] == betti(base)[1] == g + 1


def test_B_intermediate_gluings_keep_first_homology():
    for g in range(1, 5):
        partial = betti(build_B(g, glue_sym3=False))
        assert partial[1] == g + 1


def test_B_examples():
    assert betti(build_B(1)) == (1, 2, 2, 1)
    assert sum(betti(build_B(2))) == 8
    assert betti(build_B(3)) == (1, 4, 4, 1)


def test_B_genus_zero_edge_case():
    # solid torus capped onto circle x disc: mod-2 homology of real
    # projective 3-space
    assert betti(build_B(0)) == (1, 1, 1, 1)


# --- decompositions -------------------------------------------------------------------


def test_sym2_decomposition_pieces():
    dec = real_sym2_decomposition(1)
    names = {name: mult for name, _, mult in dec.pieces}
    assert names == {"Y": 1, "torus": 1}
    assert betti_total(dec.betti_by_piece()) == 8

    only_y = real_sym2_decomposition(0)
    assert [name for name, _, _ in only_y.pieces] == ["Y"]
    assert betti_total(only_y.betti_by_piece()) == 3

    assert betti_total(real_sym2_decomposition(2).betti_by_piece()) == 17


def test_sym3_decomposition_pieces():
    dec = real_sym3_decomposition(1)
    names = {name: mult for name, _, mult in dec.pieces}
    assert names == {"B": 2}  # no three-torus below genus 2
    assert betti_total(dec.betti_by_piece()) == 12

    dec = real_sym3_decomposition(2)
    names = {name: mult for name, _, mult in dec.pieces}
    assert names == {"3-torus": 1, "B": 3}
    assert betti_total(dec.betti_by_piece()) == 8 + 24

    assert betti_total(real_sym3_decomposition(3).betti_by_piece()) == 4 * 8 + 4 * 10


def test_sym2_decomposition_matches_closed_form():
    for g in range(7):
        assert betti_total(real_sym2_decomposition(g).betti_by_piece()) == closed_form_sym2(g)


def test_sym3_decomposition_matches_closed_form():
    for g in range(1, 5):
        assert betti_total(real_sym3_decomposition(g).betti_by_piece()) == closed_form_sym3(g)


def test_decomposition_piece_formula():
    for g in range(1, 5):
        dec = real_sym3_decomposition(g)
        assert betti_total(dec.betti_by_piece()) == 8 * comb(g + 1, 3) + 2 * (g + 2) * (g + 1)


def test_decomposition_rejects_zero_multiplicity():
    with pytest.raises(ValueError, match="multiplicity"):
        RealLocusDecomposition(pieces=(("loop", circle(), 0),))


def test_betti_by_piece_reports_vectors():
    dec = real_sym2_decomposition(1)
    by_piece = dict((name, (mult, b)) for name, mult, b in dec.betti_by_piece())
    assert by_piece["Y"] == (1, (1, 2, 1))
    assert by_piece["torus"] == (1, (1, 2, 1))


# --- one-pass gluing -------------------------------------------------------------------


@pytest.mark.parametrize("g", [0, 1, 2, 5, 17, 256])
def test_models_match_chained_single_attachment_glue(g):
    assert build_Y(g).to_json() == chained_Y(g).to_json()
    assert build_B(g).to_json() == chained_B(g).to_json()
    assert build_B(g, glue_sym3=False).to_json() == chained_B(g, glue_sym3=False).to_json()


def test_curated_models_pass_the_full_validator():
    # product and glue check only the ids of what they build; the full
    # validator must accept it unchanged, with the same Betti numbers
    models = [(0, build_sym2_circle()), (0, build_sym3_circle())]
    for g in range(65):
        models += [
            (g, build_half_surface(g)),
            (g, build_Y(g)),
            (g, build_B(g)),
            (g, build_B(g, glue_sym3=False)),
        ]
    for g, m in models:
        text = m.to_json()
        back = ChainComplexF2.from_json(text)
        assert back.to_json() == text
        if g <= 8:
            assert betti(back) == betti(m), (g, m)


def test_large_model_survives_the_full_validator():
    text = build_B(1000).to_json()
    back = ChainComplexF2.from_json(text)
    assert back.to_json() == text
    assert betti(back) == (1, 1001, 1001, 1)


# --- shared genus-independent blocks -------------------------------------------------


def _shared_blocks():
    """Each genus-independent block as the models get it, with a copy built
    from scratch by the uncached builders."""
    fresh_circle, fresh_band = circle.__wrapped__(), build_sym2_circle.__wrapped__()
    fresh_torus = product(circle.__wrapped__(), circle.__wrapped__())
    torus = realmodels._block_product(circle(), circle())
    return [
        (circle(), fresh_circle),
        (build_sym2_circle(), fresh_band),
        (build_sym3_circle(), build_sym3_circle.__wrapped__()),
        (realmodels._block_product(circle(), build_sym2_circle()), product(fresh_circle, fresh_band)),
        (torus, fresh_torus),
        (realmodels._block_product(torus, circle()), product(fresh_torus, fresh_circle)),
    ]


def test_a_second_check_builds_no_genus_independent_block(monkeypatch):
    check(5, 3)
    inits, products = [], []
    real_init, real_product = ChainComplexF2.__init__, realmodels.product

    def counting_init(self, cells, *rest):
        inits.append(cells)
        real_init(self, cells, *rest)

    def counting_product(a, b):
        products.append((a, b))
        return real_product(a, b)

    monkeypatch.setattr(ChainComplexF2, "__init__", counting_init)
    monkeypatch.setattr(realmodels, "product", counting_product)
    assert check(5, 3).verdict == "M_VARIETY"
    # only what depends on g: the half surface, and circle x half surface
    assert len(inits) == 1 and inits[0][2] == ["f"]
    assert len(products) == 1 and products[0][0] is circle()


def test_shared_blocks_are_the_same_objects_every_time():
    assert circle() is circle()
    assert build_sym2_circle() is build_sym2_circle()
    assert build_sym3_circle() is build_sym3_circle()
    assert real_sym2_decomposition(3).pieces[1][1] is real_sym2_decomposition(4).pieces[1][1]
    assert real_sym3_decomposition(3).pieces[0][1] is real_sym3_decomposition(4).pieces[0][1]


@pytest.mark.parametrize("g", [0, 1, 7])
def test_building_models_leaves_the_shared_blocks_unchanged(g):
    build_B(g), build_Y(g), build_B(g, glue_sym3=False)
    real_sym2_decomposition(g).betti_by_piece()
    real_sym3_decomposition(g).betti_by_piece()
    for shared, fresh in _shared_blocks():
        assert shared.to_json() == fresh.to_json()
        assert betti(shared) == betti(fresh)


def test_check_runs_betti_once_per_piece(monkeypatch):
    calls = []
    real_betti = realmodels.betti

    def counting_betti(c):
        calls.append(c)
        return real_betti(c)

    monkeypatch.setattr(realmodels, "betti", counting_betti)
    report = check(7, 3)
    assert [name for name, _, _ in report.per_piece] == ["3-torus", "B"]
    assert len(calls) == 2
    assert calls[0] is realmodels._block_product(realmodels._block_product(circle(), circle()), circle())
