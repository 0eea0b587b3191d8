"""The public surface: ``msym.__all__`` lists every public name exactly once."""

from __future__ import annotations

import types

import msym


def test_all_has_no_duplicates():
    assert len(msym.__all__) == len(set(msym.__all__))


def test_all_is_exactly_the_public_names():
    public = {
        name
        for name, value in vars(msym).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(msym.__all__) == public
    assert len(public) == 62


def test_retired_fibration_helpers_are_gone():
    for name in ("local_trivialization", "shift_lift", "unshift_lift"):
        assert not hasattr(msym, name)
        assert not hasattr(msym.fibration, name)
