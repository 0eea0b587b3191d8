"""The public surface: ``msym.__all__`` lists every public name exactly once,
and it is exactly the names its readers use."""

from __future__ import annotations

import re
import types
from pathlib import Path

import msym

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    # the README's Library example
    "SimplexPoint", "betti", "betti_sum_sym", "build_B", "build_sym2_circle", "check", "glue",
    "poincare_sym", "t_map",
    # the complex type that the README's helpers build and bench/tests constructs
    "ChainComplexF2",
    # verdicts, methods and the report that carries them
    "BUNDLE_FORMULA", "CW_MODELS", "M_VARIETY", "STRICT_INEQUALITY", "UNSUPPORTED_RANGE",
    "MVarietyReport",
    # the errors a caller catches
    "CWFormatError", "InterfaceMismatch", "InvalidComplexError", "RangeError",
    "SmithViolationError", "VerificationError",
}


def test_all_has_no_duplicates():
    assert len(msym.__all__) == len(set(msym.__all__))


def test_all_is_exactly_the_public_names():
    public = {
        name
        for name, value in vars(msym).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(msym.__all__) == public == PUBLIC
    assert len(PUBLIC) == 22


def test_all_serves_its_readers():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    used = set(re.findall(r"\bmsym\.(\w+)", block))
    assert used and used <= set(msym.__all__)
    # what the benchmark's own tests import from the top-level namespace
    assert {"ChainComplexF2", "betti", "glue"} <= set(msym.__all__)


def test_retired_fibration_helpers_are_gone():
    for name in ("local_trivialization", "shift_lift", "unshift_lift", "CirclePoint"):
        assert not hasattr(msym, name)
        assert not hasattr(msym.fibration, name)
    for name in ("RealLocusDecomposition", "betti_total", "betti_by_piece", "disc", "point"):
        assert not hasattr(msym, name)
        assert not hasattr(msym.realmodels, name)
