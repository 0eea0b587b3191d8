"""The CLI contract as a property: every argv that argparse accepts, drawn
from the parser's own subcommands and flags, reaches ``main``, which returns
0, 1, 2 or 141; exit 2 prints nothing to stdout; exits 1 and 2 write exactly
one ``error:`` line and a clean run none; every other stderr line is a
``warning:``; and no output holds a traceback."""

from __future__ import annotations

import argparse
import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msym import cli
from msym.cli import (MAX_MODEL_GENUS, MAX_POLY_DEGREE, MAX_SAMPLES, MAX_SWEEP_GENUS,
                      MAX_SWEEP_ROWS)
from msym.realmodels import build_B

# Every value is text that argparse accepts for its flag's type, so each
# example reaches main's own handling.  Besides small sizes, the int flags
# take the values rejected before any work: -1, 0 and one above their cap.
# A cap itself is an accepted size that runs for seconds, so it is not drawn.
SMALL = ["-1", "0", "1", "2", "3", "4", "5"]
VALUES = {
    "--g": SMALL + [str(MAX_MODEL_GENUS + 1)],
    "--n": SMALL + [str(MAX_POLY_DEGREE // 2 + 1)],  # one above the --poly cap
    "--gmax": SMALL + [str(MAX_SWEEP_GENUS + 1)],
    "--nmax": SMALL + [str(MAX_SWEEP_ROWS + 2)],  # above the row cap at every --gmax >= 0
    "--samples": SMALL + [str(MAX_SAMPLES + 1)],
    "--seed": SMALL + [str(2**64)],
    "--tol": ["nan", "inf", "-1", "0", "5e-324", "1e-30", "1e-9", "0.5"],
    # {tmp} is the module's temporary directory
    "--file": ["{tmp}/valid.json", "{tmp}/malformed.json", "{tmp}/missing.json", "{tmp}",
               "/dev/null"],
    "--out": ["{tmp}/out.json", "{tmp}/no-such-dir/out.json", "{tmp}"],
}


def _subcommands() -> dict[str, list[argparse.Action]]:
    """Each subcommand of ``msym`` with its flags, as the parser defines them."""
    parser = cli._parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
            for name, sub in subparsers.choices.items()}


SUBCOMMANDS = _subcommands()


def _given(draw, action) -> list[str]:
    """The flag of ``action`` with a value from its choices or ``VALUES``."""
    flag = action.option_strings[0]
    if action.nargs == 0:  # a store_true switch
        return [flag]
    values = [str(c) for c in action.choices] if action.choices else VALUES[flag]
    return [flag, draw(st.sampled_from(values))]


@st.composite
def argvs(draw):
    """A subcommand with each required flag, then a list of optional flags in
    any order, where a flag may repeat."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    actions = SUBCOMMANDS[command]
    argv = [command]
    for action in actions:
        if action.required:
            argv += _given(draw, action)
    optional = [a for a in actions if not a.required]
    for action in draw(st.lists(st.sampled_from(optional), max_size=2 * len(optional))):
        argv += _given(draw, action)
    return argv


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "valid.json").write_text(build_B(2).to_json())
    (path / "malformed.json").write_text('{"cells": {"0": ["v"], "1": ["e"]}, '
                                         '"boundary": {"e": ["ghost"]}}')
    return path


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
def test_every_accepted_argv_keeps_the_cli_contract(tmp, argv):
    argv = [arg.format(tmp=tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 141)
    if code == 2:
        assert out == ""
    lines = err.splitlines()
    assert len([line for line in lines if line.startswith("error:")]) == (code in (1, 2))
    assert all(line.startswith(("error:", "warning:")) for line in lines)
    assert "Traceback" not in out and "Traceback" not in err
