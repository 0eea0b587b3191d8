"""Golden transcripts: the exit code, stderr and stdout of ``msym`` commands,
run in process through ``cli.main`` and compared with ``golden/cli.json``.

Each entry of that file holds an argv from ``COMMANDS``, its exit code, its
stderr verbatim and its stdout: verbatim up to ``VERBATIM_MAX`` characters,
longer as its byte length and sha256.  An entry whose argv has ``--out``
also records the file written there, by the same rule.  The commands run in
order from a temporary directory, and the paths they name lie in its
subdirectory ``{tmp}``, so no output depends on where that directory is.
``{tmp}`` holds ``FILES`` and a file one byte above the size cap of
``homology --file`` before the first command; the ``homology --file``
commands read back what the ``export-model --out`` commands before them
wrote.

After an intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.  To run the same commands elsewhere, as a shell does,

    PYTHONPATH=src python tests/test_golden.py --commands DIR

fills the directory DIR as ``{tmp}`` is filled and prints one shell-quoted
argv per entry of the file, with ``{tmp}`` replaced by DIR.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from msym import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
VERBATIM_MAX = 2048

FILES = {
    "malformed.json": '{"cells": {"0": ["v"], "1": ["e"]}, "boundary": {"e": ["ghost"]}}',
    "not-json.json": '{"cells": ',
}

FORMATS = ("csv", "md", "json")


def _exports() -> list[list[str]]:
    """Every model exported to a file, at each small genus where it takes
    one, and each file read back by ``homology``."""
    models = [(name, g) for name in ("half", "Y", "B") for g in (0, 1, 3, 7)]
    models += [("sym2circle", None), ("sym3circle", None)]
    argvs = []
    for name, g in models:
        path = "{tmp}/" + (name if g is None else f"{name}-{g}") + ".json"
        genus = [] if g is None else ["--g", str(g)]
        argvs += [["export-model", "--name", name, *genus, "--out", path],
                  ["homology", "--file", path]]
    return argvs


COMMANDS: list[list[str]] = [
    *(["betti-sym", "--g", "2", "--n", "3", "--format", f] for f in FORMATS),
    *(["betti-sym", "--g", "2", "--n", "3", "--poly", "--format", f] for f in FORMATS),
    ["betti-sym", "--g", "40", "--n", "60", "--poly", "--format", "json"],
    ["betti-sym", "--g", "0", "--n", "0"],
    *(["real-betti", "--g", "3", "--n", "2", "--format", f] for f in FORMATS),
    *(["real-betti", "--g", "1", "--n", "3", "--format", f] for f in FORMATS),
    *(["check-m", "--g", "1", "--n", "2", "--format", f] for f in FORMATS),
    ["check-m", "--g", "2", "--n", "5"],
    ["check-m", "--g", "3", "--n", "4", "--format", "csv"],  # open range: a warning, exit 0
    # sweeps across the CW-model, open and bundle-formula ranges of n
    *(["check-m", "--sweep", "--gmax", "3", "--nmax", "5", "--format", f] for f in FORMATS),
    ["check-m", "--sweep", "--gmax", "6", "--nmax", "12", "--format", "csv"],
    *(["verify-fibration", "--samples", "200", "--seed", s, "--format", f]
      for s in ("0", "7") for f in FORMATS),
    ["verify-fibration", "--samples", "2", "--tol", "1e-20"],  # exit 1
    *_exports(),
    *(["homology", "--file", "{tmp}/B-3.json", "--format", f] for f in FORMATS),
    ["export-model", "--name", "sym2circle"],
    # exit 2, one case of each class
    ["homology", "--file", "{tmp}/malformed.json"],
    ["homology", "--file", "{tmp}/not-json.json"],
    ["homology", "--file", "{tmp}/missing.json"],
    ["homology", "--file", "{tmp}"],
    ["homology", "--file", "{tmp}/huge.json"],
    ["export-model", "--name", "sym2circle", "--out", "{tmp}/no-such-dir/out.json"],
    ["export-model", "--name", "half"],
    ["export-model", "--name", "sym3circle", "--g", "1"],
    ["export-model", "--name", "B", "--g", str(cli.MAX_MODEL_GENUS + 1)],
    ["real-betti", "--g", str(cli.MAX_MODEL_GENUS + 1), "--n", "3"],
    ["check-m", "--g", str(cli.MAX_MODEL_GENUS + 1), "--n", "2"],
    ["check-m", "--g", "1"],
    ["check-m", "--g", "1", "--n", "2", "--gmax", "3"],
    ["check-m", "--sweep", "--gmax", "3"],
    ["check-m", "--sweep", "--gmax", "3", "--nmax", "3", "--g", "1"],
    ["check-m", "--sweep", "--gmax", "-1", "--nmax", "3"],
    ["check-m", "--sweep", "--gmax", str(cli.MAX_SWEEP_GENUS + 1), "--nmax", "2"],
    ["check-m", "--sweep", "--gmax", "0", "--nmax", str(cli.MAX_SWEEP_ROWS + 2)],
    ["check-m", "--sweep", "--gmax", "100000", "--nmax", "100000"],
    ["betti-sym", "--g", "100000", "--n", "100000"],
    ["betti-sym", "--g", "1", "--n", str(cli.MAX_POLY_DEGREE // 2 + 1), "--poly"],
    ["verify-fibration", "--samples", "0"],
    ["verify-fibration", "--samples", str(cli.MAX_SAMPLES + 1)],
    ["verify-fibration", "--tol", "nan"],
    ["verify-fibration", "--tol", "5e-324"],
]


def _text(s: str):
    """``s`` itself if short, else its byte length and sha256."""
    if len(s) <= VERBATIM_MAX:
        return s
    data = s.encode()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _fill(tmp: Path) -> None:
    """Write ``FILES`` and a file one byte above the size cap into ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    for name, text in FILES.items():
        (tmp / name).write_text(text)
    with open(tmp / "huge.json", "w") as fh:
        fh.truncate(cli.MAX_FILE_BYTES + 1)  # sparse, so it takes no disk space


def transcripts(root: Path) -> list[dict]:
    """Run every command of ``COMMANDS`` from the empty directory ``root``
    and return its entries."""
    _fill(root / "{tmp}")
    entries, cwd = [], os.getcwd()
    os.chdir(root)
    try:
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            entry = {"argv": argv, "code": code, "stderr": err.getvalue(),
                     "stdout": _text(out.getvalue())}
            if "--out" in argv and code == 0:
                entry["out"] = _text(Path(argv[argv.index("--out") + 1]).read_text())
            entries.append(entry)
    finally:
        os.chdir(cwd)
    return entries


def test_cli_output_matches_the_golden_transcripts(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = transcripts(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in want], \
        "COMMANDS and golden/cli.json differ; regenerate the file"
    for g, w in zip(got, want):
        assert g == w, "msym " + " ".join(g["argv"])


if __name__ == "__main__" and sys.argv[1:2] == ["--commands"]:
    _fill(Path(sys.argv[2]))
    for entry in json.loads(GOLDEN.read_text()):
        print(shlex.join(arg.replace("{tmp}", sys.argv[2]) for arg in entry["argv"]))
elif __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = transcripts(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
