"""The README's Library example runs against the current API, and each of
its lines that ends in a literal comment (``expr  # 32``) evaluates to it;
its Command line block runs through ``msym.cli.main``."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

from msym.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block, "no python block in the README's Library section"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    checked = 0
    for line in block.group(1).splitlines():
        expr, _, comment = line.partition("  # ")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, namespace) == value, line
        checked += 1
    assert checked >= 3


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Every ``msym ...`` line of the Command line block exits 0, and the
    ``# ->`` lines under a command are its stdout."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block, "no sh block in the README's Command line section"
    monkeypatch.chdir(tmp_path)
    assert main(["export-model", "--name", "B", "--g", "2", "--out", "complex.json"]) == 0
    commands: list = []  # [argv, expected stdout lines]
    for line in block.group(1).splitlines():
        if line.startswith("msym "):
            commands.append([shlex.split(line)[1:], []])
        elif line.startswith(("# -> ", "#    ")) and commands:
            commands[-1][1].append(line[5:])
    capsys.readouterr()
    for argv, expected in commands:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if expected:
            assert out == "".join(f"{x}\n" for x in expected), argv
    assert len(commands) >= 7 and any(expected for _, expected in commands)
