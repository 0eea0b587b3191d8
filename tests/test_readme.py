"""The README's Library example runs against the current API, and each of
its lines that ends in a literal comment (``expr  # 32``) evaluates to it."""

from __future__ import annotations

import ast
import re
from pathlib import Path

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
