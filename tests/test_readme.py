"""The README's "Library use" example runs as written, so a name that
leaves the package cannot linger in the docs."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_example() -> str:
    """The one Python block of the README's "Library use" section."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_use_example_runs(capsys):
    exec(compile(library_use_example(), f"{README} (Library use)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1].startswith("EvalRecord(")
