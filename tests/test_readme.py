"""The README's Python API section runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_blocks_run(capsys):
    """Each ``python`` block of the README's "Python API" section runs as
    written, in a fresh namespace, so a name the package no longer has
    cannot stay documented there."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, f"{README.name} (Python API)", "exec"), {})
    assert "# csmimo sweep result" in capsys.readouterr().out
