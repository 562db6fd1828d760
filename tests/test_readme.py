"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_python_examples_run_in_order(tmp_path, monkeypatch):
    blocks = python_blocks()
    assert blocks, "README.md has no python example"
    monkeypatch.chdir(tmp_path)  # anything an example writes lands here
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
