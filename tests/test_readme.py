"""The README's Library snippet runs as documented, from the repository root."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_snippet_runs(monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    names = {}
    exec(blocks[0], names)
    assert names["predictions"].shape == (len(names["test"]),)
