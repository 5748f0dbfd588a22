"""The README's Library example, run as written from the repository root."""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace: dict = {"__name__": "readme_library"}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].num_runs == namespace["sync"].num_runs == 100
    assert len(capsys.readouterr().out.split()) == 3
