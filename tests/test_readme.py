"""The documented examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    header = (tmp_path / "spectrum.csv").read_text(encoding="utf-8").split("\n", 1)[0]
    assert header == "delta_p_hz,im_chi"
