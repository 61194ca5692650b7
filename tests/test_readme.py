"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {"__name__": "readme"}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
    # one substudy: the exact bivariate solver, as the README states
    assert namespace["z_corr"].dim == 2
    assert namespace["threshold"].achieved_stderr == 0.0
    assert namespace["result"].n_star > 0
