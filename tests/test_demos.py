"""Every script under demos/ runs to completion, and README's quickstart gives
the values its comments show."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quickstart_gives_the_values_its_comments_show():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.DOTALL)[1]
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        value = comment.strip()
        if not value or value[0] not in "'0123456789":  # not a value the line gives
            exec(line, namespace)
            continue
        got = repr(eval(code, namespace))
        assert got.startswith(value[:-3]) if value.endswith("...") else got == value, line
        shown.append(value)
    assert shown == ["'CCO'", "'C2H6O'", "0.457..."]
