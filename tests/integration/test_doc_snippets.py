"""The documentation's examples run.

Every fenced ``python`` block in ``README.md`` and ``docs/*.md`` whose
first line is an import is a self-contained example. Each runs in a
fresh interpreter with ``src`` on the path, from an empty working
directory; blocks that do not start with an import are fragments of
the surrounding prose and are not run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def snippets():
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = doc.read_text()
        for match in FENCE.finditer(text):
            code = match.group(1)
            if code.lstrip().startswith(("import ", "from ")):
                line = text.count("\n", 0, match.start()) + 1
                yield pytest.param(code, id=f"{doc.name}:{line}")


SNIPPETS = list(snippets())


def test_the_docs_hold_runnable_snippets():
    assert len(SNIPPETS) >= 4


@pytest.mark.parametrize("code", SNIPPETS)
def test_snippet_runs(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
