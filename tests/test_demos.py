"""Every demo script runs to completion.

Each demo is copied to tmp_path first: two of them write next to
themselves, into out/, and the copy keeps the source tree clean.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
