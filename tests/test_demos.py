"""Every demo runs to the end and prints what tests/golden/demos/ holds,
byte for byte; demo 07's check timings are masked as #.##s."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_all_demos_found():
    assert len(DEMOS) == 7
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    if path.stem == "07_dsl_and_checks":
        out = re.sub(r"\b\d+\.\d\ds\)", "#.##s)", out)
    assert out == (GOLDEN / (path.stem + ".txt")).read_text()
