"""The Bethe survey (`tools/bethe_survey.py`) counts the palette search's
runs, converged runs, runs that leave the regular set and bracket vectors in
complex doubles, one line per (Q, N, M)."""

import importlib.util
from pathlib import Path

from tltau import bethe

ROOT = Path(__file__).resolve().parents[1]


def _load_survey():
    spec = importlib.util.spec_from_file_location("tools_bethe_survey",
                                                  ROOT / "tools" / "bethe_survey.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_counts_the_search_at_two_sizes(capsys):
    # (2, 2): 61 root sets, and the two starts that run off to |u^2| ~ 1e16
    # or 1e-7 plus one whose search ends on an irregular set stop there;
    # (2, 1): two roots, nine repeats and one irregular start
    survey = _load_survey()
    solve, brackets = bethe.solve_bethe, bethe._brackets
    assert survey.main(["bethe_survey.py", str(ROOT), "-2,2,2", "-2,2,1"]) == 0
    assert (bethe.solve_bethe, bethe._brackets) == (solve, brackets)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:7] for line in lines[:2]] == [
        ["-2", "2", "2", "64", "61", "3", "1842"],
        ["-2", "2", "1", "12", "2", "1", "186"],
    ]
    assert all(len(line[7]) == 40 for line in lines[:2])
    assert lines[2] == ["total", "76", "63", "4", "2028"]
    # six Q, and N M <= 12 keeps three M for N <= 4 and two for N = 5, 6
    assert len(survey.GRID) == 6 * (4 * 3 + 2 * 2)
