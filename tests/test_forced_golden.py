"""``verify forced-vanishing --json`` keeps its exit status and output.

The suite replays the obstruction arguments on trial systems; its JSON
report (check names, verdicts and the residual witnesses) is compared
with ``tests/forced_golden.json``.  To rewrite the golden file after an
intended output change, run
``PYTHONPATH=src python tests/test_forced_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hopfpath.cli import main

GOLDEN = Path(__file__).resolve().parent / "forced_golden.json"

CASES = ((4, 2), (6, 3), (6, 2), (8, 4))


def run_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def case_argv(n, d):
    return ["verify", "forced-vanishing", "--n", str(n), "--d", str(d),
            "--json"]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_forced_vanishing_matches_the_golden_file(index):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == [case_argv(*c) for c in CASES]
    expected = golden[index]
    assert run_call(expected["argv"]) == expected


@pytest.mark.parametrize("n, d", ((9, 3), (12, 4)))
def test_residual_closed_forms_hold_off_the_golden_cases(n, d):
    # odd n and negative trial values, which the golden file does not
    # cover: every residual must still equal its closed form up to sign
    call = run_call(case_argv(n, d) + ["--trials", "3,-1,5"])
    assert call["exit"] == 0, call["stdout"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_call(case_argv(*c)) for c in CASES],
                                 indent=1) + "\n")
