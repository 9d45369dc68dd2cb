"""``verify degeneration --json`` keeps its exit status and output.

Every descriptor and weight bound of criterion 08 is run through the
CLI, and the JSON report (the check name with its pair count, the
verdict and any witness) is compared with
``tests/degeneration_golden.json``.  To rewrite the golden file after an
intended output change, run
``PYTHONPATH=src python tests/test_degeneration_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hopfpath import descriptor_to_dict
from hopfpath.cli import main

from test_acceptance import _degeneration_descriptors, _hopf_bound

GOLDEN = Path(__file__).resolve().parent / "degeneration_golden.json"

# descriptor_to_dict key -> verify option
_OPTIONS = {"n": "--n", "qOrder": "--q-order", "qPower": "--q-power",
            "q": "--q", "lambda": "--lambda", "mu": "--mu"}


def run_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def case_argv(desc):
    """The verify call for ``desc`` at criterion 08's bound, in the
    descriptor's own cyclotomic field."""
    data = descriptor_to_dict(desc)
    argv = ["verify", "degeneration", "--family", data.pop("family")]
    for key, value in data.items():
        argv += [_OPTIONS[key], str(value)]
    return argv + ["--conductor", str(desc.ctx.N),
                   "--degree", str(_hopf_bound(desc)), "--json"]


CASES = [case_argv(desc) for desc in _degeneration_descriptors()]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_degeneration_matches_the_golden_file(index):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == CASES
    expected = golden[index]
    assert run_call(expected["argv"]) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_call(argv) for argv in CASES],
                                 indent=1) + "\n")
