"""The README's ``hopfpath`` calls keep their exit status and output,
and the attributes it names exist.

Each call of the README's usage block runs in-process through
``cli.main`` and is compared with ``tests/readme_golden.json``.  To
rewrite the golden file after an intended output change, run
``PYTHONPATH=src python tests/test_readme.py``.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from hopfpath import cycle_half, cyclotomic_context, presentation_of
from hopfpath.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "readme_golden.json"


def readme_calls():
    """The argv of every ``hopfpath`` line in the README's sh blocks,
    with backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    calls = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "hopfpath":
                calls.append(argv[1:])
    return calls


def run_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_readme_calls_match_the_golden_file():
    calls = readme_calls()
    assert len(calls) == 13
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == calls
    for expected in golden:
        assert run_call(expected["argv"]) == expected


def test_readme_attributes_resolve():
    # every backticked desc.<name>, rs.<name> and RewriteSystem.<name>
    # is an attribute of a descriptor or of its presentation
    desc = cycle_half(4, -cyclotomic_context(2).one(), 1)
    rs = presentation_of(desc)
    owners = {"desc": desc, "rs": rs, "RewriteSystem": rs}
    text = (ROOT / "README.md").read_text()
    named = [ref for span in re.findall(r"`([^`\n]+)`", text)
             for ref in re.findall(r"\b(desc|rs|RewriteSystem)\.(\w+)", span)]
    assert ("desc", "d") in named and ("rs", "qfact") in named
    missing = [f"{owner}.{name}" for owner, name in named
               if not hasattr(owners[owner], name)]
    assert not missing


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_call(argv) for argv in readme_calls()],
                                 indent=1) + "\n")
