"""What importing the package loads into a fresh process, and the
comparison contract of the report and quiver value types.

Every CLI call is a fresh interpreter, and without bytecode on disk it
compiles each module it imports, so the import set is part of the cost
of a call.  ``dataclasses`` pulls in ``inspect`` and ``ast``; ``csv``
and ``traceback`` serve one command and the crash path, and are
imported there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfpath
from hopfpath import Check, HopfQuiver, VerificationReport, build_hopf_quiver
from hopfpath.quiver import Arrow, GroupSpec

PACKAGE_ROOT = str(Path(hopfpath.__file__).resolve().parent.parent)


def _loaded(statement):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH")))))
    code = (f"{statement}\nimport json, sys\n"
            "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("module", ["hopfpath", "hopfpath.cli"])
def test_import_leaves_out_the_heavy_stdlib_modules(module):
    # json and sys are loaded alongside both, so they cancel out
    added = _loaded(f"import {module}") - _loaded("pass")
    assert module in added
    assert not added & {"dataclasses", "traceback", "csv"}


def test_reports_and_quivers_compare_by_value_and_are_unhashable():
    rep = VerificationReport("s").add("x", False, "w")
    assert repr(rep) == ("VerificationReport(subject='s', checks=[Check("
                         "name='x', passed=False, witness='w')])")
    assert rep == VerificationReport("s", [Check("x", False, "w")])
    assert rep != VerificationReport("s") and Check("x", True) != ("x", True)
    quiver = build_hopf_quiver(GroupSpec.cyclic(2), {"g": 1})
    assert quiver == HopfQuiver(["e", "g"], [Arrow("e", "g", "g", 0),
                                             Arrow("g", "e", "g", 0)])
    assert repr(quiver.arrows[0]) == "Arrow(src='e', tgt='g', cls='g', copy=0)"
    for value in (rep, rep.checks[0], quiver):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
