"""Every name the benchmark reaches in the package still exists.

``perfbench/tracing.py`` lists its targets in ``TARGETS`` and skips a
name it cannot resolve, so a renamed or deleted function would silently
drop a per-layer counter.  The file is loaded as it stands and each
target is resolved the way the tracer resolves it.  The benchmark's
worker (``hp.<name>``) and its self-test (``from hopfpath.<module>
import <name>``) reach further names; those are read from the source
and resolved too, so that a rename fails here and not only in the
benchmark's own tests.
"""

import importlib
import importlib.util
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    missing = [f"{modname}.{path}"
               for _, modname, path, _ in tracing.TARGETS
               if tracing._resolve(importlib.import_module(modname), path)
               is None]
    assert missing == []


def _unresolved(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return True
    return False


def test_every_name_the_worker_reaches_resolves():
    source = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bhp\.(\w+(?:\.\w+)*)", source))
    assert {"verify_antipode", "GradedHopfParams.cycle",
            "CoalgElement.from_path"} <= names
    package = importlib.import_module("hopfpath")
    assert sorted(n for n in names if _unresolved(package, n)) == []


def test_every_name_the_self_test_imports_resolves():
    source = (PERFBENCH / "test_perfbench.py").read_text(encoding="utf-8")
    imports = re.findall(r"from hopfpath\.(\w+) import ([\w, ]+)", source)
    assert ("verifier", "_monomials") in imports
    missing = [f"{modname}.{name.strip()}"
               for modname, names in imports for name in names.split(",")
               if _unresolved(importlib.import_module(f"hopfpath.{modname}"),
                              name.strip())]
    assert missing == []
