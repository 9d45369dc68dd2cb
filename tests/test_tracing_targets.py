"""Every name the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` lists its targets in ``TARGETS`` and skips a
name it cannot resolve, so a renamed or deleted function would silently
drop a per-layer counter.  The file is loaded as it stands and each
target is resolved the way the tracer resolves it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
