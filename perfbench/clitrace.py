"""``python -m hopfpath`` with the per-layer tracer installed.

Runs ``hopfpath.cli.main`` on the given arguments, then writes the raw
counters to stderr as one line after the ``PERFBENCH-TRACE`` marker and
exits with the CLI's status.  The cli_calls workload uses it for its
traced runs.
"""

import json
import sys

import hopfpath
import hopfpath.cli

import tracing
from worker import TRACE_MARK

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    try:
        status = hopfpath.cli.main(sys.argv[1:])
    finally:
        raw = tracer.raw()
        raw["counters"].update(tracing.cache_state(hopfpath))
        sys.stderr.write(TRACE_MARK + json.dumps(raw) + "\n")
    sys.exit(status)
