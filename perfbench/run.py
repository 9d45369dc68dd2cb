"""hopfpath benchmark: seeded workloads, each run in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graded_paths --seed 1 \
        --seconds 25 --trace 0

Every run of a workload starts a new interpreter (``worker.py``),
because hopfpath's memo caches are module-global and a second run in one
process would measure a warm program no user invocation sees.  run.py
keeps starting runs, one at a time, while the next one is
expected to end within ``--seconds`` (at least three runs, or two when
tracing), then prints one JSON line: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it
records the environment and the sample counts.

Times are in reference seconds.  The host's speed drifts by up to a
factor of two over stretches of seconds, far more than the bounds in
BENCHMARK.json, so every measured interval is scaled by REF_S / r, where
r is the median duration of a fixed stdlib loop (``worker.reference``)
that the worker times before its first verdict and after each one.  A
verdict takes r from the four loops nearest it, two on each side; the
cli_calls worker pins itself, and so its CLI children, to one core so
that those loops ran where the call did.  Set-up is a fresh process and
takes r over the whole run.  REF_S is the loop's duration on a quiet
2-vCPU Xeon at 2.0 GHz under CPython 3.11, so on such a machine
reference seconds are seconds.  The line before the result also gives
the unscaled medians.

With ``--trace 1`` traced and untraced runs alternate.  Counts come from
the first traced run (they repeat exactly for one seed), self times are
medians over the traced runs (each scaled by its run's median reference
loop), and ``trace.overhead_s`` is the median traced wall time minus the
median untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER, layer_metrics  # noqa: E402
from workloads import CHECK_UNITS, WORKLOADS, make_items  # noqa: E402

REF_S = 0.0105  # reference loop on a quiet machine; see the docstring

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "checks_passed_frac": "fraction",
}
EXTRA_LAYERS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
LAYER_UNITS.update(EXTRA_LAYERS)

TIME_LIMIT_S = 150  # stop starting runs; the whole command must end by 180 s


def _spawn(cmd, env, stdin_text="", timeout=60.0):
    """Run a child in its own session; kill the session on timeout.

    Returns (spawn time on the monotonic clock, exit status or None on
    timeout, stdout, stderr).
    """
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(stdin_text, timeout=timeout)
        return start, proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return start, None, out, err


def _environment(root, env):
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "hopfpath")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    interp = []
    for _ in range(5):
        start, _, _, _ = _spawn([sys.executable, "-c", "pass"], env)
        interp.append((time.monotonic() - start) * 1e3)
    return {"python": platform.python_version(), "commit": commit,
            "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "interp_ms": statistics.median(interp)}


class Run:
    """Outcome of one fresh-process run of a workload."""

    def __init__(self, items, traced, spawned, status, out, err, src):
        self.traced = traced
        self.result = None
        self.error = None
        if status is None:
            self.error = "timed out"
        else:
            try:
                self.result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                self.error = f"exit status {status}, no result"
        if self.result is not None and status != 0:
            self.error, self.result = f"exit status {status}", None
        if self.result is not None \
                and not self.result["hopfpath"].startswith(src + os.sep):
            self.error = f"imported {self.result['hopfpath']}, not {src}"
            self.result = None
        if err.strip():
            sys.stderr.write(err)
        if self.result is None:
            # a crashed run fails every verdict it should have given
            self.verdicts = [[0.0, item["checks"], False] for item in items]
            print(f"run failed: {self.error}", file=sys.stderr)
        else:
            refs = self.result["refs"]
            self.scale = REF_S / statistics.median(refs)
            # verdict i ran between loops i and i + 1
            self.verdicts = [
                [ms * REF_S / statistics.median(refs[max(0, i - 1):i + 3]),
                 checks, ok]
                for i, (ms, checks, ok) in enumerate(self.result["verdicts"])]
            self.raw_setup_s = self.result["ready"] - spawned
            self.setup_s = self.raw_setup_s * self.scale
            self.raw_wall_s = sum(v[0] for v in self.result["verdicts"]) / 1e3
            self.wall_s = sum(v[0] for v in self.verdicts) / 1e3
            self.checks = sum(v[1] for v in self.verdicts)


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(runs):
    ok = [r for r in runs if r.result is not None and not r.traced]
    latencies = [v[0] for r in ok for v in r.verdicts]
    checks = sum(v[1] for r in runs for v in r.verdicts)
    passed = sum(v[1] for r in runs for v in r.verdicts if v[2])
    return {
        "setup_s": _median([r.setup_s for r in ok]),
        "wall_s": _median([r.wall_s for r in ok]),
        "checks_per_s": _median([r.checks / r.wall_s for r in ok]),
        "verdict_p50_ms": _median(latencies),
        "verdict_p90_ms": _p90(latencies),
        "peak_rss_mb": _median([r.result["peak_rss_mb"] for r in ok]),
        "checks_passed_frac": passed / checks if checks else 0.0,
    }


def unscaled(runs):
    """Medians as measured, before scaling to reference speed."""
    ok = [r for r in runs if r.result is not None and not r.traced]
    return {"setup_s": _median([r.raw_setup_s for r in ok]),
            "wall_s": _median([r.raw_wall_s for r in ok]),
            "reference_ms": _median([x * 1e3 for r in ok
                                     for x in r.result["refs"]])}


def per_layer(runs, interp_ms):
    traced = [r for r in runs if r.result is not None and r.traced]
    plain = [r for r in runs if r.result is not None and not r.traced]
    layers = [layer_metrics(r.result["trace"]) for r in traced]
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name in EXTRA_LAYERS:
            continue
        if unit == "s":
            out[name] = _median([m[name] * r.scale
                                 for m, r in zip(layers, traced)])
        else:
            out[name] = layers[0][name] if layers else 0
    out["cli.interp_ms"] = interp_ms
    out["cli.import_ms"] = _median([r.result["import_s"] * 1e3
                                    for r in traced + plain])
    out["cli.output_bytes"] = traced[0].result["output_bytes"] if traced else 0
    out["trace.overhead_s"] = _median([r.wall_s for r in traced]) \
        - _median([r.wall_s for r in plain])
    repeat = all(layers[0][n] == m[n] for m in layers[1:]
                 for n in layers[0] if LAYER_UNITS[n] != "s")
    missing = sorted({x for r in traced for x in r.result["trace"]["missing"]})
    return out, repeat, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hopfpath", "__init__.py")):
        print("error: src/hopfpath not found; run from the root of a "
              "hopfpath checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    begin = time.monotonic()
    environment = _environment(root, env)
    # compile bytecode once, as an installed package would have it
    _spawn([sys.executable, "-c", "import hopfpath, hopfpath.cli, worker, "
            "tracing"], dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep
                             + HERE))

    items = make_items(args.workload, args.seed)
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    min_runs = 2 if args.trace else 3
    runs, durations = [], []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 0
        payload = json.dumps({"workload": args.workload, "items": items,
                              "trace": traced})
        timeout = max(10.0, 170.0 - (time.monotonic() - begin))
        spawned, status, out, err = _spawn(worker, env, payload, timeout)
        durations.append(time.monotonic() - spawned)
        runs.append(Run(items, traced, spawned, status, out, err, src))
        elapsed = time.monotonic() - begin
        if elapsed > TIME_LIMIT_S or status is None:
            break
        if len(runs) >= min_runs and \
                elapsed + _median(durations[-2:]) > args.seconds:
            break

    if not any(r.result is not None and not r.traced for r in runs):
        print("error: no run of the workload completed", file=sys.stderr)
        return 1
    attempted = sum(len(r.verdicts) for r in runs)
    failed = sum(1 for r in runs for v in r.verdicts if not v[2])
    checks = sum(v[1] for r in runs for v in r.verdicts)
    failed_checks = sum(v[1] for r in runs for v in r.verdicts if not v[2])
    info = dict(environment, workload=args.workload, seed=args.seed,
                runs=len(runs), traced_runs=sum(r.traced for r in runs),
                verdicts_per_run=len(items),
                checks_per_run=sum(item["checks"] for item in items),
                check_unit=CHECK_UNITS[args.workload],
                verdict_samples=sum(len(r.verdicts) for r in runs
                                    if r.result is not None and not r.traced),
                checks_failed_frac=failed_checks / checks,
                unscaled=unscaled(runs))
    if args.trace:
        if not any(r.result is not None and r.traced for r in runs):
            print("error: no traced run completed", file=sys.stderr)
            return 1
        metrics, repeat, missing = per_layer(runs, environment["interp_ms"])
        info.update(counts_repeat=repeat, untraced_targets=missing)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(runs)
        units = END_TO_END
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
