"""One run of one workload, in a fresh interpreter.

Reads ``{"workload", "items", "trace"}`` as JSON on stdin, imports
hopfpath, builds the inputs, runs every verdict in order and prints one
JSON line: the moment the inputs were ready (``time.monotonic``, which
is system-wide, so the parent can subtract its spawn time), the run's
wall time, each verdict's latency and outcome, the peak RSS and, when
tracing, the raw per-layer counters.

A verdict that raises is recorded as failed, with its traceback on
stderr; the run goes on.

The machine's speed drifts (shared hosts): the same loop runs up to
twice as slow for stretches of seconds.  So the worker also times a
fixed reference loop once before the first verdict and after every
verdict; run.py scales each interval by how fast the reference ran
around it (see ``run.py``).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from workloads import monomials

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_MARK = "PERFBENCH-TRACE "


def reference():
    """Seconds taken by a fixed stdlib loop of Fraction and dict arithmetic.

    The loop mirrors the program's own mix (exact rationals, small
    dicts) but runs no hopfpath code, so a change to the program never
    changes it.  Garbage collection is paused so that collecting the
    program's heap is never charged to the reference.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        x = Fraction(0)
        for k in range(1, 1200):
            x += Fraction(k % 7, k % 5 + 1) * Fraction(3, 2)
            key = (k % 64, k % 3)
            acc[key] = acc.get(key, Fraction(0)) + x
        return time.perf_counter() - start
    finally:
        gc.enable()


def _descriptor(hp, spec):
    ctx = hp.cyclotomic_context(spec["conductor"])
    if "q" in spec:
        q = ctx.from_rational(Fraction(spec["q"]))
    else:
        q = hp.root_of_unity(ctx, spec["d"]) ** spec["t"]
    param = ctx.scalar(Fraction(spec["param"]))
    family, n = spec["family"], spec["n"]
    if family == "cycle-graded":
        return hp.cycle_graded(n, q)
    if family == "cycle-deform":
        return hp.cycle_deform(n, q, param)
    if family == "cycle-half":
        return hp.cycle_half(n, q, param,
                             coeff_reading=spec.get("reading", "factorial"))
    if family == "chain-graded":
        return hp.chain_graded(q)
    if family == "chain-q1":
        return hp.chain_q1(ctx, param)
    if family == "chain-root":
        return hp.chain_root(q, param)
    if family == "type-one-cycle":
        return hp.type_one_cycle(n, q, param)
    if family == "type-one-chain":
        return hp.type_one_chain(q, param)
    raise ValueError(f"unknown family {family!r}")


class Verdicts:
    """Builds each item's inputs, then checks it by its exact identity."""

    def __init__(self, hp, trace):
        self.hp = hp
        self.trace = trace
        self.cli_raw = []
        self.cli_output_bytes = 0

    def build(self, item):
        return getattr(self, "build_" + item["kind"])(item)

    def run(self, item, built):
        return getattr(self, "run_" + item["kind"])(item, built)

    # -- graded_paths -------------------------------------------------------

    def build_graded(self, item):
        hp, n = self.hp, item["n"]
        zn = hp.root_of_unity(hp.cyclotomic_context(n), n)
        return hp.GradedHopfParams.cycle(n, zn ** item["t"])

    def run_graded(self, item, params):
        return self.hp.verify_graded_bialgebra(
            params, item["max_len"], item["assoc_len"]).passed

    def _automorphism(self, item, paths, apply):
        """Inputs of one family: paths, F = apply(lam) and F^-1 = apply(-lam)."""
        ctx = self.hp.cyclotomic_context(12)
        lam = ctx.scalar(Fraction(item["lam"]))
        return ctx, paths, (lambda x: apply(lam, x)), (lambda x: apply(-lam, x))

    def build_cycle_auto(self, item):
        hp, n, d, j = self.hp, item["n"], item["d"], item["j"]
        paths = hp.enumerate_paths(hp.cycle_kind(n), 3 * d)
        return self._automorphism(
            item, paths,
            lambda lam, x: hp.cycle_automorphism(n, d, lam, j, x))

    def build_chain_auto(self, item):
        hp, d = self.hp, item["d"]
        paths = hp.enumerate_paths(hp.chain_kind(), 3 * d,
                                   window=(-2 * d - 1, 2 * d + 1))
        return self._automorphism(
            item, paths,
            lambda lam, x: hp.chain_automorphism(d, lam, x))

    def run_cycle_auto(self, item, built):
        """F commutes with the coproduct, keeps the counit, F^-1 F = id."""
        hp = self.hp
        ctx, paths, forward, backward = built

        def image(path):
            return forward(hp.CoalgElement.from_path(ctx, path))
        for path in paths:
            x = hp.CoalgElement.from_path(ctx, path)
            fx = forward(x)
            if hp.comultiply(x).map_factors(image, image) != hp.comultiply(fx) \
                    or hp.counit(fx) != hp.counit(x) or backward(fx) != x:
                return False
        return True

    run_chain_auto = run_cycle_auto

    # -- basis_change -------------------------------------------------------

    def build_homomorphism(self, item):
        hp = self.hp
        desc = _descriptor(hp, item["desc"])
        params = hp.GradedHopfParams.cycle(desc.n, desc.q)
        monos = [(hp.PBWMonomial(*m), w)
                 for m, w in monomials(item["desc"], item["bound"], (0, 0))]
        return desc, params, monos

    def run_homomorphism(self, item, built):
        """pbw_image(x * y) == pbw_image(x) * pbw_image(y) on the path side."""
        hp = self.hp
        desc, params, monos = built
        bound = item["bound"]
        rs = hp.presentation_of(desc)
        images = {m: hp.pbw_to_path(desc, m) for m, _ in monos}
        for x, wx in monos:
            for y, wy in monos:
                if wx + wy > bound:
                    continue
                lhs = hp.pbw_image(desc, hp.multiply_alg(
                    desc, rs.monomial(x), rs.monomial(y)))
                if lhs != hp.multiply(params, images[x], images[y]):
                    return False
        return True

    def build_degeneration(self, item):
        return _descriptor(self.hp, item["desc"])

    def run_degeneration(self, item, desc):
        return self.hp.verify_degeneration(desc, item["bound"]).passed

    # -- hopf_antipode ------------------------------------------------------

    build_hopf = build_confluence = build_half_order = build_degeneration

    def run_hopf(self, item, desc):
        rep = self.hp.verify_relation_coproducts(desc)
        rep.extend(self.hp.verify_antipode(desc, item["bound"]))
        return rep.passed

    def run_confluence(self, item, desc):
        hp = self.hp
        return hp.check_confluence(hp.presentation_of(desc),
                                   item["bound"]).passed

    def run_half_order(self, item, desc):
        """The integer reading must be refuted at d = 4, all else pass."""
        delta = self.hp.verify_relation_coproducts(desc).passed
        return delta == item["delta_expected"] \
            and self.run_confluence(item, desc)

    def build_forced(self, item):
        return self.hp.cyclotomic_context(12)

    def run_forced(self, item, ctx):
        return self.hp.forced_vanishing_suite(
            ctx, item["n"], item["d"], tuple(item["trials"])).passed

    # -- cli_calls ----------------------------------------------------------

    def build_cli(self, item):
        if self.trace:
            return [sys.executable, os.path.join(HERE, "clitrace.py")] \
                + item["argv"]
        return [sys.executable, "-m", "hopfpath"] + item["argv"]

    def run_cli(self, item, cmd):
        """Exit status 0, and "pass": true where the call emits a report."""
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        self.cli_output_bytes += len(proc.stdout.encode())
        for line in proc.stderr.splitlines():
            if line.startswith(TRACE_MARK):
                self.cli_raw.append(json.loads(line[len(TRACE_MARK):]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return False
        if item["json_pass"]:
            return json.loads(proc.stdout).get("pass") is True
        return bool(proc.stdout.strip())


def main():
    spec = json.load(sys.stdin)
    start = time.perf_counter()
    import hopfpath as hp
    import_s = time.perf_counter() - start
    cli = spec["workload"] == "cli_calls"
    if cli:
        # CLI children inherit this, so each call runs on the core that
        # times the reference loops around it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if spec["trace"]:
        import tracing
        if not cli:
            tracer = tracing.Tracer()
            tracer.install()
    verdicts = Verdicts(hp, spec["trace"])
    items = spec["items"]
    inputs = [verdicts.build(item) for item in items]
    ready = time.monotonic()
    refs = [reference()]
    out = []
    for item, built in zip(items, inputs):
        t0 = time.perf_counter()
        try:
            ok = bool(verdicts.run(item, built))
        except Exception:
            traceback.print_exc()
            ok = False
        out.append([(time.perf_counter() - t0) * 1e3, item["checks"], ok])
        if not ok:
            print(f"verdict failed: {json.dumps(item)}", file=sys.stderr)
        refs.append(reference())
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {"ready": ready, "import_s": import_s, "verdicts": out,
              "refs": refs, "hopfpath": os.path.abspath(hp.__file__),
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
              "output_bytes": verdicts.cli_output_bytes}
    if tracer is not None:
        raw = tracer.raw()
        raw["counters"].update(tracing.cache_state(hp))
        result["trace"] = raw
    elif spec["trace"]:
        result["trace"] = tracing.merge(verdicts.cli_raw)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
