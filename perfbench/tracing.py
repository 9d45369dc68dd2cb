"""Per-layer counts and self times, taken around hopfpath's entry points.

``Tracer.install`` wraps each target function and rebinds the wrapper
everywhere the original object is bound: in every ``hopfpath`` module
and on every class defined there.  The package imports names into other
modules (``verifier.graded_multiply``, ``presentations.order``, the
``q_factorial`` bindings) and aliases methods (``Scalar.__rmul__`` is
``Scalar.__mul__``), so patching only the defining attribute would miss
calls.

Timed layers record self time: a call's duration minus the time spent
in nested timed calls.  Count-only layers (Scalar addition and inverse,
descriptor ``d`` reads, ``path_to_pbw``, report checks, path
enumeration) add no span, so their time stays in the caller's self time.
Counts are exact and repeat run to run for one seed; times do not.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (layer name, module, attribute path, wrapper kind)
TARGETS = (
    ("scalars.mul", "hopfpath.scalars", "Scalar.__mul__", "mul"),
    ("scalars.add", "hopfpath.scalars", "Scalar.__add__", "count"),
    ("scalars.inverse", "hopfpath.scalars", "Scalar.inverse", "count"),
    ("scalars.order", "hopfpath.scalars", "order", "timed"),
    ("scalars.q_factorial", "hopfpath.scalars", "q_factorial", "timed"),
    ("presentations.descriptor_d", "hopfpath.presentations",
     "HopfFamilyDescriptor.d", "property"),
    ("presentations.reduce_word", "hopfpath.presentations",
     "RewriteSystem.reduce_word", "reduce"),
    ("presentations.multiply", "hopfpath.presentations",
     "RewriteSystem.multiply", "timed"),
    ("presentations.pbw_to_path", "hopfpath.presentations", "pbw_to_path",
     "timed"),
    ("presentations.path_to_pbw", "hopfpath.presentations", "path_to_pbw",
     "count"),
    ("presentations.confluence", "hopfpath.presentations",
     "check_confluence", "timed"),
    ("verifier.delta_word", "hopfpath.verifier", "_delta_word", "timed"),
    ("verifier.tensor_mul", "hopfpath.verifier", "TensorAlg.__mul__",
     "timed"),
    ("verifier.antipode", "hopfpath.verifier", "verify_antipode", "timed"),
    ("verifier.relation_coproducts", "hopfpath.verifier",
     "verify_relation_coproducts", "timed"),
    ("verifier.degeneration", "hopfpath.verifier", "verify_degeneration",
     "timed"),
    ("graded.multiply", "hopfpath.graded", "multiply", "timed"),
    ("graded.tensor_multiply", "hopfpath.graded", "tensor_multiply",
     "timed"),
    ("graded.verify", "hopfpath.graded", "verify_graded_bialgebra", "timed"),
    ("coalgebra.comultiply", "hopfpath.coalgebra", "comultiply", "timed"),
    ("coalgebra.map_factors", "hopfpath.coalgebra",
     "TensorElement.map_factors", "timed"),
    ("coalgebra.automorphism", "hopfpath.coalgebra", "cycle_automorphism",
     "timed"),
    ("coalgebra.automorphism", "hopfpath.coalgebra", "chain_automorphism",
     "timed"),
    ("coalgebra.add", "hopfpath.coalgebra", "CoalgElement.__add__", "add"),
    ("coalgebra.add", "hopfpath.coalgebra", "TensorElement.__add__", "add"),
    ("quiver.paths", "hopfpath.quiver", "enumerate_paths", "paths"),
    ("report.checks", "hopfpath.report", "VerificationReport.add", "count"),
    ("cli.main", "hopfpath.cli", "main", "timed"),
)


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = None if obj is None else vars(obj).get(part)
    return obj


def _owners():
    """Every hopfpath module and every class defined in one."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hopfpath"
                                  or name.startswith("hopfpath.")):
            continue
        seen[id(module)] = module
        for value in vars(module).values():
            if isinstance(value, type) \
                    and value.__module__.startswith("hopfpath"):
                seen[id(value)] = value
    return list(seen.values())


def _integral(x):
    """1 when every coordinate of a scalar operand is an integer."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        coeffs = (x,)
    return int(all(getattr(c, "denominator", 1) == 1 for c in coeffs))


class Tracer:
    """Counters for one process; install once, read with ``raw``."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.missing = []
        self._child = [0.0]

    def install(self):
        owners = _owners()
        for layer, modname, path, kind in TARGETS:
            if modname not in sys.modules:
                continue  # hopfpath.cli outside the cli workload
            original = _resolve(sys.modules[modname], path)
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = getattr(self, "_" + kind)(layer, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)

    def raw(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters), "missing": self.missing}

    # -- wrapper kinds ------------------------------------------------------

    def _timed(self, layer, fn, after=None):
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter
        calls[layer] += 0
        self_s[layer] += 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - child.pop()
                child[-1] += elapsed
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _count(self, layer, fn, before=None):
        calls = self.calls
        calls[layer] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)
        return wrapper

    def _mul(self, layer, fn):
        counters = self.counters
        counters["scalars.nonrational_mul"] += 0
        counters["scalars.integral_operands"] += 0
        scalar_type = vars(sys.modules["hopfpath.scalars"])["Scalar"]
        timed = self._timed(layer, fn)

        @functools.wraps(fn)
        def wrapper(a, b):
            if isinstance(b, scalar_type) and not a.is_rational() \
                    and not b.is_rational():
                counters["scalars.nonrational_mul"] += 1
            counters["scalars.integral_operands"] += _integral(a) + _integral(b)
            return timed(a, b)
        return wrapper

    def _reduce(self, layer, fn):
        counters = self.counters
        counters["presentations.reduce_word_hits"] += 0
        counters["presentations.rewrite_steps"] += 0

        def after(args, result):
            steps = result[1]
            counters["presentations.reduce_word_hits"] += steps == 0
            counters["presentations.rewrite_steps"] += steps
        return self._timed(layer, fn, after)

    def _add(self, layer, fn):
        counters = self.counters
        counters["coalgebra.add_terms_copied"] += 0

        def before(args):
            counters["coalgebra.add_terms_copied"] += len(args[0].terms)
        return self._count(layer, fn, before)

    def _paths(self, layer, fn):
        counters = self.counters
        counters["quiver.paths_enumerated"] += 0
        wrapped = self._count(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = wrapped(*args, **kwargs)
            counters["quiver.paths_enumerated"] += len(result)
            return result
        return wrapper

    def _property(self, layer, prop):
        return property(self._count(layer, prop.fget), prop.fset, prop.fdel,
                        prop.__doc__)


def cache_state(hp):
    """Cache sizes the program holds at the end of a run."""
    out = {}
    info = getattr(hp.presentations.presentation_of, "cache_info", None)
    out["presentations.presentation_of_misses"] = info().misses if info else 0
    entries = 0
    for entry in getattr(hp.verifier, "_DELTA_CACHE", {}).values():
        for value in entry.values():
            if isinstance(value, dict):
                entries += sum(len(v) if isinstance(v, list) else 1
                               for v in value.values())
    out["verifier.delta_cache_entries"] = entries
    return out


def merge(raws):
    """Sum the raw counters of several processes (one CLI call each)."""
    out = {"calls": Counter(), "self_s": Counter(), "counters": Counter(),
           "missing": []}
    for raw in raws:
        for key in ("calls", "self_s", "counters"):
            out[key].update(raw[key])
        out["missing"] = sorted(set(out["missing"]) | set(raw["missing"]))
    return {key: dict(value) if isinstance(value, Counter) else value
            for key, value in out.items()}


def _frac(num, den):
    return num / den if den else 0.0


# name -> (unit, value from the raw counters of one traced run)
PER_LAYER = {
    "scalars.mul_calls": ("count", lambda c, s, k: c["scalars.mul"]),
    "scalars.mul_s": ("s", lambda c, s, k: s["scalars.mul"]),
    "scalars.add_calls": ("count", lambda c, s, k: c["scalars.add"]),
    "scalars.inverse_calls": ("count", lambda c, s, k: c["scalars.inverse"]),
    "scalars.order_calls": ("count", lambda c, s, k: c["scalars.order"]),
    "scalars.order_s": ("s", lambda c, s, k: s["scalars.order"]),
    "scalars.q_factorial_calls":
        ("count", lambda c, s, k: c["scalars.q_factorial"]),
    "scalars.q_factorial_s": ("s", lambda c, s, k: s["scalars.q_factorial"]),
    "scalars.nonrational_mul_frac": ("fraction", lambda c, s, k: _frac(
        k["scalars.nonrational_mul"], c["scalars.mul"])),
    "scalars.integral_operand_frac": ("fraction", lambda c, s, k: _frac(
        k["scalars.integral_operands"], 2 * c["scalars.mul"])),
    "presentations.descriptor_d_reads":
        ("count", lambda c, s, k: c["presentations.descriptor_d"]),
    "presentations.presentation_of_misses":
        ("count", lambda c, s, k: k["presentations.presentation_of_misses"]),
    "presentations.reduce_word_calls":
        ("count", lambda c, s, k: c["presentations.reduce_word"]),
    "presentations.reduce_word_s":
        ("s", lambda c, s, k: s["presentations.reduce_word"]),
    "presentations.reduce_word_hit_frac": ("fraction", lambda c, s, k: _frac(
        k["presentations.reduce_word_hits"], c["presentations.reduce_word"])),
    "presentations.rewrite_steps":
        ("count", lambda c, s, k: k["presentations.rewrite_steps"]),
    "presentations.multiply_calls":
        ("count", lambda c, s, k: c["presentations.multiply"]),
    "presentations.multiply_s":
        ("s", lambda c, s, k: s["presentations.multiply"]),
    "presentations.pbw_to_path_calls":
        ("count", lambda c, s, k: c["presentations.pbw_to_path"]),
    "presentations.pbw_to_path_s":
        ("s", lambda c, s, k: s["presentations.pbw_to_path"]),
    "presentations.path_to_pbw_calls":
        ("count", lambda c, s, k: c["presentations.path_to_pbw"]),
    "presentations.confluence_s":
        ("s", lambda c, s, k: s["presentations.confluence"]),
    "verifier.delta_word_calls":
        ("count", lambda c, s, k: c["verifier.delta_word"]),
    "verifier.delta_word_s": ("s", lambda c, s, k: s["verifier.delta_word"]),
    "verifier.tensor_mul_calls":
        ("count", lambda c, s, k: c["verifier.tensor_mul"]),
    "verifier.tensor_mul_s": ("s", lambda c, s, k: s["verifier.tensor_mul"]),
    "verifier.antipode_s": ("s", lambda c, s, k: s["verifier.antipode"]),
    "verifier.relation_coproducts_s":
        ("s", lambda c, s, k: s["verifier.relation_coproducts"]),
    "verifier.degeneration_s":
        ("s", lambda c, s, k: s["verifier.degeneration"]),
    "verifier.delta_cache_entries":
        ("count", lambda c, s, k: k["verifier.delta_cache_entries"]),
    "graded.multiply_calls": ("count", lambda c, s, k: c["graded.multiply"]),
    "graded.multiply_s": ("s", lambda c, s, k: s["graded.multiply"]),
    "graded.tensor_multiply_calls":
        ("count", lambda c, s, k: c["graded.tensor_multiply"]),
    "graded.tensor_multiply_s":
        ("s", lambda c, s, k: s["graded.tensor_multiply"]),
    "graded.verify_s": ("s", lambda c, s, k: s["graded.verify"]),
    "coalgebra.comultiply_calls":
        ("count", lambda c, s, k: c["coalgebra.comultiply"]),
    "coalgebra.comultiply_s": ("s", lambda c, s, k: s["coalgebra.comultiply"]),
    "coalgebra.map_factors_calls":
        ("count", lambda c, s, k: c["coalgebra.map_factors"]),
    "coalgebra.map_factors_s":
        ("s", lambda c, s, k: s["coalgebra.map_factors"]),
    "coalgebra.automorphism_calls":
        ("count", lambda c, s, k: c["coalgebra.automorphism"]),
    "coalgebra.automorphism_s":
        ("s", lambda c, s, k: s["coalgebra.automorphism"]),
    "coalgebra.add_calls": ("count", lambda c, s, k: c["coalgebra.add"]),
    "coalgebra.add_terms_copied":
        ("count", lambda c, s, k: k["coalgebra.add_terms_copied"]),
    "quiver.paths_enumerated":
        ("count", lambda c, s, k: k["quiver.paths_enumerated"]),
    "report.checks_total": ("count", lambda c, s, k: c["report.checks"]),
    "cli.main_s": ("s", lambda c, s, k: s["cli.main"]),
}


def layer_metrics(raw):
    """Named per-layer values from one run's raw counters."""
    c, s, k = Counter(raw["calls"]), Counter(raw["self_s"]), \
        Counter(raw["counters"])
    return {name: fn(c, s, k) for name, (_, fn) in PER_LAYER.items()}
