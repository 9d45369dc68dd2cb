"""Seeded workload inputs, and the verdicts each workload runs.

Input generation (``make_items``) is plain standard library: run.py
calls it without importing hopfpath, so the program only ever receives
the generated descriptors, paths and words.  Every input is drawn from
the acceptance suite's parameter universe: cycle lengths <= 6, roots of
unity of order <= 12, the deformed-family sweep, weight bounds 2n/3n.

The seed picks one member per stratum, where a stratum groups inputs of
about the same cost (same cycle length, same root order, nonzero
deformation scalar, ...).  That keeps the work of a run close to
constant across seeds while the concrete inputs change.

Each item is one verdict: one (n, q) report, one descriptor, one
automorphism family, or one CLI call.  ``checks`` is the number of exact
identities the item checks, computed here from the input parameters
(never read back from the program's report).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("graded_paths", "basis_change", "hopf_antipode", "cli_calls")

# What checks_per_s counts on each workload.
CHECK_UNITS = {
    "graded_paths": "path pairs/triples (graded axioms), paths x 3 "
                    "identities (automorphisms)",
    "basis_change": "PBW monomial pairs within the weight bound",
    "hopf_antipode": "relations x 2, antipode monomials x 2, "
                     "confluence audit words, obstruction identities",
    "cli_calls": "CLI calls",
}

NONZERO_LAMBDAS = ("1", "2", "-1", "1/2")

# The README's documented invocations, run verbatim by cli_calls.
README_CALLS = (
    ("quiver", "build", "--group", "cyclic:4", "--ram", "g=1", "--json"),
    ("quiver", "connected", "--group", "cyclic:4", "--ram", "g^2=1"),
    ("graded", "verify", "--kind", "cycle", "--n", "4", "--q-order", "4",
     "--max-len", "5", "--json"),
    ("graded", "table", "--kind", "cycle", "--n", "2", "--q-order", "2",
     "--max-len", "2", "--csv"),
    ("present", "nf", "--family", "cycle-deform", "--n", "4", "--q-order",
     "4", "--lambda", "1", "--word", "a p a h^3"),
    ("present", "confluence", "--family", "cycle-half", "--n", "4",
     "--q-order", "2", "--mu", "1"),
    ("present", "table", "--family", "type-one-cycle", "--n", "2",
     "--q-order", "2", "--mu", "1", "--csv"),
    ("present", "classify",
     "--left", '{"family":"cycle-deform","n":3,"qOrder":3,"lambda":1}',
     "--right", '{"family":"cycle-deform","n":3,"qOrder":3,"lambda":2}'),
    ("verify", "hopf", "--family", "cycle-half", "--n", "4", "--q-order",
     "2", "--mu", "1", "--degree", "8", "--json"),
    ("verify", "antipode", "--family", "chain-root", "--q-order", "3",
     "--lambda", "1", "--degree", "6"),
    ("verify", "degeneration", "--family", "cycle-deform", "--n", "4",
     "--q-order", "4", "--lambda", "1", "--degree", "8"),
    ("verify", "forced-vanishing", "--n", "4", "--d", "2"),
    ("catalog", "simple-pointed", "--max-n", "4", "--json"),
)


def _coprime(rng, d):
    """A seed-drawn exponent t with zeta_d^t primitive."""
    return rng.choice([t for t in range(1, d) if math.gcd(t, d) == 1]) \
        if d > 1 else 1


def _desc(family, n=None, d=1, t=1, param="0", conductor=None, **extra):
    """Descriptor spec: q = zeta_d^t in Q(zeta_conductor)."""
    out = {"family": family, "n": n, "d": d, "t": t, "param": param,
           "conductor": conductor or d}
    out.update(extra)
    return out


# -- graded_paths -------------------------------------------------------------

def _graded_paths(rng):
    # Latency percentiles of a few dozen unequal verdicts jump with the
    # draw, so each falls inside a block of equal-cost items that take
    # each parameter value once, in seed order: the four nontrivial roots
    # of order dividing 6 hold the 90th percentile, the four (6, 3)
    # automorphism families the median.
    items = [{"kind": "graded", "n": 6, "t": t, "max_len": 5, "assoc_len": 4}
             for t in rng.sample((1, 2, 4, 5), 4)]
    for d in (1, 2):
        for lam in rng.sample(NONZERO_LAMBDAS, 2):
            items.append({"kind": "chain_auto", "d": d, "lam": lam})
    for n, d, count in ((3, 3, 2), (4, 4, 4), (6, 3, 4), (5, 5, 4),
                        (6, 6, 4)):
        for lam in rng.sample(NONZERO_LAMBDAS, count):
            items.append({"kind": "cycle_auto", "n": n, "d": d, "lam": lam,
                          "j": rng.randrange(n)})
    return items


# -- basis_change -------------------------------------------------------------

def _basis_change(rng):
    # Galois conjugates of a root of order 5 or 6 differ in cost by up to
    # 2x (dense coordinates), so those strata keep q = zeta_d.  The median
    # latency falls in the block of six cycle-deform n = 3 degenerations
    # and the 90th percentile in the block of four n = 4 homomorphisms
    # (as for graded_paths).
    items = []
    # graded cycles (n, q) for the PBW <-> path homomorphism, weight <= 3n;
    # q = 1 lives in Q(zeta_n) as in criterion 03
    d3, t3 = rng.choice(((1, 1), (3, 1), (3, 2)))
    for n, d, t in ((2, rng.choice((1, 2)), 1), (3, d3, t3), (4, 4, 1),
                    (4, 4, 1), (4, 4, 3), (4, 4, 3), (6, 2, 1)):
        items.append({"kind": "homomorphism", "bound": 3 * n,
                      "desc": _desc("cycle-graded", n, d, t,
                                    conductor=n if d == 1 else d)})
    # degeneration to the graded layer, weight bound as in criterion 08
    for t, lam in ((1, "0"), (1, "1"), (1, "2"), (2, "0"), (2, "1"), (2, "2")):
        items.append({"kind": "degeneration", "bound": 6,
                      "desc": _desc("cycle-deform", 3, 3, t, lam)})
    for n, t in ((4, _coprime(rng, 4)), (5, 1)):
        items.append({"kind": "degeneration", "bound": 2 * n,
                      "desc": _desc("cycle-deform", n, n, t,
                                    rng.choice("012"))})
    items.append({"kind": "degeneration", "bound": 8,
                  "desc": _desc("cycle-half", 4, 2, 1, rng.choice("012"))})
    for lam in "01":
        items.append({"kind": "degeneration", "bound": 4,
                      "desc": _desc("chain-q1", None, 1, 1, lam)})
    items.append({"kind": "degeneration", "bound": 8,
                  "desc": _desc("chain-root", None, 2, 1, rng.choice("12"))})
    for n, d in ((2, 2), (3, 3), (4, 2), (4, 4), (6, 2), (6, 3)):
        items.append({"kind": "degeneration", "bound": 2 * n,
                      "desc": _desc("type-one-cycle", n, d, _coprime(rng, d),
                                    "1")})
    for d in (2, 3):
        items.append({"kind": "degeneration", "bound": 4 * d,
                      "desc": _desc("type-one-chain", None, d,
                                    _coprime(rng, d), "1")})
    return items


# -- hopf_antipode ------------------------------------------------------------

def _hopf_antipode(rng):
    items = []
    # criterion 06: relation coproducts plus the two-sided antipode; the
    # 90th latency percentile falls in the block of all six n = 6
    # cycle-deform descriptors (as for graded_paths)
    for n in range(2, 6):
        items.append({"kind": "hopf", "bound": 2 * n,
                      "desc": _desc("cycle-deform", n, n, _coprime(rng, n),
                                    rng.choice("012"))})
    for t in (1, 5):
        for lam in "012":
            items.append({"kind": "hopf", "bound": 12,
                          "desc": _desc("cycle-deform", 6, 6, t, lam)})
    items.append({"kind": "hopf", "bound": 8,
                  "desc": _desc("cycle-half", 4, 2, 1, rng.choice("12"))})
    items.append({"kind": "hopf", "bound": 12,
                  "desc": _desc("cycle-half", 6, 3, _coprime(rng, 3),
                                rng.choice("12"))})
    for lam in ("0", "1"):
        items.append({"kind": "hopf", "bound": 4,
                      "desc": _desc("chain-q1", None, 1, 1, lam)})
    items.append({"kind": "hopf", "bound": 8,
                  "desc": _desc("chain-root", None, 2, 1, rng.choice("12"))})
    items.append({"kind": "hopf", "bound": 12,
                  "desc": _desc("chain-root", None, 3, _coprime(rng, 3),
                                rng.choice("12"))})
    # criterion 05: confluence over the family sweep, one member per stratum
    for n in range(1, 7):
        # q = zeta_n^t for any t: its order is n / gcd(n, t)
        t = rng.randrange(n)
        g = math.gcd(n, t)
        items.append(_confluence(_desc("cycle-graded", n, n // g, t // g,
                                       conductor=n)))
        if n >= 2:
            items.append(_confluence(_desc("cycle-deform", n, n,
                                           _coprime(rng, n),
                                           rng.choice("012"))))
        if n % 2 == 0 and n >= 4:
            items.append(_confluence(_desc("cycle-half", n, n // 2,
                                           _coprime(rng, n // 2),
                                           rng.choice("012"))))
        for d in range(2, n + 1):
            if n % d == 0:
                items.append(_confluence(_desc("type-one-cycle", n, d,
                                               _coprime(rng, d),
                                               rng.choice("01"))))
    items.append(_confluence(_desc("chain-graded", None, 1, 1, q="2")))
    items.append(_confluence(_desc("chain-q1", None, 1, 1,
                                   rng.choice("01"))))
    for d in range(2, 7):
        items.append(_confluence(_desc("chain-graded", None, d,
                                       _coprime(rng, d))))
        items.append(_confluence(_desc("chain-root", None, d,
                                       _coprime(rng, d), rng.choice("012"))))
        items.append(_confluence(_desc("type-one-chain", None, d,
                                       _coprime(rng, d), rng.choice("01"))))
    # criterion 07: both readings of the half-order coefficient
    for n, d, conductor, bound in ((6, 3, 3, 9), (8, 4, 8, 8)):
        for reading in ("factorial", "integer"):
            items.append({
                "kind": "half_order", "bound": bound,
                "delta_expected": not (d == 4 and reading == "integer"),
                "desc": _desc("cycle-half", n, d, 1, "1", conductor,
                              reading=reading)})
    # criterion 09: the forced-vanishing obstructions
    for n, d in ((4, 2), (6, 3)):
        items.append({"kind": "forced", "n": n, "d": d, "trials": [1, 2]})
    return items


def _confluence(desc):
    return {"kind": "confluence", "desc": desc,
            "bound": 3 * (desc["n"] or 4)}


# -- cli_calls ----------------------------------------------------------------

def _cli_calls(rng):
    items = [{"kind": "cli", "argv": list(argv), "json_pass": False}
             for argv in README_CALLS]
    draws = (
        ("cycle-deform", 5, 5, _coprime(rng, 5), "--lambda",
         rng.choice("012"), 10),
        ("cycle-deform", 6, 6, _coprime(rng, 6), "--lambda",
         rng.choice("012"), 12),
        ("cycle-half", 4, 2, 1, "--mu", rng.choice("12"), 8),
        ("chain-root", None, 2, 1, "--lambda", rng.choice("12"), 8),
    )
    for family, n, d, t, flag, value, degree in draws:
        argv = ["verify", "hopf", "--family", family]
        if n is not None:
            argv += ["--n", str(n)]
        argv += ["--q-order", str(d)]
        if t != 1:
            argv += ["--q-power", str(t)]
        argv += [flag, value, "--degree", str(degree), "--json"]
        items.append({"kind": "cli", "argv": argv, "json_pass": True})
    return items


_MAKERS = {
    "graded_paths": _graded_paths,
    "basis_change": _basis_change,
    "hopf_antipode": _hopf_antipode,
    "cli_calls": _cli_calls,
}


def make_items(workload, seed):
    """The workload's inputs for one seed; equal seeds give equal inputs."""
    items = _MAKERS[workload](random.Random(f"{workload}:{seed}"))
    for item in items:
        item["checks"] = count_checks(item)
    return items


# -- check counts, from the input parameters alone ----------------------------

def _family_shape(desc):
    """(p weight, a exponent bound or None, h exponents) of a family.

    Mirrors the classification: p is present on the deformed families
    and on graded families with q of order d > 1; chains enumerate
    h^i for i in -2..2 as the verifier does, graded chains only i = 0.
    """
    family, n, d = desc["family"], desc["n"], desc["d"]
    chain = n is None
    if family == "cycle-deform":
        p, a = n, n
    elif family in ("cycle-half", "chain-root"):
        p, a = d, d
    elif family in ("type-one-cycle", "type-one-chain"):
        p, a = 0, d
    elif family in ("cycle-graded", "chain-graded"):
        p, a = (d, d) if d > 1 else (0, None)
    else:  # chain-q1
        p, a = 0, None
    return p, a, chain


def monomials(desc, bound, chain_window=(-2, 2)):
    """PBW monomials (k, j, i) of weight <= bound, and their weights."""
    p, a, chain = _family_shape(desc)
    if chain:
        i_values = range(chain_window[0], chain_window[1] + 1)
    else:
        i_values = range(desc["n"])
    a_cap = a if a is not None else bound + 1
    out = []
    for k in range(bound // p + 1 if p else 1):
        for j in range(min(a_cap, bound - k * p + 1)):
            for i in i_values:
                out.append(((k, j, i), k * p + j))
    return out


def _pairs_within(monos, bound):
    return sum(1 for _, wx in monos for _, wy in monos if wx + wy <= bound)


def _rule_count(desc):
    p, a, chain = _family_shape(desc)
    rules = (2 if chain else 1)          # h^n -> 1, or hH, Hh -> 1
    rules += 2 if chain else 1           # ha (and Ha)
    if p:
        rules += (2 if chain else 1) + 1  # hp (and Hp), ap
    if a is not None:
        rules += 1                       # a^bound
    return rules


def count_checks(item):
    kind = item["kind"]
    if kind == "graded":
        n = item["n"]
        basis = n * (item["max_len"] + 1)
        tri = n * (item["assoc_len"] + 1)
        return 2 * basis + 2 * basis * basis + tri ** 3
    if kind == "cycle_auto":
        return 3 * item["n"] * (3 * item["d"] + 1)
    if kind == "chain_auto":
        d = item["d"]
        return 3 * (4 * d + 3) * (3 * d + 1)
    if kind in ("homomorphism", "degeneration"):
        bound = item["bound"]
        return _pairs_within(monomials(item["desc"], bound), bound)
    if kind == "hopf":
        return 2 * _rule_count(item["desc"]) \
            + 2 * len(monomials(item["desc"], item["bound"]))
    if kind == "confluence":
        return _confluence_checks(item["desc"], item["bound"])
    if kind == "half_order":
        desc = item["desc"]
        return 2 * _rule_count(desc) + _confluence_checks(desc, item["bound"])
    if kind == "forced":
        return 5 * len(item["trials"]) + 4
    if kind == "cli":
        return 1
    raise ValueError(f"unknown item kind {kind!r}")


def _confluence_checks(desc, bound):
    """Normal-form audit: predicted monomials plus classified short words."""
    p, _, chain = _family_shape(desc)
    predicted = len(monomials(desc, bound, (0, 0)))
    letters = (3 if chain else 2) + (1 if p else 0)
    max_len = 5 if chain else 6
    return predicted + sum(letters ** length for length in range(1, max_len + 1))
