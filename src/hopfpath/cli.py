"""Command-line interface: build, compute, verify, classify, export.

Subcommands: quiver build|connected, graded verify|table,
present nf|confluence|classify, verify hopf|antipode|degeneration|
forced-vanishing, catalog simple-pointed.  Exit status: 0 when every
check passes (or the computation succeeds), 1 when a verification
fails, 2 on usage errors (an unwritable --out path included), 3 on an
internal error (a crash, not a failed check), 141 when the reader
closes stdout early.  Output is deterministic byte-for-byte for a fixed
invocation: monomials are ordered by (k, j, i) and paths by (length,
source).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from fractions import Fraction

from . import presentations as pres
from . import verifier as ver
from .graded import GradedHopfParams, structure_table, verify_graded_bialgebra
from .presentations import (
    FAMILIES, check_confluence, check_descriptor_dict, descriptor_from_dict,
    descriptor_to_dict, normal_form, pbw_rows, presentation_of,
    simple_pointed_catalog, structure_rows,
)
from .quiver import (
    GroupSpec, build_hopf_quiver, is_connected_hopf_quiver,
    resolve_ramification,
)
from .scalars import MAX_CONDUCTOR, cyclotomic_context, root_of_unity

ENV_CONDUCTOR = "HOPFPATH_CONDUCTOR"
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE


def _env_conductor():
    raw = os.environ.get(ENV_CONDUCTOR)
    return int(raw) if raw else None


def _conductor(args, *orders):
    # 0 is not "unset": it goes on to be rejected like any bad conductor
    if getattr(args, "conductor", None) is not None:
        return args.conductor
    env = _env_conductor()
    if env is not None:
        return env
    need = [o for o in orders if o]
    lcm = math.lcm(*need) if need else 1
    if lcm > MAX_CONDUCTOR:
        raise ValueError(f"the lcm of the requested orders, {lcm}, exceeds "
                         f"the maximum conductor {MAX_CONDUCTOR}")
    return lcm


def _add_output_opts(p):
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")
    p.add_argument("--conductor", type=int, metavar="N",
                   help=f"cyclotomic conductor (default: lcm of requested "
                        f"orders; env {ENV_CONDUCTOR} overrides)")


def _add_family_opts(p):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, help="cycle length (cycle families)")
    p.add_argument("--q-order", type=int, dest="q_order",
                   help="order of q as a root of unity")
    p.add_argument("--q-power", type=int, dest="q_power", default=1,
                   help="take this power of the canonical primitive root")
    p.add_argument("--q", help="rational q literal (chain families)")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="deformation scalar lambda")
    p.add_argument("--mu", default=None, help="deformation scalar mu")
    p.add_argument("--coeff-reading", choices=("factorial", "integer"),
                   default="factorial",
                   help="reading of the half-order commutator coefficient")


def _add_graded_opts(p):
    p.add_argument("--kind", required=True, choices=("cycle", "chain"))
    p.add_argument("--n", type=int)
    p.add_argument("--q-order", type=int, dest="q_order")
    p.add_argument("--q-power", type=int, dest="q_power", default=1)
    p.add_argument("--q")


def _descriptor(args):
    data = {"family": args.family}
    if args.n is not None:
        data["n"] = args.n
    # 0 is not "unset": it goes on to be rejected like any bad order
    if args.q_order is not None:
        data["qOrder"] = args.q_order
        if args.q_power != 1:
            data["qPower"] = args.q_power
    elif args.q is not None:
        data["q"] = args.q
    if args.lam is not None:
        data["lambda"] = args.lam
    if args.mu is not None:
        data["mu"] = args.mu
    if args.coeff_reading != "factorial":
        data["coeffReading"] = args.coeff_reading
    ctx = cyclotomic_context(_conductor(args, args.q_order, args.n))
    return descriptor_from_dict(data, ctx)


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_result(args, rep, params=None):
    if args.json:
        payload = rep.to_dict()
        if params:
            payload.update(params)
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, rep.summary(verbose=True))
    return 0 if rep.passed else 1


# -- quiver ---------------------------------------------------------------------

def _parse_group(text):
    if text.startswith("cyclic:"):
        return GroupSpec.cyclic(int(text.split(":", 1)[1]))
    if text in ("infinite", "infinite-cyclic"):
        return GroupSpec.infinite_cyclic()
    raise ValueError(f"unknown group spec {text!r} (use cyclic:N or infinite)")


def _parse_ram(text):
    out = {}
    for item in text.split(","):
        label, _, mult = item.partition("=")
        if not label:
            raise ValueError("empty ramification entry")
        out[label.strip()] = int(mult) if mult else 1
    return out


def _parse_window(text):
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def cmd_quiver_build(args):
    group = _parse_group(args.group)
    ram = _parse_ram(args.ram)
    if group.is_finite:
        ram = resolve_ramification(group, ram)
    window = _parse_window(args.window) if args.window else None
    quiver = build_hopf_quiver(group, ram, window=window)
    if args.json:
        _emit(args, json.dumps(quiver.to_dict(), indent=2))
    else:
        lines = [f"vertices: {' '.join(quiver.vertices)}"]
        lines += [f"{a.src} -> {a.tgt}  [class {a.cls}, copy {a.copy}]"
                  for a in quiver.arrows]
        _emit(args, "\n".join(lines))
    return 0


def cmd_quiver_connected(args):
    group = _parse_group(args.group)
    ram = resolve_ramification(group, _parse_ram(args.ram))
    result = is_connected_hopf_quiver(group, ram)
    if args.json:
        _emit(args, json.dumps({"connected": result}))
    else:
        _emit(args, f"connected: {'true' if result else 'false'}")
    return 0


# -- graded ---------------------------------------------------------------------

def _graded_params(args):
    ctx = cyclotomic_context(_conductor(args, args.q_order, args.n))
    if args.q_order is not None:
        q = root_of_unity(ctx, args.q_order) ** args.q_power
    elif args.q is not None:
        q = ctx.from_rational(Fraction(args.q))
    else:
        q = ctx.one()
    if args.kind == "cycle":
        if not args.n:
            raise ValueError("cycle multiplication needs --n")
        return GradedHopfParams.cycle(args.n, q)
    return GradedHopfParams.chain(q)


def cmd_graded_verify(args):
    params = _graded_params(args)
    rep = verify_graded_bialgebra(params, args.max_len, args.assoc_len)
    return _report_result(args, rep)


def cmd_graded_table(args):
    params = _graded_params(args)
    rows = structure_table(params, args.max_len)
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["left", "right", "coeff",
                                                 "result"])
        writer.writeheader()
        writer.writerows(rows)
        _emit(args, buf.getvalue().rstrip("\n"))
    elif args.json:
        _emit(args, json.dumps(rows, indent=2))
    else:
        _emit(args, "\n".join(
            f"{r['left']} * {r['right']} = "
            + (f"{r['coeff']} * {r['result']}" if r["result"] else "0")
            for r in rows))
    return 0


# -- present --------------------------------------------------------------------

def cmd_present_nf(args):
    desc = _descriptor(args)
    elt = normal_form(desc, args.word)
    if args.json:
        _emit(args, json.dumps({"descriptor": descriptor_to_dict(desc),
                                "word": args.word,
                                "normalForm": pbw_rows(elt)}, indent=2))
    else:
        _emit(args, str(elt))
    return 0


def cmd_present_confluence(args):
    desc = _descriptor(args)
    rep = check_confluence(presentation_of(desc), args.degree_bound)
    return _report_result(args, rep,
                          {"descriptor": descriptor_to_dict(desc)})


def cmd_present_table(args):
    desc = _descriptor(args)
    rows = structure_rows(desc, args.weight_bound)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["left", "right", "coeff", "k", "j", "i"])
        for row in rows:
            for term in row["result"]:
                writer.writerow([row["left"], row["right"], term["coeff"],
                                 term["k"], term["j"], term["i"]])
        _emit(args, buf.getvalue().rstrip("\n"))
    elif args.json:
        _emit(args, json.dumps(rows, indent=2))
    else:
        _emit(args, "\n".join(
            f"({r['left']}) * ({r['right']}) = "
            + (" + ".join(f"{t['coeff']} * p^{t['k']} a^{t['j']} h^{t['i']}"
                          for t in r["result"]) or "0")
            for r in rows))
    return 0


def cmd_present_classify(args):
    left_data = check_descriptor_dict(json.loads(args.left))
    right_data = check_descriptor_dict(json.loads(args.right))
    orders = [left_data.get("qOrder", 1), right_data.get("qOrder", 1)]
    ctx = cyclotomic_context(_conductor(args, *orders))
    left = descriptor_from_dict(left_data, ctx)
    right = descriptor_from_dict(right_data, ctx)
    iso = pres.classify_iso(left, right)
    if args.json:
        _emit(args, json.dumps({"left": descriptor_to_dict(left),
                                "right": descriptor_to_dict(right),
                                "isomorphic": iso}, indent=2))
    else:
        _emit(args, f"isomorphic: {'true' if iso else 'false'}")
    return 0


# -- verify ---------------------------------------------------------------------

def cmd_verify_hopf(args):
    desc = _descriptor(args)
    rep = ver.verify_hopf(desc, args.degree)
    return _report_result(args, rep, _family_payload(desc))


def cmd_verify_antipode(args):
    desc = _descriptor(args)
    rep = ver.verify_antipode(desc, args.degree)
    return _report_result(args, rep, _family_payload(desc))


def cmd_verify_degeneration(args):
    desc = _descriptor(args)
    rep = ver.verify_degeneration(desc, args.degree)
    return _report_result(args, rep, _family_payload(desc))


def cmd_verify_forced(args):
    ctx = cyclotomic_context(_conductor(args, args.n, args.d, 2))
    trials = tuple(int(t) for t in args.trials.split(","))
    rep = ver.forced_vanishing_suite(ctx, args.n, args.d, trials)
    return _report_result(args, rep)


def _family_payload(desc):
    return {"family": desc.family, "params": descriptor_to_dict(desc)}


# -- catalog --------------------------------------------------------------------

def cmd_catalog(args):
    ctx = cyclotomic_context(_conductor(args, *range(1, args.max_n + 1)))
    entries = simple_pointed_catalog(args.max_n, ctx)
    dicts = [descriptor_to_dict(d) for d in entries]
    if args.json:
        _emit(args, json.dumps(dicts, indent=2))
    else:
        _emit(args, "\n".join(d.label() for d in entries))
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="hopfpath",
        description="Exact computation and verification for the Hopf "
                    "structures on cycle and chain quivers.")
    groups = top.add_subparsers(dest="group", required=True)

    quiver = groups.add_parser("quiver", help="quiver construction")
    qsub = quiver.add_subparsers(dest="command", required=True)
    qb = qsub.add_parser("build", help="materialize a quiver")
    qb.add_argument("--group", required=True, help="cyclic:N or infinite")
    qb.add_argument("--ram", required=True,
                    help="ramification, e.g. g=1 or g=1,g^2=2")
    qb.add_argument("--window", help="vertex window LO:HI (infinite group)")
    _add_output_opts(qb)
    qb.set_defaults(func=cmd_quiver_build)
    qc = qsub.add_parser("connected", help="connectivity test")
    qc.add_argument("--group", required=True)
    qc.add_argument("--ram", required=True)
    _add_output_opts(qc)
    qc.set_defaults(func=cmd_quiver_connected)

    graded = groups.add_parser("graded", help="graded multiplication")
    gsub = graded.add_subparsers(dest="command", required=True)
    gv = gsub.add_parser("verify", help="exhaustive bialgebra axioms")
    _add_graded_opts(gv)
    gv.add_argument("--max-len", type=int, dest="max_len", default=4)
    gv.add_argument("--assoc-len", type=int, dest="assoc_len")
    _add_output_opts(gv)
    gv.set_defaults(func=cmd_graded_verify)
    gt = gsub.add_parser("table", help="structure-constant table")
    _add_graded_opts(gt)
    gt.add_argument("--max-len", type=int, dest="max_len", default=3)
    gt.add_argument("--csv", action="store_true", help="emit CSV")
    _add_output_opts(gt)
    gt.set_defaults(func=cmd_graded_table)

    present = groups.add_parser("present", help="presentations and rewriting")
    psub = present.add_subparsers(dest="command", required=True)
    pn = psub.add_parser("nf", help="normal form of a word")
    _add_family_opts(pn)
    pn.add_argument("--word", required=True, help='e.g. "a p a h^3"')
    _add_output_opts(pn)
    pn.set_defaults(func=cmd_present_nf)
    pc = psub.add_parser("confluence", help="resolve all overlap ambiguities")
    _add_family_opts(pc)
    pc.add_argument("--degree-bound", type=int, dest="degree_bound", default=6)
    _add_output_opts(pc)
    pc.set_defaults(func=cmd_present_confluence)
    pt = psub.add_parser("table", help="structure constants on PBW monomials")
    _add_family_opts(pt)
    pt.add_argument("--weight-bound", type=int, dest="weight_bound",
                    default=4)
    pt.add_argument("--csv", action="store_true", help="emit CSV")
    _add_output_opts(pt)
    pt.set_defaults(func=cmd_present_table)
    pl = psub.add_parser("classify", help="isomorphism decision")
    pl.add_argument("--left", required=True, help="descriptor JSON")
    pl.add_argument("--right", required=True, help="descriptor JSON")
    _add_output_opts(pl)
    pl.set_defaults(func=cmd_present_classify)

    verify = groups.add_parser("verify", help="Hopf-axiom verification")
    vsub = verify.add_subparsers(dest="command", required=True)
    for name, func, helptext in (
            ("hopf", cmd_verify_hopf,
             "relations, antipode and counit checks"),
            ("antipode", cmd_verify_antipode, "two-sided antipode axioms"),
            ("degeneration", cmd_verify_degeneration,
             "leading terms match the graded structure constants")):
        vp = vsub.add_parser(name, help=helptext)
        _add_family_opts(vp)
        vp.add_argument("--degree", type=int, default=6,
                        help="weight bound (default 6)")
        _add_output_opts(vp)
        vp.set_defaults(func=func)
    vf = vsub.add_parser("forced-vanishing",
                         help="replay the obstruction arguments")
    vf.add_argument("--n", type=int, default=4)
    vf.add_argument("--d", type=int, default=2)
    vf.add_argument("--trials", default="1,2")
    _add_output_opts(vf)
    vf.set_defaults(func=cmd_verify_forced)

    catalog = groups.add_parser("catalog", help="classification catalogs")
    csub = catalog.add_subparsers(dest="command", required=True)
    cs = csub.add_parser("simple-pointed",
                         help="the simple-pointed structures up to max-n")
    cs.add_argument("--max-n", type=int, dest="max_n", default=4)
    _add_output_opts(cs)
    cs.set_defaults(func=cmd_catalog)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (``| head``), which is not bad input;
        # point stdout at devnull so that the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, ZeroDivisionError, json.JSONDecodeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
