"""Command-line entry point.

Commands: construct, verify, bound, mols {gen|check|net|mubs}, gauss.
Exit codes: 0 success, 1 usage error, 2 malformed input file, 3 verification
failure.  All options live on the command line and are echoed into output
metadata; volatile fields (timestamps, wall time) are confined to a "header"
object so repeated runs produce byte-identical payloads.
"""

import argparse
import functools
import itertools
import json
import math
import sys
import time

import numpy as np

from . import bounds, construct, families, fields, mols, verify


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # one parser per process; parse_args keeps no state in it
def _build_parser():
    parser = _Parser(prog="mumeb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a generator family and write it to JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--variant", choices=("gauss", "mols"), default="gauss")
    p.add_argument("--out", default=None)
    p.add_argument("--mols-file", default=None, help="squares file for the mols variant")

    p = sub.add_parser("verify", help="certify a family file")
    p.add_argument("family")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--pairs-only", action="store_true")
    p.add_argument("--report", default=None, help="write the full report JSON here")
    p.add_argument("--json", action="store_true", help="print the report JSON to stdout")
    p.add_argument("--progress", action="store_true",
                   help="print each stage, its classes done and an ETA to stderr")

    p = sub.add_parser("bound", help="lower bounds on unbiased entangled bases")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-range", default=None, help="A..B inclusive")
    p.add_argument("--mols-file", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mols", help="Latin square tooling")
    msub = p.add_subparsers(dest="mols_command", required=True)
    g = msub.add_parser("gen", help="generate orthogonal squares")
    g.add_argument("--x", type=int, required=True)
    g.add_argument("--out", default=None)
    g = msub.add_parser("check", help="validate a squares file")
    g.add_argument("file")
    g.add_argument("--json", action="store_true")
    g = msub.add_parser("net", help="build and validate the block system of a square set")
    g.add_argument("--x", type=int, default=None)
    g.add_argument("--file", default=None)
    g = msub.add_parser("mubs", help="unbiased bases of C^(x^2) from a square set")
    g.add_argument("--x", type=int, default=None)
    g.add_argument("--file", default=None)
    g.add_argument("--out", default=None, help="write the bases as JSON")

    p = sub.add_parser("gauss", help="quadratic character-sum magnitudes for odd d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", action="store_true")
    return parser


def _require_odd(d):
    if d < 3 or d % 2 == 0:
        raise UsageError("d must be odd (or 2^m: unsupported for construction)")


def _cmd_construct(args):
    _require_odd(args.d)
    if args.k < 1:
        raise UsageError("k must be at least 1")
    if args.mols_file is not None and args.variant != "mols":
        raise UsageError("--mols-file needs --variant mols")
    command = f"construct --d {args.d} --k {args.k} --variant {args.variant}"
    if args.variant == "mols":
        if args.k < 4:
            raise UsageError("the mols variant needs square k >= 4")
        squares = mols.import_mols(args.mols_file) if args.mols_file else None
        family = construct.family_ckd_mols(args.d, args.k, squares)
    elif args.k == 1:
        family = construct.family_cd(args.d)
    else:
        family = construct.family_ckd(args.d, args.k)
    family.metadata["command"] = command

    out = args.out or f"family_d{args.d}_k{args.k}_{args.variant}.json"
    families.save_family(family, out)
    rule = family.metadata.get("construction")
    print(f"d={args.d} k={args.k} bases={family.n_bases} rule={rule} out={out}")
    return 0


def _progress_printer(stream):
    """A progress callback for certify_family that prints to stream each
    stage as it starts, then its items done out of the total, the time
    spent on the stage and an ETA from the mean time per item so far, at
    most once a second and when the stage ends."""
    start = last = 0.0

    def show(stage, done, total):
        nonlocal start, last
        now = time.monotonic()
        if done == 0:
            start = last = now
            print(f"{stage}: 0/{total}", file=stream, flush=True)
        elif done == total or now - last >= 1.0:
            last = now
            spent = now - start
            print(f"{stage}: {done}/{total} in {spent:.1f} s, "
                  f"eta {spent / done * (total - done):.1f} s", file=stream, flush=True)

    return show


def _cmd_verify(args):
    if not math.isfinite(args.tolerance) or args.tolerance < 0:
        raise UsageError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    family = families.load_family(args.family)
    report = verify.certify_family(family, tolerance=args.tolerance,
                                   pairs_only=args.pairs_only,
                                   progress=_progress_printer(sys.stderr) if args.progress else None)
    if args.report:
        families.save_report(report, args.report,
                             header_extra={"family_file": args.family})
    if args.json:
        families.write_report(report, sys.stdout)
    else:
        worst_pair = functools.reduce(verify._nan_max, [p["overlap_deviation"] for p in
                                                        report.pair_results] or [0.0])
        print(f"family={report.family_id} bases={report.n_bases} "
              f"pairs={len(report.pair_results)} worst-overlap-dev={worst_pair:.3e} "
              f"agreement={report.agreement_deviation:.3e} "
              f"passed={'yes' if report.passed else 'no'}")
        for line in report.failures():
            print(f"FAIL {line}")
    return 0 if report.passed else 3


def _imported_mols(path):
    squares = mols.import_mols(path)
    return squares[0].order, len(squares)


def _cmd_bound(args):
    imported = _imported_mols(args.mols_file) if args.mols_file else None
    if (args.k is None) == (args.k_range is None):
        raise UsageError("give exactly one of --k or --k-range")
    if args.k is not None:
        ks = [args.k]
    else:
        try:
            lo, hi = args.k_range.split("..")
            ks = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise UsageError("--k-range must look like A..B") from None
        if not ks:
            raise UsageError("empty k range")
    if imported and imported[0] ** 2 not in ks:
        asked = f"k={ks[0]}" if len(ks) == 1 else f"k={ks[0]}..{ks[-1]}"
        raise UsageError(f"--mols-file holds squares of order {imported[0]}, which bear only "
                         f"on k={imported[0] ** 2}, not on {asked}")
    rows = [bounds.bound_dkd(args.d, k, imported) for k in ks]
    if args.json:
        doc = rows[0].to_dict() if len(rows) == 1 else [r.to_dict() for r in rows]
        print(json.dumps(doc, sort_keys=True))
    else:
        for r in rows:
            extras = f"m_dd={r.m_dd}"
            if r.pp_bound is not None:
                extras += f" pp={r.pp_bound}"
            if r.mols_bound is not None:
                extras += f" mols={r.mols_bound}({r.mols_provenance})"
            print(f"d={r.d} k={r.k} bound={r.combined} rule={r.rule} [{extras}]")
    return 0


def _squares_from_args(args):
    if (args.x is None) == (args.file is None):
        raise UsageError("give exactly one of --x or --file")
    if args.file:
        return mols.import_mols(args.file)
    return mols.best_mols(args.x)


def _cmd_mols(args):
    if args.mols_command == "gen":
        if args.x < 2:
            raise UsageError("order must be at least 2")
        squares = mols.best_mols(args.x)
        out = args.out or f"mols_{args.x}.txt"
        mols.save_mols(squares, out)
        print(f"x={args.x} squares={len(squares)} out={out}")
        return 0
    if args.mols_command == "check":
        x, w = _imported_mols(args.file)
        if args.json:
            print(json.dumps({"x": x, "squares": w, "orthogonal": True}))
        else:
            print(f"x={x} squares={w} orthogonal=yes")
        return 0
    if args.mols_command == "net":
        net = mols.net_from_mols(_squares_from_args(args))
        print(f"({net.n},{net.x})-net: {net.n} blocks of {net.x} vectors on {net.x ** 2} points")
        return 0
    # mubs
    net = mols.net_from_mols(_squares_from_args(args))
    x, k = net.x, net.x ** 2
    bases = mols.mubs_from_net(net)
    target = 1.0 / x
    worst = float(np.max([verify.deviation(*verify.bruteforce_unbiased(a, b), target)
                          for a, b in itertools.combinations(bases, 2)], initial=0.0))  # NaN stays
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            families.write_json(fh, {"k": k, "x": x, "n_bases": len(bases)},
                                {"bases": families.matrix_texts(bases, k)})  # one block per row
    print(f"k={k} bases={len(bases)} worst-overlap-dev={worst:.3e}")
    return 0 if worst <= 1e-9 else 3


def _cmd_gauss(args):
    if args.d < 3 or args.d % 2 == 0:
        raise UsageError("quadratic sums need odd d >= 3")
    ring = fields.ring_for_dimension(args.d)
    dev = verify.gauss_sum_check(ring)
    if args.json:
        print(json.dumps({"d": args.d, "max_deviation": dev, "target": args.d ** 0.5}))
    else:
        print(f"d={args.d} units={len(ring.units())} max |sum - sqrt(d)| = {dev:.3e}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return {"construct": _cmd_construct, "verify": _cmd_verify, "bound": _cmd_bound,
                "mols": _cmd_mols, "gauss": _cmd_gauss}[args.command](args)
    except SystemExit as exc:  # --help
        return 0 if not exc.code else int(exc.code)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (families.SchemaError, mols.MolsParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (mols.LatinViolation, mols.OrthogonalityViolation, mols.NetViolation) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation it refused
        print(f"usage error: out of memory: {str(exc) or 'an allocation was refused'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
