"""One measured iteration of a benchmark workload, in a fresh process.

Started by run.py, never by hand.  The process imports mumeb from the
checkout's src/, warms the BLAS threads on an unrelated matrix, then does
what a CLI user does: `mumeb construct` for each shape, then either `mumeb
verify --report` on each family (certify) or load_family plus
verify.criterion_check on every pair (criterion).  Being a fresh process,
it rebuilds mumeb's lru_cached ring tables, as every CLI invocation does.

It writes one JSON object to --out: setup and timed figures, the outcome of
each in-process correctness check, and the digests run.py compares across
iterations.  With --trace 1 it also records spans (see spans.py) and writes
them to --spans.
"""

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CRITERION_TOL = 1e-8


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC reading just before this process was started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--tamper", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import mumeb
    from mumeb import bounds, cli, construct, families, fields, linalg, verify

    if Path(mumeb.__file__).resolve().parent != ROOT / "src" / "mumeb":
        print(f"imported mumeb from {mumeb.__file__}, not from the checkout", file=sys.stderr)
        return 2

    import checks
    import spans
    from definition import WORKLOADS

    rng = np.random.default_rng(args.seed)
    warm = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    for _ in range(4):
        warm = warm @ warm / 256.0

    spec = WORKLOADS[args.workload]
    shapes = spec["tiny" if args.tiny else "shapes"]
    workdir = Path(args.workdir)
    fam_paths = [str(workdir / f"family_d{d}_k{k}.json") for d, k in shapes]
    rep_paths = [str(workdir / f"report_d{d}_k{k}.json") for d, k in shapes]

    loaded = []  # every family load_family returns, for the checks after timing

    def keeping(load):
        def load_and_keep(*a, **kw):
            loaded.append(load(*a, **kw))
            return loaded[-1]
        return load_and_keep

    undo_tap = spans.wrap(families, "load_family", keeping)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install({"cli": cli, "construct": construct, "fields": fields,
                        "verify": verify, "linalg": linalg, "families": families})
    setup_s = _monotonic() - args.spawned_at
    if args.setup_only:
        _write(args.out, {"setup_s": setup_s})
        return 0

    exit_codes = []
    worst = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for (d, k), path in zip(shapes, fam_paths):
        argv_c = ["construct", "--d", str(d), "--k", str(k), "--out", path]
        exit_codes.append((" ".join(argv_c[:5]), cli.main(argv_c)))
    if args.tamper:
        checks.tamper_first_generator(fam_paths[0])
    t1 = time.perf_counter()
    if spec["mode"] == "certify":
        for (d, k), fam, rep in zip(shapes, fam_paths, rep_paths):
            exit_codes.append((f"verify d={d} k={k}",
                               cli.main(["verify", fam, "--report", rep])))
    else:
        for path in fam_paths:
            family = families.load_family(path)
            dev = 0.0
            for (_, u), (_, v) in itertools.combinations(family.generators, 2):
                dev = max(dev, verify.criterion_check(family.ring, family.k, u, v))
            worst.append(dev)
    t2 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()
    undo_tap()

    # correctness checks: (name, passed)
    results = [(f"exit code 0: {cmd}", code == 0) for cmd, code in exit_codes]
    pairs = 0
    for i, (d, k) in enumerate(shapes):
        n = loaded[i].n_bases if i < len(loaded) else 0
        results.append((f"n_bases == bound_dkd({d},{k})", n == bounds.bound_dkd(d, k).combined))
        pairs += n * (n - 1) // 2
    if spec["mode"] == "certify":
        for rep in rep_paths:
            try:
                with open(rep, encoding="utf-8") as fh:
                    passed = json.load(fh).get("passed") is True
            except (OSError, ValueError):
                passed = False
            results.append((f"report passed: {Path(rep).name}", passed))
        payload_files = fam_paths + rep_paths
    else:
        for (d, k), dev in zip(shapes, worst):
            results.append((f"criterion deviation <= {CRITERION_TOL}: d={d} k={k}",
                            dev <= CRITERION_TOL))
        payload_files = fam_paths

    out = {
        "setup_s": setup_s,
        "construct_s": t1 - t0,
        "verify_s": t2 - t1,
        "total_s": t2 - t0,
        "cpu_s": _cpu_s(ru1) - _cpu_s(ru0),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "pairs": pairs,
        "checks": results,
        "generator_digests": [checks.generator_digest(f) for f in loaded],
        "payload_digest": checks.payload_digest(payload_files, worst),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics((t0, t2))
        if args.spans:
            tracer.write_jsonl(args.spans)
    _write(args.out, out)
    return 0


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
