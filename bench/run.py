"""Benchmark of mumeb: the time and memory from `mumeb construct` to a
passing `mumeb verify`.

    python3 bench/run.py --workload certify-k1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload in turn
    python3 bench/run.py --write-definition    # regenerate BENCHMARK.json

Run it from the repository root; it benchmarks the package in src/ and
exits 2 when that is missing.  Workloads and metrics are in definition.py.

A run is a closed loop of iterations.  Each iteration is one fresh worker
process (worker.py) that runs the workload's steps one after another, so
mumeb's lru_cached ring tables are rebuilt every time, as for a CLI user.
Iterations repeat while the next one is expected to end within --seconds
(at least MIN_ITERATIONS), and each end-to-end metric is the median over
the iterations.  Times and cpu_s (user + sys) cover the timed region, from
the first construct call to the end of the last verification.  setup_s is
the median over at least MIN_SETUP_SAMPLES fresh processes: iterations
plus set-up-only probes.  BLAS uses min(2, nproc) threads, fixed here and
recorded.

--trace 1 alternates traced and untraced iterations and reports the
per-layer metrics of the traced ones (medians), the tracing overhead
(traced minus untraced total_s) and the spans of the last traced
iteration in bench/.out/.

Every iteration passes a correctness gate: each CLI exit code is 0, each
report says passed, each family has bound_dkd(d, k).combined bases, the
worst criterion deviation is within 1e-8 (criterion workloads), loaded
generators are bit-equal to a fresh in-memory construction made here, and
the payloads outside headers hash alike in every iteration and in every
run of the same source tree.  The construction's digests and the first
clean run's payload digest are kept per source tree in bench/.work/, so the
reference is built once per checkout rather than in every run.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = HERE / ".work"
OUT = HERE / ".out"
STATE = WORK / "digests.json"

MIN_ITERATIONS = 2
MIN_SETUP_SAMPLES = 5
# a run must end within 180 s: start no iteration expected to end after
# RUN_LIMIT_S, and kill a worker still running at KILL_AT_S
RUN_LIMIT_S = 150.0
KILL_AT_S = 175.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import definition  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*definition.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1,
                   help="recorded; seeds the BLAS warm-up matrix (the constructions are "
                        "deterministic, so no input depends on it)")
    p.add_argument("--seconds", type=int, default=definition.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="use each workload's tiny shapes (for the benchmark's tests)")
    p.add_argument("--tamper", action="store_true",
                   help="negative control: alter one generator entry between construct "
                        "and verify; the gate must fail")
    p.add_argument("--write-definition", action="store_true",
                   help="write BENCHMARK.json from definition.py and exit")
    args = p.parse_args(argv)
    if not args.write_definition and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# environment record

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the paths and bytes of every .py file in src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "tamper": args.tamper,
    }


# ---------------------------------------------------------------------------
# workers

def _spawn(args, workdir, out, trace=0, spans=None, setup_only=False, deadline=None):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--out", str(out), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--tiny"] * args.tiny + ["--tamper"] * args.tamper + ["--setup-only"] * setup_only
    env = dict(os.environ, **{key: str(BLAS_THREADS) for key in BLAS_ENV})
    cmd += ["--spawned-at", repr(_monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - _monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker did not finish within the run's time limit: {exc}") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def reference_digests(shapes):
    """Generator digests of a fresh in-memory construction of each shape."""
    import checks
    from mumeb import construct

    return [checks.generator_digest(construct.family_cd(d) if k == 1
                                    else construct.family_ckd(d, k))
            for d, k in shapes]


# ---------------------------------------------------------------------------
# one run

class Gate:
    """Counts correctness checks; keeps the names of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def _load_state():
    try:
        with open(STATE, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save_state(state):
    with open(STATE, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)


def run_workload(args, np, started):
    deadline = started + KILL_AT_S
    spec = definition.WORKLOADS[args.workload]
    shapes = spec["tiny" if args.tiny else "shapes"]
    env = environment(args, np)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}.spans.jsonl"

    state = _load_state()
    key = args.workload + ("/tiny" if args.tiny else "")
    recorded = state.setdefault(env["src_sha256"], {}).setdefault(key, {})
    try:
        if "reference" not in recorded:
            recorded["reference"] = reference_digests(shapes)
            _save_state(state)
        iterations = []      # (traced, result, wall seconds)
        t_loop = _monotonic()
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 0
            t = _monotonic()
            result = _spawn(args, workdir, workdir / f"iter{len(iterations)}.json",
                            trace=int(traced), spans=spans_path if traced else None,
                            deadline=deadline)
            iterations.append((traced, result, _monotonic() - t))
            typical = statistics.median([wall for _, _, wall in iterations])
            now = _monotonic()
            if now + typical > started + RUN_LIMIT_S:
                break
            if len(iterations) >= MIN_ITERATIONS and now + typical > t_loop + args.seconds:
                break
        setup = [r["setup_s"] for traced, r, _ in iterations if not traced]
        while not args.trace and len(setup) < MIN_SETUP_SAMPLES:
            probe = _spawn(args, workdir, workdir / f"setup{len(setup)}.json",
                           setup_only=True, deadline=deadline)
            setup.append(probe["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gate = Gate()
    reference = recorded["reference"]
    expected_payload = recorded.get("payload", iterations[0][1]["payload_digest"])
    for i, (_, r, _) in enumerate(iterations):
        for name, ok in r["checks"]:
            gate.check(f"iteration {i}: {name}", ok)
        digests = r["generator_digests"]
        for j, (d, k) in enumerate(shapes):
            gate.check(f"iteration {i}: loaded generators bit-equal to construction d={d} k={k}",
                       j < len(digests) and digests[j] == reference[j])
        gate.check(f"iteration {i}: payload digest as in every run of this source",
                   r["payload_digest"] == expected_payload)
    if "payload" not in recorded and not gate.failures:
        recorded["payload"] = expected_payload
        _save_state(state)

    untraced = [r for traced, r, _ in iterations if not traced]
    if not untraced:
        raise WorkerFailed("one traced iteration used the whole run: no untraced one to compare")
    metrics = {}
    if args.trace:
        traced = [r for t, r, _ in iterations if t]
        traced_total = statistics.median([r["total_s"] for r in traced])
        summary = {
            "bench.traced_total_s": traced_total,
            "bench.trace_overhead_s":
                traced_total - statistics.median([r["total_s"] for r in untraced]),
            "bench.pairs": traced[0]["pairs"],
            "bench.fail_frac": len(gate.failures) / gate.attempted,
        }
        for name, _ in definition.PER_LAYER:
            metrics[name] = summary[name] if name in summary else statistics.median(
                [r["layers"][name] for r in traced])
        units = dict(definition.PER_LAYER)
    else:
        for r in untraced:
            r["pairs_per_s"] = r["pairs"] / r["verify_s"]
        for name, _, _ in definition.END_TO_END:
            samples = setup if name == "setup_s" else [r[name] for r in untraced]
            metrics[name] = statistics.median(samples)
        units = {name: unit for name, unit, _ in definition.END_TO_END}

    record = {
        "env": env,
        "iterations": [{"traced": t, "wall_s": w, **{k: v for k, v in r.items()
                                                      if k not in ("checks", "layers")}}
                       for t, r, w in iterations],
        "setup_samples": setup,
        "failed_checks": gate.failures,
        "metrics": metrics,
    }
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    n_untraced = len(untraced)
    for name in units:
        note = ""
        if name == "setup_s":
            note = f" (median of {len(setup)} processes)"
        elif not args.trace:
            note = f" (median of {n_untraced} iterations)"
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}{note}")
    for name in gate.failures:
        print(f"FAILED CHECK {name}")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }), flush=True)


def main(argv=None):
    started = _monotonic()
    args = _parse(argv)
    if args.write_definition:
        (ROOT / "BENCHMARK.json").write_text(definition.benchmark_json_text(), encoding="utf-8")
        return 0
    if not (ROOT / "src" / "mumeb" / "__init__.py").is_file():
        print(f"no mumeb package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    names = list(definition.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        args.workload = name
        try:
            run_workload(args, np, started if len(names) == 1 else _monotonic())
        except WorkerFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
