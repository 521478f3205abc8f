"""Tests of the benchmark itself, at tiny shapes (about a minute in all).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import definition  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*extra, cwd=ROOT, workload="certify-k1"):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    return last


def test_benchmark_json_is_generated_from_definition():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == definition.benchmark_json()
    assert 1 <= on_disk["run_seconds"] <= 60
    assert 2 <= len(on_disk["workloads"]) <= 8
    names = [w["name"] for w in on_disk["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in on_disk[group]]
        for m in on_disk[group]:
            assert UNIT.match(m["unit"]), m
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(on_disk)) <= 64 * 1024


@pytest.mark.parametrize("workload", list(definition.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_and_emits_every_metric(workload, trace):
    out = result(run("--trace", str(trace), "--tiny", workload=workload))
    assert out["correct"] is True and out["failed"] == 0
    if trace:
        expected = dict(definition.PER_LAYER)
    else:
        expected = {name: unit for name, unit, _ in definition.END_TO_END}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    if trace:
        assert out["metrics"]["bench.fail_frac"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_counts_repeat_exactly_between_traced_runs():
    first, second = (result(run("--trace", "1", "--tiny", workload="certify-tensor"))
                     for _ in range(2))
    exact = [n for n, _ in definition.PER_LAYER if n.endswith((".calls", ".bytes", ".gflop"))]
    assert exact
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["verify.bruteforce_unbiased.calls"]["value"] == 6


@pytest.mark.parametrize("workload", list(definition.WORKLOADS))
def test_tampered_generator_fails_the_gate(workload):
    out = result(run("--trace", "0", "--tiny", "--tamper", workload=workload))
    assert out["correct"] is False
    assert out["failed"] / out["attempted"] > 0


def test_tampered_generator_shows_in_fail_frac():
    out = result(run("--trace", "1", "--tiny", "--tamper", workload="scale-criterion"))
    assert out["metrics"]["bench.fail_frac"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = HERE / ".work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = run("--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
