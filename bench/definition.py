"""What the benchmark measures: workloads, metric names, units and bounds.

This module is the single source of those facts.  `BENCHMARK.json` at the
repository root is generated from it by `python3 bench/run.py
--write-definition`, and the benchmark's tests check that the two agree.
"""

import json

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

# Each workload is a list of (d, k) shapes constructed by the CLI, then
# verified.  "certify" runs `mumeb verify --report` on each family (both
# routes, every basis expanded); "criterion" loads each family and runs
# verify.criterion_check on every pair (nothing is expanded).  The tiny
# shapes exercise the same code paths in about a second, for the tests.
WORKLOADS = {
    "certify-k1": {
        "mode": "certify",
        "shapes": [(19, 1)],
        "tiny": [(5, 1)],
        "why": "36 bases, 630 pairs at N=361: stresses the per-pair routes (overlap GEMM, "
               "criterion) whose U^dag V repeat, so pair-class dedup shows; field tables negligible",
    },
    "certify-tensor": {
        "mode": "certify",
        "shapes": [(15, 9)],
        "tiny": [(3, 4)],
        "why": "4 bases, 6 pairs at N=2025: stresses expand_basis, Gram and entanglement checks "
               "and peak memory; few pairs, so pair dedup should barely move it",
    },
    "scale-criterion": {
        "mode": "criterion",
        "shapes": [(81, 1), (3, 64)],
        "tiny": [(9, 1), (3, 4)],
        "why": "160 + 4 generators, 12,726 pairs, criterion only: stresses field tables, b_block "
               "at q=64 and 27 MB family JSON I/O; bypasses expansion and overlap GEMMs",
    },
}

# (name, unit, bound).  Every end-to-end metric is better when lower except
# pairs_per_s.  On a shared VM the host's load moves pure-Python and BLAS
# speed alike by 10-30% from one minute to the next (on a 2-vCPU Xeon VM
# the user CPU time of family_ckd(3, 64) ranged 5.0-6.6 s over five fresh
# processes), so times get the widest bound allowed, 0.25.  Peak RSS
# repeats within 0.1%.  setup_s, a fresh interpreter's import time, is the
# noisiest figure; its spread is not held to the bound.
END_TO_END = [
    ("total_s", "s", 0.25),
    ("construct_s", "s", 0.25),
    ("verify_s", "s", 0.25),
    ("pairs_per_s", "1/s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
    ("setup_s", "s", 0.25),
]
HIGHER_IS_BETTER = {"pairs_per_s"}

# Per-layer metrics from the traced run, named <module>.<function>.<stat>:
# .s is inclusive wall time summed over calls, .self_s the same minus time
# in traced children, .calls the call count.  .gflop (8 N^3 per overlap
# GEMM), .bytes (16 N^2 per expanded basis) and families.file_mb are
# computed from shapes and file sizes, so they repeat exactly.
PER_LAYER = [
    ("verify.bruteforce_unbiased.s", "s"),
    ("verify.bruteforce_unbiased.calls", "count"),
    ("verify.bruteforce_unbiased.gflop", "GFLOP"),
    ("verify.criterion_magnitudes.s", "s"),
    ("verify.criterion_magnitudes.calls", "count"),
    ("verify.certify_family.s", "s"),
    ("verify.certify_family.self_s", "s"),
    ("construct.expand_basis.s", "s"),
    ("construct.expand_basis.self_s", "s"),
    ("construct.expand_basis.calls", "count"),
    ("construct.expand_basis.bytes", "B"),
    ("linalg.gram_deviation.s", "s"),
    ("linalg.max_entanglement_deviation.s", "s"),
    ("linalg.is_unitary.s", "s"),
    ("linalg.is_unitary.calls", "count"),
    ("fields.char_table.s", "s"),
    ("fields.add_index_table.s", "s"),
    ("fields.mul_index_vector.s", "s"),
    ("fields.mul_index_vector.calls", "count"),
    ("fields.unit_difference_set.s", "s"),
    ("fields.field_trace.calls", "count"),
    ("fields.galois_trace_z4.calls", "count"),
    ("construct.b_block.s", "s"),
    ("construct.b_block.calls", "count"),
    ("construct.family_cd.s", "s"),
    ("construct.family_cd.self_s", "s"),
    ("construct.family_ckd.s", "s"),
    ("construct.family_ckd.self_s", "s"),
    ("families.save_family.s", "s"),
    ("families.load_family.s", "s"),
    ("families.save_report.s", "s"),
    ("families.file_mb", "MB"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.traced_total_s", "s"),
    ("bench.unaccounted_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.pairs", "count"),
    ("bench.fail_frac", "ratio"),
]


def benchmark_json():
    """The BENCHMARK.json document, as a dict."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit,
             "better": "higher" if name in HIGHER_IS_BETTER else "lower", "bound": bound}
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"} for name, unit in PER_LAYER],
    }


def benchmark_json_text():
    return json.dumps(benchmark_json(), indent=2) + "\n"
