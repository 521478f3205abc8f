"""In-memory spans around the public functions of mumeb's modules.

The tracer replaces module attributes in place with thin wrappers, so every
caller that looks a function up through its module (all of mumeb does) is
traced without any change to the package.  Each span is [name, start, end,
parent index].  A worker process runs one iteration, so all of its spans
belong to that one request.
"""

import functools
import json
import os
import time
from collections import defaultdict

# module name -> functions that get a span each
SPANNED = {
    "cli": ["main"],
    "construct": ["family_cd", "family_ckd", "family_ckd_mols", "b_block", "b_tensor",
                  "expand_basis", "permutation_unitary", "fourier_unitary"],
    "fields": ["char_table", "add_index_table", "neg_index_vector", "mul_index_vector",
               "unit_difference_set", "ring_for_dimension"],
    "verify": ["certify_family", "bruteforce_unbiased", "criterion_magnitudes",
               "criterion_check"],
    "linalg": ["is_unitary", "gram_deviation", "max_entanglement_deviation"],
    "families": ["save_family", "load_family", "save_report"],
}
# functions called per ring element: counted only, a span each would cost
# more than the call
COUNTED = {"fields": ["field_trace", "galois_trace_z4"]}


def _gemm_gflop(args, kwargs, result):
    return 8.0 * args[0].shape[0] ** 3 / 1e9


def _basis_bytes(args, kwargs, result):
    return 16 * result.shape[0] ** 2


def _file_mb(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]) / 1e6


# (module, function) -> (metric, value computed from the call's shapes or files)
COMPUTED = {
    ("verify", "bruteforce_unbiased"): ("verify.bruteforce_unbiased.gflop", _gemm_gflop),
    ("construct", "expand_basis"): ("construct.expand_basis.bytes", _basis_bytes),
    ("families", "save_family"): ("families.file_mb", _file_mb),
}


def wrap(module, fname, wrapper_factory):
    """Replace module.fname by wrapper_factory(original); return an undo callable."""
    original = getattr(module, fname)
    wrapper = functools.wraps(original)(wrapper_factory(original))
    setattr(module, fname, wrapper)
    return lambda: setattr(module, fname, original)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.computed = defaultdict(float)
        self._stack = []
        self._undo = []

    def install(self, modules):
        """modules: short name -> imported mumeb module."""
        for short, fnames in SPANNED.items():
            for fname in fnames:
                extra = COMPUTED.get((short, fname))
                self._undo.append(wrap(modules[short], fname,
                                       self._span_factory(f"{short}.{fname}", extra)))
        for short, fnames in COUNTED.items():
            for fname in fnames:
                self._undo.append(wrap(modules[short], fname,
                                       self._count_factory(f"{short}.{fname}")))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _span_factory(self, name, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def factory(original):
            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if extra is not None:
                    metric, value_of = extra
                    self.computed[metric] += value_of(args, kwargs, result)
                return result
            return traced
        return factory

    def _count_factory(self, name):
        counts = self.counts

        def factory(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted
        return factory

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self, window):
        """Per-function .s, .self_s and .calls, the counted and computed
        figures, and bench.unaccounted_s: the part of the timed window
        (start, end) that no top-level span covers."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            else:
                covered += dur
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        out = {}
        for short, fnames in SPANNED.items():
            for fname in fnames:
                name = f"{short}.{fname}"
                out[f"{name}.s"] = total[name]
                out[f"{name}.self_s"] = self_s[name]
                out[f"{name}.calls"] = calls[name]
        for short, fnames in COUNTED.items():
            for fname in fnames:
                out[f"{short}.{fname}.calls"] = self.counts[f"{short}.{fname}"]
        for metric, _ in COMPUTED.values():
            out[metric] = self.computed[metric]
        out["bench.unaccounted_s"] = (window[1] - window[0]) - covered
        return out
