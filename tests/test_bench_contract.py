"""The benchmark traces mumeb by looking functions up on its modules by name
(bench/spans.py, SPANNED and COUNTED).  A rename or deletion in mumeb breaks
only traced bench runs, which the unit suite does not start, so the names are
checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    spans = _load_spans()
    return [(short, fname) for table in (spans.SPANNED, spans.COUNTED)
            for short, fnames in table.items() for fname in fnames]


@pytest.mark.parametrize("short,fname", _traced_names())
def test_traced_function_exists(short, fname):
    module = importlib.import_module(f"mumeb.{short}")
    assert callable(getattr(module, fname, None)), f"mumeb.{short}.{fname} is gone"
