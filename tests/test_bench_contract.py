"""The benchmark traces mumeb by looking functions up on its modules by name
(bench/spans.py, SPANNED and COUNTED) and computes figures from the
arguments of some calls (COMPUTED).  A rename, a deletion or a changed
argument type in mumeb breaks only traced bench runs, which the unit suite
does not start, so the names and the computed figures are checked here."""

import importlib
import importlib.util
import math
import numbers
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


def _capturing(original, got):
    """original, appending (args, kwargs, result) of each call to got."""
    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        got.append((args, kwargs, result))
        return result
    return capturing


@pytest.mark.parametrize("d,k", [(5, 1), (3, 4)])
def test_computed_figures_run_on_the_real_arguments(monkeypatch, tmp_path, d, k):
    # each function in spans.COMPUTED is given the arguments and result of
    # real calls, made as a bench iteration makes them (construct, then
    # verify, through the CLI), so a changed argument type fails here.
    # Certification never expands a whole basis, so expand_basis is called
    # on the family's generators directly.
    from mumeb import cli, construct, families, verify

    spans = _load_spans()
    modules = {"construct": construct, "families": families, "verify": verify}
    calls = {key: [] for key in spans.COMPUTED}
    for (short, fname), got in calls.items():
        monkeypatch.setattr(modules[short], fname, _capturing(getattr(modules[short], fname), got))
    path = str(tmp_path / f"family_d{d}_k{k}.json")
    assert cli.main(["construct", "--d", str(d), "--k", str(k), "--out", path]) == 0
    assert cli.main(["verify", path]) == 0
    family = families.load_family(path)
    for _, u in family.generators:
        construct.expand_basis(family.ring, u)
    for key, got in calls.items():
        assert got, f"{key} was not called"
        metric, value_of = spans.COMPUTED[key]
        for args, kwargs, result in got:
            value = value_of(args, kwargs, result)
            assert isinstance(value, numbers.Real) and math.isfinite(value), (metric, value)
