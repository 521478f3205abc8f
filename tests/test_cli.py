import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mumeb import cli
from mumeb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_verify_round_trip(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    code, out, _ = run(capsys, "construct", "--d", "3", "--k", "1", "--out", str(fam))
    assert code == 0
    assert f"d=3 k=1 bases=4 rule=gauss-dd out={fam}" in out
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", str(fam), "--report", str(report))
    assert code == 0
    assert "passed=yes" in out
    doc = json.loads(report.read_text())
    assert doc["passed"] is True and len(doc["pairs"]) == 6
    code, out, _ = run(capsys, "verify", str(fam), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family_id"] == "gauss-dd-d3-k1"


def test_verify_json_is_deterministic(tmp_path, capsys):
    # the wall time and the stages go to the --report header, not to stdout
    fam = tmp_path / "fam.json"
    assert run(capsys, "construct", "--d", "3", "--out", str(fam))[0] == 0
    code, out, _ = run(capsys, "verify", str(fam), "--json")
    assert code == 0 and not {"wall_time_s", "stages"} & set(json.loads(out))
    assert run(capsys, "verify", str(fam), "--json") == (0, out, "")


@pytest.mark.parametrize("extra", [[], ["--json"], ["--pairs-only"]], ids=["text", "json", "pairs-only"])
def test_verify_progress_goes_to_stderr_alone(tmp_path, capsys, extra):
    # each stage prints its start and its end, done out of the total, with
    # an ETA; stdout and the report payload are what they are without it
    fam, plain, shown = tmp_path / "fam.json", tmp_path / "plain.json", tmp_path / "shown.json"
    assert run(capsys, "construct", "--d", "19", "--out", str(fam))[0] == 0
    code, out, err = run(capsys, "verify", str(fam), "--report", str(plain), *extra)
    assert (code, err) == (0, "")
    code, out_p, err_p = run(capsys, "verify", str(fam), "--report", str(shown), "--progress", *extra)
    assert code == 0 and out_p == out
    payload = [{k: v for k, v in json.loads(p.read_text()).items() if k != "header"}
               for p in (plain, shown)]
    assert payload[0] == payload[1]
    lines = err_p.splitlines()
    stages = [("unitarity", 36)] + ([] if extra == ["--pairs-only"] else [("basis classes", 2)]) + \
        [("pair classes", 52)]
    assert [line for line in lines if line.endswith(": 0/" + line.split("/")[-1])] == \
        [f"{stage}: 0/{total}" for stage, total in stages]
    for stage, total in stages:
        last = [line for line in lines if line.startswith(f"{stage}: ")][-1]
        assert re.fullmatch(rf"{stage}: {total}/{total} in \d+\.\d s, eta 0\.0 s", last), last


def test_progress_prints_at_most_once_a_second_with_an_eta(monkeypatch):
    # the ETA is the stage's mean time per item so far times the items left
    clock = iter([10.0, 10.5, 12.0, 12.5, 13.0])
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    stream = io.StringIO()
    show = cli._progress_printer(stream)
    for done in range(5):
        show("pair classes", done, 4)
    assert stream.getvalue().splitlines() == ["pair classes: 0/4",
                                              "pair classes: 2/4 in 2.0 s, eta 2.0 s",
                                              "pair classes: 4/4 in 3.0 s, eta 0.0 s"]


def test_construct_rejects_even_d(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--d", "4", "--k", "1",
                       "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert "d must be odd (or 2^m: unsupported for construction)" in err


def test_construct_variants(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--d", "3", "--k", "2",
                       "--out", str(tmp_path / "a.json"))
    assert code == 0 and "bases=3 rule=gauss-tensor" in out
    code, out, _ = run(capsys, "construct", "--d", "3", "--k", "4", "--variant", "mols",
                       "--out", str(tmp_path / "b.json"))
    assert code == 0 and "bases=3 rule=mols-net" in out
    code, _, err = run(capsys, "construct", "--d", "3", "--k", "2", "--variant", "mols",
                       "--out", str(tmp_path / "c.json"))
    assert code == 1 and "square k" in err
    code, _, err = run(capsys, "construct", "--d", "3", "--k", "5", "--variant", "mols",
                       "--out", str(tmp_path / "d.json"))
    assert code == 1 and "not a square" in err
    code, out, err = run(capsys, "construct", "--d", "3", "--k", "0",
                         "--out", str(tmp_path / "e.json"))
    assert code == 1 and out == "" and "usage error: k must be at least 1" in err


def test_mols_file_needs_the_mols_variant(tmp_path, capsys):
    squares = tmp_path / "m4.txt"
    assert run(capsys, "mols", "gen", "--x", "4", "--out", str(squares))[0] == 0
    out = tmp_path / "fam.json"
    for path in (squares, tmp_path / "nonexistent.txt"):
        code, _, err = run(capsys, "construct", "--d", "7", "--k", "4", "--mols-file", str(path),
                           "--out", str(out))
        assert code == 1 and "usage error: --mols-file needs --variant mols" in err
        assert not out.exists()
    code, _, err = run(capsys, "construct", "--d", "5", "--k", "9", "--variant", "mols",
                       "--mols-file", str(squares), "--out", str(out))
    assert code == 1 and "usage error: order 3 does not match squares of order 4" in err
    code, text, _ = run(capsys, "construct", "--d", "5", "--k", "16", "--variant", "mols",
                        "--mols-file", str(squares), "--out", str(out))
    assert code == 0 and "rule=mols-net" in text


def test_construct_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "construct", "--d", "5", "--k", "1")
    assert code == 0
    assert (tmp_path / "family_d5_k1_gauss.json").exists()


def test_construct_payload_is_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "construct", "--d", "9", "--k", "1", "--out", str(p1))[0] == 0
    assert run(capsys, "construct", "--d", "9", "--k", "1", "--out", str(p2))[0] == 0
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    d1.pop("header"), d2.pop("header")
    assert d1 == d2


def test_verify_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 3, "k"')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "input error" in err


def test_verify_tampered_family(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    run(capsys, "construct", "--d", "3", "--k", "1", "--out", str(fam))
    doc = json.loads(fam.read_text())
    doc["generators"][1]["matrix"][0][0] = [0.7, 0.0]
    fam.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(fam))
    assert code == 3
    assert "passed=no" in out
    label = doc["generators"][1]["label"]
    assert any(label in line for line in out.splitlines() if line.startswith("FAIL"))


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_verify_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, value):
    # inf would pass any family, and nan or a negative value fail every pair
    fam = tmp_path / "fam.json"
    run(capsys, "construct", "--d", "3", "--k", "1", "--out", str(fam))
    code, out, err = run(capsys, "verify", str(fam), "--tolerance", value)
    assert code == 1 and out == ""
    assert "usage error: --tolerance must be a finite number >= 0" in err
    assert run(capsys, "verify", str(fam), "--tolerance", "1e-8")[0] == 0


def test_verify_pairs_only(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    run(capsys, "construct", "--d", "3", "--k", "4", "--out", str(fam))
    code, out, _ = run(capsys, "verify", str(fam), "--pairs-only", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["bases"] == []


def test_include_identity_flag_is_gone(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--d", "3", "--k", "1",
                       "--include-identity", "--out", str(tmp_path / "a.json"))
    assert code == 1 and "unrecognized arguments" in err


def test_bound_command(tmp_path, capsys):
    code, out, _ = run(capsys, "bound", "--d", "9", "--k", "676")
    assert code == 0
    assert "d=9 k=676 bound=6 rule=mols-net [m_dd=16 pp=5 mols=6(literature)]" in out
    code, out, _ = run(capsys, "bound", "--d", "25", "--k", "5776")
    assert "bound=17 rule=prime-power" in out and "mols=8(literature)" in out
    code, out, _ = run(capsys, "bound", "--d", "9", "--k-range", "1..4")
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, out, _ = run(capsys, "bound", "--d", "9", "--k", "4", "--json")
    doc = json.loads(out)
    assert doc["combined"] == 5 and doc["rule"] == "prime-power"
    code, out, _ = run(capsys, "bound", "--d", "9", "--k-range", "1..2", "--json")
    assert [r["k"] for r in json.loads(out)] == [1, 2]
    assert run(capsys, "bound", "--d", "9")[0] == 1
    assert run(capsys, "bound", "--d", "9", "--k", "2", "--k-range", "1..2")[0] == 1
    assert run(capsys, "bound", "--d", "9", "--k-range", "oops")[0] == 1
    code, out, err = run(capsys, "bound", "--d", "9", "--k-range", "5..3")
    assert code == 1 and out == "" and "usage error: empty k range" in err


def test_bound_with_imported_squares(tmp_path, capsys):
    squares = tmp_path / "mols10.txt"
    assert run(capsys, "mols", "gen", "--x", "10", "--out", str(squares))[0] == 0
    code, out, _ = run(capsys, "bound", "--d", "9", "--k", "100",
                       "--mols-file", str(squares))
    assert code == 0 and "mols=3(imported)" in out
    code, out, _ = run(capsys, "bound", "--d", "9", "--k-range", "99..101",
                       "--mols-file", str(squares))
    assert code == 0 and "mols=3(imported)" in out


def test_bound_refuses_squares_that_fit_no_requested_k(tmp_path, capsys):
    squares = tmp_path / "m3.txt"
    assert run(capsys, "mols", "gen", "--x", "3", "--out", str(squares))[0] == 0
    for ks, asked in [(["--k", "100"], "k=100"), (["--k-range", "10..20"], "k=10..20")]:
        code, out, err = run(capsys, "bound", "--d", "9", *ks, "--mols-file", str(squares))
        assert code == 1 and out == ""
        assert err == (f"usage error: --mols-file holds squares of order 3, which bear only "
                       f"on k=9, not on {asked}\n")
    # k-argument errors still come before the fit check
    code, _, err = run(capsys, "bound", "--d", "9", "--mols-file", str(squares))
    assert code == 1 and "give exactly one of --k or --k-range" in err


def test_mols_gen_and_check(tmp_path, capsys):
    path = tmp_path / "m4.txt"
    code, out, _ = run(capsys, "mols", "gen", "--x", "4", "--out", str(path))
    assert code == 0 and "squares=3" in out
    assert path.read_text().startswith("4 3\n")
    code, out, _ = run(capsys, "mols", "check", str(path))
    assert code == 0 and "orthogonal=yes" in out
    code, out, _ = run(capsys, "mols", "check", str(path), "--json")
    assert json.loads(out) == {"x": 4, "squares": 3, "orthogonal": True}
    assert run(capsys, "mols", "gen", "--x", "1", "--out", str(tmp_path / "z.txt"))[0] == 1


def test_mols_check_failures(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n1 1\n")
    code, _, err = run(capsys, "mols", "check", str(bad))
    assert code == 3
    assert "row 0 repeats symbol 0 at columns 0 and 1" in err
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("what is this\n")
    code, _, err = run(capsys, "mols", "check", str(garbage))
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("argv", [
    "mols check {f}",
    "mols net --file {f}",
    "mols mubs --file {f}",
    "construct --d 3 --k 4 --variant mols --mols-file {f} --out {t}/fam.json",
    "bound --d 3 --k 4 --mols-file {f}",
])
def test_squares_file_without_squares_is_malformed(tmp_path, capsys, argv):
    empty = tmp_path / "empty.txt"
    empty.write_text("3 0\n")
    code, _, err = run(capsys, *argv.format(f=empty, t=tmp_path).split())
    assert code == 2 and "w=0" in err


def test_mols_net_and_mubs(tmp_path, capsys):
    code, out, _ = run(capsys, "mols", "net", "--x", "4")
    assert code == 0 and "(5,4)-net" in out
    assert run(capsys, "mols", "net")[0] == 1
    code, out, _ = run(capsys, "mols", "net", "--x", "4", "--file", "x.txt")
    assert code == 1
    outfile = tmp_path / "mubs.json"
    code, out, _ = run(capsys, "mols", "mubs", "--x", "3", "--out", str(outfile))
    assert code == 0 and "k=9 bases=4" in out
    doc = json.loads(outfile.read_text())
    assert doc["n_bases"] == 4 and doc["x"] == 3
    mats = [np.array([[complex(re, im) for re, im in row] for row in b])
            for b in doc["bases"]]
    overlaps = np.abs(mats[0].conj().T @ mats[1])
    assert np.abs(overlaps - 1 / 3).max() < 1e-9


def test_mols_mubs_exits_3_on_a_nan_deviation(capsys, monkeypatch):
    # a NaN overlap must fail, not be folded away by max(0.0, nan) = 0.0
    from mumeb import verify
    calls = []
    monkeypatch.setattr(verify, "bruteforce_unbiased",
                        lambda a, b: calls.append(1) or (float("nan"), float("nan")))
    code, out, _ = run(capsys, "mols", "mubs", "--x", "3")
    assert code == 3 and "worst-overlap-dev=nan" in out and len(calls) == 6


def test_gauss_command(capsys):
    code, out, _ = run(capsys, "gauss", "--d", "21")
    assert code == 0 and "max |sum - sqrt(d)|" in out
    code, out, _ = run(capsys, "gauss", "--d", "9", "--json")
    doc = json.loads(out)
    assert doc["d"] == 9 and doc["max_deviation"] < 1e-10
    assert run(capsys, "gauss", "--d", "6")[0] == 1


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1
    code, _, _ = run(capsys, "--help")
    assert code == 0



@pytest.mark.parametrize("module,name,argv", [
    ("construct", "family_ckd", lambda tmp: ["construct", "--d", "3", "--k", "100000",
                                             "--out", str(tmp / "big.json")]),
    ("verify", "certify_family", lambda tmp: ["verify", str(tmp / "fam.json")]),
    ("verify", "gauss_sum_check", lambda tmp: ["gauss", "--d", "100001"]),
], ids=["construct", "verify", "gauss"])
@pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array", ""],
                         ids=["numpy", "bare"])
def test_out_of_memory_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch, module, name,
                                                 argv, message):
    # a refused allocation, with numpy's message or none, exits 1 on one line
    assert run(capsys, "construct", "--d", "3", "--out", str(tmp_path / "fam.json"))[0] == 0

    def refuse(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(getattr(cli, module), name, refuse)
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("usage error: out of memory: ")
    assert (message or "an allocation was refused") in err
    assert not (tmp_path / "big.json").exists()


NO_MASKED_ARRAYS = """
import contextlib, io, sys
from mumeb import cli
for d, k, extra in [(19, 1, []), (15, 9, []), (3, 64, []), (5, 16, ["--variant", "mols"])]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (cli.main(["construct", "--d", str(d), "--k", str(k), "--out", "f.json", *extra]),
                 cli.main(["verify", "f.json"]))
    assert codes == (0, 0), (d, k, codes)
    assert "numpy.ma" not in sys.modules, f"numpy.ma imported by construct + verify at d={d} k={k}"
"""


def test_construct_and_verify_never_import_numpy_ma(tmp_path):
    # numpy.ma costs ~10 ms to import, and nothing here needs masked arrays;
    # numpy 2.4's np.unique without return_* flags imports it
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("import numpy alone loads numpy.ma here")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
