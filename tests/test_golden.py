"""Golden run: a fixed list of CLI commands with pinned exit codes, payload
digests and JSON output, stored in golden.json next to this file.

Family payloads are hashed outside their "header" object (timestamps and
tool version live there).  Reports are pinned on everything that is not a
floating-point deviation: labels, pass flags, tolerances and the verdict.
In plain-text output, numbers printed as `%.3e` are masked, since they are
rounding-level residues of BLAS products.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from mumeb.cli import main

# (name, argv); "{t}" is the temporary directory
COMMANDS = [
    ("construct-3-1", "construct --d 3 --k 1 --out {t}/f3_1.json"),
    ("construct-15-1", "construct --d 15 --k 1 --out {t}/f15_1.json"),
    ("construct-9-4", "construct --d 9 --k 4 --out {t}/f9_4.json"),
    ("construct-7-9-mols", "construct --d 7 --k 9 --variant mols --out {t}/f7_9.json"),
    ("verify-3-1", "verify {t}/f3_1.json --report {t}/r3_1.json"),
    ("verify-15-1", "verify {t}/f15_1.json --report {t}/r15_1.json"),
    ("verify-9-4", "verify {t}/f9_4.json --report {t}/r9_4.json"),
    ("verify-7-9-mols", "verify {t}/f7_9.json --report {t}/r7_9.json"),
    ("bound-9-676", "bound --d 9 --k 676 --json"),
    ("bound-25-range", "bound --d 25 --k-range 1..10 --json"),
    ("mols-gen-10", "mols gen --x 10 --out {t}/m10.txt"),
    ("mols-gen-3", "mols gen --x 3 --out {t}/m3.txt"),
    ("mols-check-10", "mols check {t}/m10.txt --json"),
    ("bound-9-100-file", "bound --d 9 --k 100 --mols-file {t}/m10.txt --json"),
    ("construct-7-9-file", "construct --d 7 --k 9 --variant mols --mols-file {t}/m3.txt "
                           "--out {t}/f7_9_file.json"),
    ("mols-net-5", "mols net --x 5"),
    ("mols-net-file", "mols net --file {t}/m10.txt"),
    ("mols-mubs-3", "mols mubs --x 3 --out {t}/mubs9.json"),
    ("mols-mubs-file", "mols mubs --file {t}/m3.txt"),
    ("gauss-21", "gauss --d 21 --json"),
]
FAMILIES = ["f3_1", "f15_1", "f9_4", "f7_9", "f7_9_file"]
REPORTS = ["r3_1", "r15_1", "r9_4", "r7_9"]
WHOLE_FILES = ["m10.txt", "m3.txt", "mubs9.json"]

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))


def _payload_text(text):
    """The JSON file text without its top-level "header" member."""
    key = '"header": '
    start = text.index(key)
    _, end = json.JSONDecoder().raw_decode(text, start + len(key))
    if text.startswith(", ", end):
        end += 2
    return text[:start] + text[end:]


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_skeleton(doc):
    return {
        "family_id": doc["family_id"],
        "n_bases": doc["n_bases"],
        "tolerances": doc["tolerances"],
        "generator_errors": [e["label"] for e in doc["generator_errors"]],
        "bases": [[b["label"], b["pass"]] for b in doc["bases"]],
        "pairs": [[p["a"], p["b"], p["pass"], p["criterion_pass"]] for p in doc["pairs"]],
        "passed": doc["passed"],
    }


def golden_run(tmp):
    """Run every command in `tmp`; return what the golden values pin."""
    out = {"commands": {}, "families": {}, "reports": {}, "files": {}}
    for name, template in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(template.format(t=tmp).split())
        stdout = buf.getvalue().replace(str(tmp), "<tmp>")
        if "--json" not in template:
            stdout = re.sub(r"-?\d\.\d{3}e[+-]\d+", "<e>", stdout)
        out["commands"][name] = [code, stdout]
    for name in FAMILIES:
        with open(f"{tmp}/{name}.json", encoding="utf-8") as fh:
            out["families"][name] = _sha(_payload_text(fh.read()))
    for name in REPORTS:
        with open(f"{tmp}/{name}.json", encoding="utf-8") as fh:
            out["reports"][name] = _report_skeleton(json.load(fh))
    for name in WHOLE_FILES:
        with open(f"{tmp}/{name}", encoding="utf-8") as fh:
            out["files"][name] = _sha(fh.read())
    return out


def test_golden_run(tmp_path):
    got = golden_run(tmp_path)
    for section in ("commands", "families", "reports", "files"):
        for name, want in GOLDEN[section].items():
            assert got[section][name] == want, f"{section} {name}"
        assert set(got[section]) == set(GOLDEN[section])
