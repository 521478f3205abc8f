import contextlib
import hashlib
import io
import json
import os
import re
import signal
import time
import tracemalloc

import numpy as np
import pytest

import mumeb
from mumeb import construct, families, verify
from mumeb.cli import main
from mumeb.construct import MEBFamily, family_cd, family_ckd, family_ckd_mols
from mumeb.families import (SchemaError, family_from_dict, load_family,
                            matrix_from_json, save_family, save_report)
from mumeb.fields import ring_for_dimension
from mumeb.verify import VerificationReport, certify_family
from oracles import load_family_json, load_outcome, matrix_to_json, rotated_family


def family_to_dict(family):
    """The family document without its header, built as one dict."""
    return {
        "d": family.d,
        "k": family.k,
        "ring": family.ring.descriptor(),
        "generators": [{"label": label, "matrix": matrix_to_json(mat)}
                       for label, mat in family.generators],
        "metadata": family.metadata,
    }


def test_matrix_json_round_trip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    again = matrix_from_json(matrix_to_json(m), 4, "m")
    assert np.array_equal(again, m)  # doubles survive JSON exactly


def test_matrix_schema_errors():
    with pytest.raises(SchemaError, match="must have 2 rows"):
        matrix_from_json([[[1, 0]]], 2, "g")
    with pytest.raises(SchemaError, match="row 0 must have 2 entries"):
        matrix_from_json([[[1, 0]], [[1, 0], [0, 0]]], 2, "g")
    with pytest.raises(SchemaError, match=r"entry \(1,1\)"):
        matrix_from_json([[[1, 0], [0, 0]], [[0, 0], "x"]], 2, "g")
    with pytest.raises(SchemaError, match=r"entry \(0,0\)"):
        matrix_from_json([[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]], 2, "g")


def test_family_file_round_trip(tmp_path):
    fam = family_ckd(3, 4)
    path = tmp_path / "fam.json"
    save_family(fam, path)
    loaded = load_family(path)
    assert loaded.d == fam.d and loaded.k == fam.k
    assert [g[0] for g in loaded.generators] == [g[0] for g in fam.generators]
    assert loaded.ring == fam.ring
    assert loaded.metadata == fam.metadata
    for (_, a), (_, b) in zip(loaded.generators, fam.generators):
        assert np.array_equal(a, b)
    assert certify_family(loaded).passed


def test_saved_payload_is_deterministic(tmp_path, monkeypatch):
    fam = family_cd(3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_family(fam, p1)
    monkeypatch.setattr(families, "_header", lambda: {"note": "different header"})
    save_family(fam, p2)
    assert json.loads(p2.read_text())["header"] == {"note": "different header"}
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    d1.pop("header"), d2.pop("header")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_load_family_schema_errors(tmp_path):
    def roundtrip(mutate):
        doc = family_to_dict(family_cd(3))
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    with pytest.raises(SchemaError, match="missing required key 'ring'"):
        load_family(roundtrip(lambda d: d.pop("ring")))
    with pytest.raises(SchemaError, match="d and k must be integers"):
        load_family(roundtrip(lambda d: d.update(d="3")))
    with pytest.raises(SchemaError, match="bad ring descriptor"):
        load_family(roundtrip(lambda d: d["ring"]["factors"][0].update(modulus=[2, 0, 1])))
    with pytest.raises(SchemaError, match="does not match d"):
        load_family(roundtrip(lambda d: d.update(d=5, k=1)))
    with pytest.raises(SchemaError, match="unique"):
        load_family(roundtrip(
            lambda d: d["generators"].__setitem__(1, dict(d["generators"][0]))))
    with pytest.raises(SchemaError, match="nonempty list"):
        load_family(roundtrip(lambda d: d.update(generators=[])))
    with pytest.raises(SchemaError, match="label and a matrix"):
        load_family(roundtrip(lambda d: d["generators"].__setitem__(0, {"label": "x"})))

    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"d": 3, "k": 1, "ring"')
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_family(truncated)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError, match="top level"):
        load_family(arr)


def test_tampered_matrix_loads_then_fails_certification(tmp_path):
    doc = family_to_dict(family_cd(3))
    doc["generators"][2]["matrix"][0][0] = [5.0, 0.0]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    fam = load_family(path)  # schema-valid, so this must not raise
    report = certify_family(fam)
    assert not report.passed
    assert report.generator_errors[0]["label"] == doc["generators"][2]["label"]


def test_save_report(tmp_path):
    report = certify_family(family_cd(3))
    path = tmp_path / "report.json"
    save_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["passed"] is True
    assert doc["family_id"] == "gauss-dd-d3-k1"
    assert "wall_time_s" in doc["header"] and "wall_time_s" not in set(doc) - {"header"}
    assert len(doc["pairs"]) == 6 and len(doc["bases"]) == 4
    # the volatile fields all live in the header
    body = {k: v for k, v in doc.items() if k != "header"}
    again = tmp_path / "again.json"
    save_report(certify_family(family_cd(3)), again)
    body2 = {k: v for k, v in json.loads(again.read_text()).items() if k != "header"}
    assert json.dumps(body, sort_keys=True) == json.dumps(body2, sort_keys=True)


def test_save_report_writes_the_bytes_of_json_dump(monkeypatch, tmp_path):
    # save_report writes its rows from one text per class; the file is what
    # the pure-Python encoder of json.dump writes for the whole document
    monkeypatch.setattr(families, "_header", lambda extra: {"created": "fixed", **(extra or {})})
    report = certify_family(family_cd(19))
    path = tmp_path / "report.json"
    save_report(report, path, header_extra={"family_file": "f.json"})
    doc = {"header": {"created": "fixed", "family_file": "f.json",
                      "wall_time_s": report.wall_time_s, "stages": report.stages},
           **report.to_dict()}
    want = io.StringIO()
    json.dump(doc, want, sort_keys=True)
    want.write("\n")
    assert path.read_bytes() == want.getvalue().encode("utf-8")
    assert len(doc["pairs"]) == 630


def _relabelled(family, labels):
    return MEBFamily(family.d, family.k, family.ring,
                     [(label, mat) for label, (_, mat) in zip(labels, family.generators)],
                     family.metadata)


def _spoiled(family, at, factor):
    gens = list(family.generators)
    gens[at] = (gens[at][0], gens[at][1] * factor)
    return MEBFamily(family.d, family.k, family.ring, gens, family.metadata)


def _hand_built():
    """Rows that share a class id, keys and all but one value object: a
    figure that differs, 0.0 against -0.0, 1 against True and 1.0, and
    rows a template cannot carry."""
    report = VerificationReport("hand-d2-k1", 2, 1, 3, {"overlap": 1e-8})
    zero, one = 0.0, 1
    shared = {"class": 0, "overlap_max": 0.5, "pass": True, "route": "streamed", "x": zero}
    report.pair_results = [
        {"a": "u", "b": "v", **shared},
        {"a": "u", "b": "w", **shared, "overlap_max": 0.25},
        {"a": "v", "b": "w", **shared, "x": -0.0},
        {"a": "u", "b": "v", **shared, "x": one},
        {"a": "u", "b": "w", **shared, "x": True},
        {"a": "v", "b": "w", **shared, "x": 1.0},
        {"b": "v", "a": "u", **shared},  # other insertion order
        {"a": "u", **shared},  # a label missing
        {"a": "u", "b": "v", **shared, "x": [zero, {"z": 1, "y": float("nan")}]},  # unhashable
        {"a": 1, "b": True, **shared},  # labels that are not strings
        {"a": "u", "b": "v"},
        {"a": "u"},
    ]
    report.basis_results = [{"label": "u", "class": 0, "orthonormality": zero},
                            {"label": "v", "class": 0, "orthonormality": -0.0},
                            {"label": "w", "class": 0, "orthonormality": float("inf")}]
    return report


def _nan_certified(family, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "bruteforce_unbiased", lambda *a: calls.append(1) or (
        (float("nan"), float("inf")) if len(calls) % 2 else (float("-inf"), 0.5)))
    return certify_family(family)


@pytest.mark.parametrize("make", [
    lambda mp: certify_family(family_cd(7)),  # sparse, orbit and streamed
    lambda mp: certify_family(family_ckd(5, 4)),  # factored, with orbit_of and both residuals
    lambda mp: _nan_certified(family_cd(7), mp),
    lambda mp: certify_family(_spoiled(family_cd(7), 3, 1.5)),  # generator_errors only
    lambda mp: certify_family(family_cd(7), pairs_only=True),
    lambda mp: certify_family(_relabelled(family_cd(3), ['q"', "b\\", "caf\u00e9", "\u4e2d\n"])),
    lambda mp: _hand_built(),
], ids=["routes", "factored", "nan-inf", "generator-errors", "pairs-only", "escaped-labels",
        "hand-built"])
def test_save_report_writes_json_dumps_of_the_whole_document(make, monkeypatch, tmp_path):
    # rows are written from one template per class: the bytes must still be
    # those of json.dumps over the whole document
    monkeypatch.setattr(families, "_header", lambda extra: {"created": "fixed", **(extra or {})})
    report = make(monkeypatch)
    path = tmp_path / "report.json"
    save_report(report, path, header_extra={"family_file": "f.json"})
    header = {"created": "fixed", "family_file": "f.json", "wall_time_s": report.wall_time_s,
              "stages": report.stages}
    want = json.dumps({"header": header, **report.to_dict()}, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def test_save_report_encodes_each_class_once(monkeypatch, tmp_path):
    # four texts per pair class template, three per basis class template,
    # one per label object in each list, and the document's other members
    report = certify_family(family_cd(19))
    calls = []
    encode = families._encode
    monkeypatch.setattr(families, "_encode", lambda obj: calls.append(1) or encode(obj))
    save_report(report, tmp_path / "report.json")
    stages = report.stages
    assert len(calls) <= 4 * stages["classes"] + 3 * stages["basis_classes"] + 2 * 36 + 10
    assert len(calls) < len(report.pair_results) // 2


@pytest.mark.parametrize("field,value,message", [
    ("k", True, "d and k must be integers"),
    ("d", True, "d and k must be integers"),
    ("label", ["U", 1], "is not a string"),
    ("label", 5, "is not a string"),
    ("label", None, "is not a string"),
    ("entry", [True, False], "must be [re, im]"),
    ("entry", [float("nan"), 0.0], "non-finite number NaN"),
    ("entry", [0.0, float("-inf")], "non-finite number -Infinity"),
])
def test_load_family_rejects_non_integer_sizes_and_non_string_labels(
        tmp_path, capsys, field, value, message):
    doc = family_to_dict(family_cd(3))
    if field == "label":
        doc["generators"][1]["label"] = value
    elif field == "entry":
        doc["generators"][1]["matrix"][0][0] = value
    else:
        doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_family(path)
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def _without_header(text):
    """The file text without its top-level "header" member."""
    key = '"header": '
    start = text.index(key)
    _, end = json.JSONDecoder().raw_decode(text, start + len(key))
    if text.startswith(", ", end):
        end += 2
    return text[:start] + text[end:]


def _in_memory(*generators):
    """A d = 3, k = 1 family holding the given (label, 3 x 3 matrix) pairs,
    none of which need be unitary."""
    return MEBFamily(3, 1, ring_for_dimension(3), generators, {"note": "in memory"})


def _filled(*values):
    """A 3 x 3 complex matrix that repeats the given entries row by row."""
    return np.resize(np.array(values, dtype=complex), 9).reshape(3, 3)


SIGNED_ZEROS = _in_memory(
    ("zeros", _filled(0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))),
    ("ones", _filled(1.0, -0.0, complex(0.0, -1.0))))
NON_FINITE = _in_memory(
    ("nan", _filled(complex(float("nan"), 0.0), complex(1.0, float("nan")), 0.0)),
    ("inf", _filled(complex(float("inf"), float("-inf")), complex(float("-inf"), 0.0))))
EXTREMES = _in_memory(("tiny", _filled(5e-324, complex(-5e-324, 1e308))),
                      ("huge", _filled(1e308, complex(-1e308, 5e-324), 0.1)))
ODD_LABELS = _in_memory(('quote " and backslash \\', _filled(1.0)),
                        ("B_0\u2297U(a=1) \u00e9", _filled(0.5j)))
RNG = np.random.default_rng(7)
# d = 3, k = 3: each generator a Haar-random 9 x 9 unitary, so no block of 3
# cells repeats anywhere in the family
NO_REPEATED_BLOCK = MEBFamily(3, 3, ring_for_dimension(3), [
    (f"W{i}", np.linalg.qr(RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9)))[0])
    for i in range(3)])
DISJOINT = _in_memory(*[(f"G{i}", RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)))
                        for i in range(3)])


@pytest.mark.parametrize("build", [
    lambda: family_cd(81), lambda: family_ckd(3, 64), lambda: family_ckd(9, 4),
    lambda: family_ckd(15, 9), lambda: family_ckd_mols(7, 9), lambda: SIGNED_ZEROS,
    lambda: NON_FINITE, lambda: EXTREMES, lambda: ODD_LABELS, lambda: DISJOINT,
    lambda: NO_REPEATED_BLOCK,
], ids=["81-1", "3-64", "9-4", "15-9", "7-9-mols", "signed-zeros", "nan-inf", "5e-324-1e308",
        "quote-backslash-non-ascii-labels", "no-shared-cells", "no-repeated-block"])
def test_save_family_writes_the_bytes_of_json_dump(tmp_path, build):
    fam = build()
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    save_family(fam, fast)
    doc = {"header": {"created": "then"}, **family_to_dict(fam)}
    with open(slow, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    digests = [hashlib.sha256(_without_header(p.read_text(encoding="utf-8")).encode()).hexdigest()
               for p in (fast, slow)]
    assert digests[0] == digests[1]
    assert json.loads(fast.read_text(encoding="utf-8"))["header"]["tool"] == "mumeb 0.1.0"


@pytest.mark.parametrize("keyed", [1, 5, 256])
def test_blocks_keyed_a_few_at_a_time_give_the_same_bytes(tmp_path, monkeypatch, keyed):
    # new blocks first seen in any slab of a matrix, at any slab size
    family = family_ckd(9, 4)
    want = "".join(families.matrix_texts((mat for _, mat in family.generators), 9))
    assert want == "".join(json.dumps(matrix_to_json(mat)) for _, mat in family.generators)
    monkeypatch.setattr(families, "_KEYED", keyed)
    assert "".join(families.matrix_texts((mat for _, mat in family.generators), 9)) == want


def test_headers_name_the_package_version(tmp_path):
    fam = family_cd(3)
    save_family(fam, tmp_path / "family.json")
    save_report(certify_family(fam), tmp_path / "report.json")
    for name in ("family.json", "report.json"):
        header = json.loads((tmp_path / name).read_text(encoding="utf-8"))["header"]
        assert header["tool"] == f"mumeb {mumeb.__version__}"


def test_in_memory_families_hold_what_they_claim():
    # the writer cases above are only as strong as the bits they hold
    zeros = SIGNED_ZEROS.generators[0][1]
    assert len({zeros[0, i].tobytes() for i in range(3)} | {zeros[1, 0].tobytes()}) == 4
    assert np.isnan(NON_FINITE.generators[0][1].real[0, 0])
    assert np.isneginf(NON_FINITE.generators[1][1].imag[0, 0])
    assert EXTREMES.generators[0][1][0, 0] == 5e-324
    texts = [json.dumps(matrix_to_json(mat)) for _, mat in DISJOINT.generators]
    cells = [set(re.findall(r"\[[^][]*\]", text)) for text in texts]
    assert not (cells[0] & cells[1] or cells[0] & cells[2] or cells[1] & cells[2])
    blocks = [mat.reshape(-1, 3).tobytes() for _, mat in NO_REPEATED_BLOCK.generators]
    blocks = [b[i:i + 48] for b in blocks for i in range(0, len(b), 48)]
    assert len(set(blocks)) == len(blocks) == 81
    assert all(np.allclose(mat.conj().T @ mat, np.eye(9))
               for _, mat in NO_REPEATED_BLOCK.generators)


@pytest.mark.parametrize("build", [lambda: family_cd(81), lambda: family_ckd(3, 64),
                                   lambda: family_ckd_mols(7, 9), lambda: family_ckd(15, 9)],
                         ids=["81-1", "3-64", "7-9-mols", "15-9"])
def test_save_load_save_gives_the_same_bytes(tmp_path, build):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_family(build(), first)
    loaded = load_family(first)
    save_family(loaded, second)
    texts = [_without_header(p.read_text(encoding="utf-8")) for p in (first, second)]
    assert texts[0] == texts[1]
    assert _scanned(first) is not None


def _scanned(path):
    """What the scanner makes of the file at `path`: the document, or None."""
    with open(path, "rb") as fh:
        return families._scan_family(fh)


def _first(old, new):
    return lambda text: text.replace(old, new, 1)


# edits of the text of a saved family_cd(3); `scanned` says whether the
# scanner reads the result itself (True) or leaves it to json.loads (False)
LOADER_CASES = {
    "canonical": (lambda text: text, True),
    "1E5-cell": (_first("[1.0, 0.0]", "[1E5, 0.0]"), True),
    "exponent-without-sign": (_first("[1.0, 0.0]", "[1e5, 2.5e-3]"), True),
    "integer-cell": (_first("[1.0, 0.0]", "[1, 0]"), False),
    "minus-zero-integer": (_first("[1.0, 0.0]", "[-0, 0.0]"), False),
    "minus-zero-float": (_first("[1.0, 0.0]", "[-0.0, 0.0]"), True),
    "10**400-cell": (_first("[1.0, 0.0]", f"[{10 ** 400}, 0.0]"), False),
    "1e400-cell": (_first("[1.0, 0.0]", "[1e400, 0.0]"), False),
    "nan-cell": (_first("[1.0, 0.0]", "[NaN, 0.0]"), False),
    "nan-in-metadata": (_first('"metadata": {', '"metadata": {"x": NaN, '), False),
    "leading-zero": (_first("[1.0, 0.0]", "[01.0, 0.0]"), False),
    "unicode-digit": (_first("[1.0, 0.0]", "[\u0661.0, 0.0]"), False),
    "extra-space-in-cell": (_first("[1.0, 0.0]", "[1.0,  0.0]"), False),
    "newline-between-rows": (_first("]], [[", "]],\n[["), False),
    "newline-between-entries": (_first("]]}, {", "]]},\n{"), False),
    "space-before-document": (lambda text: " " + text, False),
    "reordered-entry-keys": (lambda text: re.sub(
        r'\{"label": ("[^"]*"), "matrix": (\[\[\[.*?\]\]\])\}', r'{"matrix": \2, "label": \1}',
        text, count=1), False),
    "reordered-top-keys": (lambda text: '{"k": 1, ' + text[1:].replace(', "k": 1', "", 1),
                           False),
    "duplicate-generators": (lambda text: text[:text.rindex("}")] + ', "generators": '
                             + json.dumps([{"label": "x", "matrix": [[[1.0, 0.0]] * 3] * 3}])
                             + "}\n", False),
    "duplicate-d": (lambda text: text[:text.rindex("}")] + ', "d": 5}\n', False),
    "duplicate-d-same-value": (lambda text: text[:text.rindex("}")] + ', "d": 3}\n', False),
    "duplicate-matrix": (_first(', "matrix": ', ', "matrix": [], "matrix": '), False),
    "duplicate-in-metadata": (_first('"metadata": {', '"metadata": {"a": 1, "a": 2, '), False),
    "matrix-key-in-metadata": (_first('"metadata": {', '"metadata": {"matrix": [[[1.0, 0.0]]], '),
                               True),
    "odd-label": (_first('"U(a=1)"', r'"U]]]\"}, {\\ ⊗"'), True),
    "bad-escape-in-label": (_first('"U(a=1)"', r'"U\q"'), False),
    "wrong-row-count": (_first("]], [[", "]]]}, {\"label\": \"extra\", \"matrix\": [[["), False),
    "four-closing-brackets": (_first("]]]}", "]]]]}"), False),
    "non-square": (lambda text: text.replace("], [0.0, 0.0]], [[", "]], [[", 1), False),
    "two-by-two-matrix": (lambda text: re.sub(r'"matrix": \[\[\[.*?\]\]\]',
                                              '"matrix": [[[1.0, 0.0], [0.0, 0.0]], '
                                              '[[0.0, 0.0], [1.0, 0.0]]]', text, count=1), True),
    "empty-matrix": (lambda text: re.sub(r'"matrix": \[\[\[.*?\]\]\]', '"matrix": []', text,
                                         count=1), False),
    "trailing-garbage": (lambda text: text + "x", False),
    "truncated": (lambda text: text[:len(text) // 2], False),
}


@pytest.mark.parametrize("case", LOADER_CASES)
def test_scanner_and_json_routes_agree(tmp_path, case):
    edit, scanned = LOADER_CASES[case]
    path = tmp_path / "edited.json"
    save_family(family_cd(3), path)
    text = edit(path.read_text(encoding="utf-8"))
    assert text != path.read_text(encoding="utf-8") or case == "canonical"
    path.write_text(text, encoding="utf-8")
    assert (_scanned(path) is not None) == scanned
    assert load_outcome(load_family, path) == load_outcome(load_family_json, path)


@pytest.mark.parametrize("build", [lambda: family_ckd(3, 4), lambda: family_ckd_mols(5, 4),
                                   lambda: family_cd(15), lambda: family_ckd_mols(7, 9),
                                   lambda: family_ckd(15, 9), lambda: family_ckd(3, 64),
                                   lambda: NO_REPEATED_BLOCK],
                         ids=["3-4", "5-4-mols", "15-1", "7-9-mols", "15-9", "3-64",
                              "no-repeated-block"])
def test_scanner_reads_saved_families_bit_for_bit(tmp_path, build):
    path = tmp_path / "fam.json"
    save_family(build(), path)
    assert _scanned(path) is not None
    assert load_outcome(load_family, path) == load_outcome(load_family_json, path)
    # an indented copy is left to json.loads and matrix_from_json's cell loop
    indented = tmp_path / "indented.json"
    with open(path, encoding="utf-8") as src, open(indented, "w", encoding="utf-8") as fh:
        json.dump(json.load(src), fh, indent=1)
    assert _scanned(indented) is None
    assert load_outcome(load_family, indented) == load_outcome(load_family, path)


def _assert_read_only(family):
    """Every generator is frozen: numpy refuses to write it or to make it,
    or a view of it, writeable."""
    for label, mat in family.generators:
        assert construct.is_frozen(mat) and not mat.flags.writeable, label
        for view in (mat, mat[1:], mat.T):
            with pytest.raises(ValueError):
                view.setflags(write=True)
        with pytest.raises(ValueError):
            mat[0, 0] = 0.5


@pytest.mark.parametrize("route", ["scanned", "json-route"])
@pytest.mark.parametrize("build", [lambda: family_cd(5), lambda: family_ckd(3, 4),
                                   lambda: family_ckd_mols(3, 4)],
                         ids=["5-1", "3-4", "3-4-mols"])
def test_every_builder_gives_read_only_generators(tmp_path, build, route):
    family = build()
    _assert_read_only(family)
    path = tmp_path / "fam.json"
    save_family(family, path)
    if route == "json-route":
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    assert (_scanned(path) is not None) == (route == "scanned")
    loaded = load_family(path)
    _assert_read_only(loaded)
    assert all(np.array_equal(a.view(np.uint8), b.view(np.uint8))
               for (_, a), (_, b) in zip(family.generators, loaded.generators))


def test_a_family_of_user_arrays_holds_read_only_copies():
    ring = ring_for_dimension(3)
    mine = [np.eye(3), np.eye(3, dtype=complex)[::-1], np.eye(3, dtype=complex).T]
    family = MEBFamily(3, 1, ring, [(f"m{i}", m) for i, m in enumerate(mine)])
    _assert_read_only(family)
    for m, (_, held) in zip(mine, family.generators):
        assert m.flags.writeable and np.array_equal(held, m)
    again = MEBFamily(3, 1, ring, family.generators)  # frozen arrays are not copied
    assert all(a is b for (_, a), (_, b) in zip(family.generators, again.generators))


def test_scanned_cell_codes_take_the_smallest_unsigned_dtype(tmp_path, monkeypatch):
    ring = ring_for_dimension(5)
    rng = np.random.default_rng(7)
    # a matrix of one distinct cell, then one of 400, past 256
    family = MEBFamily(5, 4, ring, [("flat", np.full((20, 20), 0.5 + 0.0j)),
                                   ("random", rng.standard_normal((20, 20)) + 0.5j)])
    path = tmp_path / "fam.json"
    save_family(family, path)
    scan, codes = families._scan_matrix, []
    monkeypatch.setattr(families, "_scan_matrix", lambda *a: codes.append(scan(*a)) or codes[-1])
    loaded = load_family(path)
    assert [c.dtype for c in codes] == [np.uint8, np.uint16]
    assert all(np.array_equal(a.view(np.uint8), b.view(np.uint8))
               for (_, a), (_, b) in zip(family.generators, loaded.generators))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_scanner_gives_the_same_verdicts_in_chunks_of_a_few_bytes(tmp_path, monkeypatch, chunk):
    # every cut of the file into reads: a read ends at every offset of each
    # entry and of its closing "}", and no verdict or outcome moves
    base = tmp_path / "base.json"
    save_family(family_cd(3), base)
    text = base.read_text(encoding="utf-8")
    want = {}
    for case, (edit, _) in LOADER_CASES.items():
        path = tmp_path / f"{case}.json"
        path.write_text(edit(text), encoding="utf-8")
        want[case] = (_scanned(path) is not None, load_outcome(load_family, path))
    monkeypatch.setattr(families, "_CHUNK", chunk)
    for case, (_, scanned) in LOADER_CASES.items():
        path = tmp_path / f"{case}.json"
        assert (_scanned(path) is not None, load_outcome(load_family, path)) == want[case], case
        assert want[case][0] == scanned, case


@pytest.mark.parametrize("case", ["space-before-document", "reordered-top-keys",
                                  "reordered-entry-keys", "newline-between-entries"])
def test_scanner_stops_reading_where_the_layout_departs(tmp_path, monkeypatch, case):
    # bytes that leave a pattern's fixed start cannot match, so the scanner
    # gives up there rather than read on to the end of the file
    edit, scanned = LOADER_CASES[case]
    path = tmp_path / "edited.json"
    save_family(family_cd(3), path)
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    monkeypatch.setattr(families, "_CHUNK", 16)
    with open(path, "rb") as fh:
        assert not scanned and families._scan_family(fh) is None
        assert fh.tell() < path.stat().st_size // 2


@pytest.mark.parametrize("build", [lambda: family_ckd(3, 4), lambda: family_ckd_mols(5, 4),
                                   lambda: family_cd(15)], ids=["3-4", "5-4-mols", "15-1"])
def test_saved_families_load_bit_for_bit_in_chunks_of_a_few_bytes(tmp_path, monkeypatch, build):
    path = tmp_path / "fam.json"
    save_family(build(), path)
    want = load_outcome(load_family_json, path)
    monkeypatch.setattr(families, "_CHUNK", 5)
    assert _scanned(path) is not None
    assert load_outcome(load_family, path) == want


@pytest.mark.parametrize("build", [lambda: family_cd(9), lambda: family_ckd(3, 4),
                                   lambda: family_ckd(15, 9), lambda: family_ckd(3, 64),
                                   lambda: family_ckd_mols(7, 9), lambda: NO_REPEATED_BLOCK],
                         ids=["9-1", "3-4", "15-9", "3-64", "7-9-mols", "no-repeated-block"])
def test_scanner_keys_each_distinct_block_of_d_cells_once(tmp_path, monkeypatch, build):
    # the dictionary unit is a block of d cells of a row, which is a whole
    # row at k = 1: no row text of a k >= 2 matrix is held
    family = build()
    path = tmp_path / "fam.json"
    save_family(family, path)
    scan, held = families._scan_matrix, []
    monkeypatch.setattr(families, "_scan_matrix",
                        lambda span, blocks, *a: held.append(blocks) or scan(span, blocks, *a))
    loaded = load_family(path)
    distinct = {mat[r, c:c + family.d].tobytes() for _, mat in family.generators
                for r in range(len(mat)) for c in range(0, len(mat), family.d)}
    assert len(held[-1]) == len(distinct)
    assert {text.count(b"], [") + 1 for text in held[-1]} == {family.d}
    assert all(np.array_equal(a.view(np.uint8), b.view(np.uint8))
               for (_, a), (_, b) in zip(family.generators, loaded.generators))


def test_a_changed_cell_in_a_repeated_block_changes_that_entry_alone(tmp_path):
    family = family_ckd(3, 4)
    label, mat = family.generators[2]
    blocks = [m[r, c:c + 3].tobytes() for _, m in family.generators
              for r in range(12) for c in range(0, 12, 3)]
    row, col = 4, 7  # in block (4, 6:9), which holds other bits than [5.0, 0.0]
    assert blocks.count(mat[row, 6:9].tobytes()) > 1 and mat[row, col] != 5.0
    doc = family_to_dict(family)
    doc["generators"][2]["matrix"][row][col] = [5.0, 0.0]
    path = tmp_path / "tampered.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    assert _scanned(path) is not None
    loaded = load_family(path)  # schema-valid, so this must not raise
    want = np.array(mat)
    want[row, col] = 5.0
    for (_, a), (_, b) in zip(loaded.generators, family.generators):
        assert np.array_equal(a.view(np.uint8), (want if b is mat else b).view(np.uint8))
    report = certify_family(loaded)
    assert not report.passed
    assert report.generator_errors[0]["label"] == label


def _after_cell(n, old, new):
    """An edit of the bytes `old` that follow the n-th cell of the first
    matrix (n counted from 1) into `new`."""
    def edit(text):
        closers = re.compile(r"[0-9]\]").finditer(text, text.index("[[["))
        at = [match.end() - 1 for _, match in zip(range(n), closers)][-1]
        assert text.startswith(old, at), text[at:at + 8]
        return text[:at] + new + text[at + len(old):]
    return edit


def _rows(edit):
    """An edit of the list of row texts of the first matrix."""
    def edited(text):
        start = text.index("[[[") + 3
        end = text.index("]]]", start)
        rows = edit(text[start:end].split("]], [["))
        return text[:start] + "]], [[".join(rows) + text[end:]
    return edited


# edits of the text of a saved family_ckd(3, 4), whose rows hold 4 blocks of
# 3 cells; the scanner leaves each to json.loads (False) or reads it (True).
# A separator in the first row also changes the row length the scanner
# reads, so most edits are in the second row.
BLOCK_CASES = {
    "canonical": (lambda text: text, True),
    "newline-between-blocks": (_after_cell(3, "], [", "],\n["), False),
    "newline-between-blocks-of-row-2": (_after_cell(15, "], [", "],\n["), False),
    "space-for-comma-between-blocks": (_after_cell(15, "], [", "]  ["), False),
    "no-space-between-blocks": (_after_cell(18, "], [", "],["), False),
    "brace-between-blocks": (_after_cell(15, "], [", "}, ["), False),
    "newline-inside-a-block": (_after_cell(13, "], [", "],\n["), False),
    "newline-between-rows": (_after_cell(12, "]], [[", "]],\n[["), False),
    "space-for-comma-between-rows": (_after_cell(24, "]], [[", "]]  [["), False),
    "space-before-last-block": (_after_cell(9 * 12 + 9, "], [", "],  ["), False),
    "a-row-more": (_rows(lambda rows: rows + rows[1:2]), False),
    "a-row-fewer": (_rows(lambda rows: rows[:-1]), False),
    "three-rows-more": (_rows(lambda rows: rows + rows[1:4]), False),
    "a-block-more-in-row-2": (_rows(lambda rows: [rows[0], rows[1] + "], [" + "], [".join(
        rows[1].split("], [")[:3]), *rows[2:]]), False),
    "a-block-fewer-in-row-2": (_rows(lambda rows: [rows[0], "], [".join(
        rows[1].split("], [")[3:]), *rows[2:]]), False),
    "four-closing-brackets": (_first("]]]}", "]]]]}"), False),
    "d-5-divides-no-row": (_first('{"d": 3, ', '{"d": 5, '), True),
    "d-4-divides-the-row": (_first('{"d": 3, ', '{"d": 4, '), True),
    "d-1": (_first('{"d": 3, ', '{"d": 1, '), True),
    "d-12-a-row": (_first('{"d": 3, ', '{"d": 12, '), True),
    "d-24": (_first('{"d": 3, ', '{"d": 24, '), True),
    "d-0": (_first('{"d": 3, ', '{"d": 0, '), True),
    "d-minus-3": (_first('{"d": 3, ', '{"d": -3, '), True),
    "d-of-40-digits": (_first('{"d": 3, ', '{"d": ' + "3" * 40 + ", "), True),
    "d-with-a-leading-zero": (_first('{"d": 3, ', '{"d": 03, '), False),
}


@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
def test_block_layout_edits_load_as_json_loads_reads_them(tmp_path, monkeypatch, chunk):
    # a changed separator byte between two blocks or rows, or a "d" that cuts
    # the rows into other blocks or none, loads or fails as the json route does
    base = tmp_path / "base.json"
    save_family(family_ckd(3, 4), base)
    text = base.read_text(encoding="utf-8")
    if chunk:
        monkeypatch.setattr(families, "_CHUNK", chunk)
    for case, (edit, scanned) in BLOCK_CASES.items():
        path = tmp_path / f"{case}.json"
        path.write_text(edit(text), encoding="utf-8")
        assert (_scanned(path) is not None) == scanned, case
        assert load_outcome(load_family, path) == load_outcome(load_family_json, path), case


def test_long_label_holding_brackets_across_a_read_is_scanned(tmp_path, monkeypatch):
    # the odd-label case with 100 more "]": its entry is longer than the
    # first bytes the scanner holds, so it reads on until the entry matches
    edit, _ = LOADER_CASES["odd-label"]
    path = tmp_path / "odd.json"
    save_family(family_cd(3), path)
    text = edit(path.read_text(encoding="utf-8")).replace('⊗"', "⊗" + "]" * 100 + '"', 1)
    path.write_text(text, encoding="utf-8")
    data = path.read_bytes()
    brackets = data.index(b"U]]]")
    assert data.index(b"]]]") == brackets + 1  # the label's come before any matrix's
    want = load_outcome(load_family_json, path)
    for cut in range(brackets + 1, brackets + 5):  # a read ends before, inside and after them
        monkeypatch.setattr(families, "_CHUNK", cut)
        assert _scanned(path) is not None, cut
        assert load_outcome(load_family, path) == want, cut


def test_crlf_file_reads_as_text_does(tmp_path):
    # the scanner reads bytes, where "\r\n" is two characters; the json route
    # reads text with universal newlines, where it is one
    path = tmp_path / "crlf.json"
    save_family(family_cd(3), path)
    data = path.read_bytes()
    data = data.replace(b', "k": ', b',\r\n"k": ').replace(b"}\n", b"}\r\n")
    path.write_bytes(data)
    assert _scanned(path) is not None
    assert load_outcome(load_family, path) == load_outcome(load_family_json, path)
    path.write_bytes(data + b"x")
    assert _scanned(path) is None
    outcome = load_outcome(load_family, path)
    assert outcome == load_outcome(load_family_json, path)
    assert outcome[1].startswith("not valid JSON: Extra data: line 3 column 1")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("indent", [None, 1], ids=["scanned", "json-route"])
def test_family_is_read_from_a_pipe(tmp_path, indent):
    # a pipe cannot be read twice, so the json route gets the bytes the
    # scanner held
    path = tmp_path / "fam.json"
    save_family(family_cd(3), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    data = (json.dumps(doc, sort_keys=True, indent=indent) + "\n").encode()
    path.write_bytes(data)
    read, write = os.pipe()
    try:
        os.write(write, data)  # a few KB, within the pipe's buffer
        os.close(write)
        outcome = load_outcome(load_family, f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert outcome == load_outcome(load_family_json, path)


def test_load_holds_no_copy_of_the_file(tmp_path):
    # the 6.25 MB file of family_cd(49) holds 3.69 MB of generators; reading
    # the whole text held the file twice over (bytes and str) as well
    path = tmp_path / "fam.json"
    save_family(family_cd(49), path)
    tracemalloc.start()
    try:
        fam = load_family(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    generator_bytes = sum(mat.nbytes for _, mat in fam.generators)
    assert path.stat().st_size > 6_000_000 and generator_bytes > 3_600_000
    assert peak < generator_bytes + 2 * 2 ** 20, (peak, generator_bytes)


def test_matrix_from_json_keeps_every_bit_of_each_entry():
    # ints beyond 2^53, signed zeros and the float extremes convert exactly
    # as complex(re, im) converts them
    rows = [[[2 ** 64 + 1, -0.0], [1e308, 5]], [[-(2 ** 70) + 3, 0], [5e-324, -(2 ** 53) - 1]]]
    got = matrix_from_json(rows, 2, "g")
    want = np.array([[complex(*cell) for cell in row] for row in rows])
    assert got.tobytes() == want.tobytes()


def test_integer_entry_beyond_the_float_range_is_malformed(tmp_path, capsys):
    doc = family_to_dict(family_cd(3))
    doc["generators"][1]["matrix"][2][1] = [0, 10 ** 400]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape("entry (2,1) is too large for a float")):
        load_family(path)
    assert main(["verify", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def _assert_header_stages(tmp_path, fam, factored, sparse, expansions):
    report = certify_family(fam)
    path = tmp_path / "report.json"
    save_report(report, path)
    doc = json.loads(path.read_text())
    stages = doc["header"]["stages"]
    keys = ("bases", "pairs", "classes", "expansions", "slabs_checked", "factored_basis_classes",
            "factored_pair_classes", "sparse_pair_classes")
    # d - 1 slabs checked per expansion
    assert {key: stages[key] for key in keys} == \
        {"bases": 4, "pairs": 6, "classes": 6, "expansions": expansions,
         "slabs_checked": (fam.d - 1) * expansions,
         "factored_basis_classes": 4 * factored, "factored_pair_classes": 6 * factored,
         "sparse_pair_classes": sparse}
    assert all(stages[key] >= 0 for key in ("unitarity_s", "identity_blocks_s",
                                            "bases_s", "classes_s", "expansions_s"))
    # outside the header the report is to_dict()
    body = {k: v for k, v in doc.items() if k != "header"}
    assert body == json.loads(json.dumps(report.to_dict()))


def test_report_header_carries_stage_timings_and_counts(tmp_path):
    # the rotated family does not factor and no W is monomial, so it streams
    # B_I, 4 bases and 6 B_W at N = 36, no one a row gather of another
    _assert_header_stages(tmp_path, rotated_family(family_ckd(3, 4)), False, 0, 1 + 4 + 6)


def test_report_header_counts_the_factored_classes(tmp_path):
    # family_ckd(3, 4) factors, so it streams at the d-level N = 9: B_{I_d},
    # which is also B_C of the first basis, B_C of the second and of the
    # third, of which the fourth C is a row gather, and one B_Y for the 4
    # dense Y, the others being row gathers of it or of a planned C; the Y
    # of the U-U and V-V pairs are monomial and take the sparse product
    _assert_header_stages(tmp_path, family_ckd(3, 4), True, 2, 4)


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace(b'"d": 3', b'"d": ' + b"1" * 5000),
     "unreadable number: Exceeds the limit"),
    (lambda text: text.replace(b'"U(a=2)"', b'"U(a=2)\xff"'),
     "not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
], ids=["5000-digit-int", "byte-0xff"])
def test_unreadable_family_text_is_malformed(tmp_path, capsys, edit, message):
    # Python refuses int literals of more than 4,300 digits, and the file
    # must decode as UTF-8; both are malformed input, not a usage error
    path = tmp_path / "bad.json"
    path.write_bytes(edit(json.dumps(family_to_dict(family_cd(3))).encode()))
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_family(path)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError inside the block once `seconds` have passed, so that
    a hang fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mutate,message", [
    (lambda doc: doc["ring"]["factors"][0].update(p=10 ** 30 + 57),
     "ring size 1000000000000000000000000000057^1 does not match d=3"),
    (lambda doc: doc["ring"]["factors"][0].update(a=40), "ring size 3^40 does not match d=3"),
    (lambda doc: doc["ring"]["factors"][0].update(modulus=[0.5, 1]),
     "p, a and the modulus entries must be integers"),
    (lambda doc: doc["ring"]["factors"][0].update(a=True), "must be integers"),
    (lambda doc: doc.update(metadata=[1, 2]), "metadata must be an object"),
    (lambda doc: doc["generators"][1]["matrix"][2].__setitem__(1, [0.0, "BIG"]),
     "generator U(a=2): entry (2,1) is too large for a float"),
], ids=["huge-p", "huge-a", "float-modulus", "bool-a", "list-metadata", "1e400-entry"])
def test_malformed_descriptor_metadata_and_entries_exit_2_at_once(
        tmp_path, capsys, mutate, message):
    doc = family_to_dict(family_cd(3))
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "1e400"))
    with _deadline(10):
        t0 = time.perf_counter()
        code = main(["verify", str(path)])
        elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0
    assert err.startswith("input error: ") and err.count("\n") == 1 and message in err
