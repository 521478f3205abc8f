"""Fuzz the family JSON and squares-text loaders through the command line.

Each example mutates a valid file (the ring descriptor, the metadata, the
matrix cells, or the raw text), writes it, and runs `mumeb verify` or
`mumeb mols check` on it.  Whatever the mutation, cli.main must return 0, 1,
2 or 3 and let no exception escape, and load_family must read the family
file exactly as json.load alone would.  derandomize fixes the examples, so
the suite is the same on every run.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumeb.cli import main
from mumeb.construct import family_cd, family_ckd
from mumeb.families import load_family, save_family
from mumeb.mols import best_mols, format_mols
from oracles import load_family_json, load_outcome

FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)

# a number literal beyond the float range, which json parses to inf
BIG_LITERAL = "1e400"
# a lone continuation byte, a lead byte without its continuation, or bytes
# that never occur in UTF-8
NOT_UTF8 = [b"\x80", b"\xc3", b"\xe2\x82", b"\xfe", b"\xff"]

ints = st.one_of(st.integers(-3, 50), st.integers(-2 ** 80, 2 ** 80),
                 st.sampled_from([10 ** 30 + 57, 2 ** 61 - 1, 10 ** 400]))
scalars = st.one_of(st.none(), st.booleans(), ints,
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=4), st.just(BIG_LITERAL))
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=10)
DELETE = object()


@pytest.fixture(scope="module")
def base_text(tmp_path_factory):
    """The text of a saved family_cd(3) file, the seed of every mutation."""
    path = tmp_path_factory.mktemp("fuzz") / "base.json"
    save_family(family_cd(3), path)
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def block_text(tmp_path_factory):
    """The text of a saved family_ckd(3, 4) file, whose rows the scanner cuts
    into blocks of d = 3 cells."""
    path = tmp_path_factory.mktemp("fuzz") / "blocks.json"
    save_family(family_ckd(3, 4), path)
    return path.read_text(encoding="utf-8")


def _run(argv):
    """cli.main's exit code, with its output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def _verify_doc(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    # json writes BIG_LITERAL as a string; put the bare literal in its place
    path.write_text(json.dumps(doc).replace(json.dumps(BIG_LITERAL), BIG_LITERAL),
                    encoding="utf-8")
    return _run(["verify", str(path)])


def _set(obj, key, value):
    if value is DELETE:
        obj.pop(key, None)
    else:
        obj[key] = value


# values for each target of the descriptor fuzz: mostly near-valid ones,
# which get furthest into the loader
DESCRIPTOR_VALUES = {
    "p": ints, "a": ints, "d": ints, "k": ints,
    "modulus": st.lists(st.one_of(ints, st.floats(-4, 4)), max_size=5),
    "factor": st.fixed_dictionaries({"p": ints, "a": ints}),
}


@FUZZ
@given(target=st.sampled_from(["p", "a", "modulus", "factor", "factors", "ring", "d", "k"]),
       data=st.data())
def test_fuzzed_ring_descriptor_exits_cleanly(tmp_path_factory, base_text, target, data):
    value = data.draw(st.one_of(DESCRIPTOR_VALUES.get(target, st.nothing()), json_values,
                                st.just(DELETE)))
    doc = json.loads(base_text)
    factor = doc["ring"]["factors"][0]
    if target in ("p", "a", "modulus"):
        _set(factor, target, value)
    elif target == "factor":  # no factor at all, or a second one
        doc["ring"]["factors"] = [] if value is DELETE else [factor, value]
    elif target == "factors":
        _set(doc["ring"], "factors", value)
    else:
        _set(doc, target, value)
    assert _verify_doc(tmp_path_factory, doc) in {0, 1, 2, 3}


@FUZZ
@given(value=st.one_of(json_values, st.just(DELETE)))
def test_fuzzed_metadata_exits_cleanly(tmp_path_factory, base_text, value):
    doc = json.loads(base_text)
    _set(doc, "metadata", value)
    assert _verify_doc(tmp_path_factory, doc) in {0, 1, 2, 3}


@FUZZ
@given(g=st.integers(0, 3), i=st.integers(0, 2), j=st.integers(0, 2),
       part=st.sampled_from(["re", "im", "cell", "row", "matrix", "label"]),
       value=st.one_of(json_values, st.floats(min_value=-1e308, max_value=1e308)))
def test_fuzzed_matrix_cells_exit_cleanly(tmp_path_factory, base_text, g, i, j, part, value):
    doc = json.loads(base_text)
    entry = doc["generators"][g]
    if part in ("re", "im"):
        entry["matrix"][i][j][part == "im"] = value
    elif part == "cell":
        entry["matrix"][i][j] = value
    elif part == "row":
        entry["matrix"][i] = value
    else:
        entry["matrix" if part == "matrix" else "label"] = value
    # entries near the float limit overflow A^dag A; that must be a verdict,
    # not a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _verify_doc(tmp_path_factory, doc) in {0, 1, 2, 3}


@FUZZ
@given(data=st.data())
def test_fuzzed_family_text_exits_cleanly(tmp_path_factory, base_text, data):
    text = base_text
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, min(len(text), start + 8)))
    insert = data.draw(st.text(alphabet='[]{}",:0123456789.eE-+ nul', max_size=6))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text[:start] + insert + text[stop:], encoding="utf-8")
    assert _run(["verify", str(path)]) in {0, 1, 2, 3}


@FUZZ
@given(data=st.data())
def test_fuzzed_family_text_loads_alike_by_scanner_and_json(tmp_path_factory, base_text, data):
    # most edits land in the generators list, where the scanner reads
    text = base_text
    lo, hi = text.index('"generators"'), text.index('"header"')
    start = data.draw(st.one_of(st.integers(lo, hi), st.integers(0, len(text))))
    stop = data.draw(st.integers(start, min(len(text), start + 8)))
    insert = data.draw(st.text(alphabet='[]{}",:0123456789.eE-+ \nNaIfity\\', max_size=6))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text[:start] + insert + text[stop:], encoding="utf-8")
    assert load_outcome(load_family, path) == load_outcome(load_family_json, path)


@FUZZ
@given(data=st.data())
def test_fuzzed_block_family_text_loads_alike_by_scanner_and_json(tmp_path_factory, block_text,
                                                                  data):
    # the edits land in the first matrix, where the blocks are cut, or in "d"
    text = block_text
    lo = text.index('"matrix": ')
    hi = text.index("]]]", lo)
    start = data.draw(st.one_of(st.integers(lo, hi), st.integers(0, 12)))
    stop = data.draw(st.integers(start, min(len(text), start + 8)))
    insert = data.draw(st.text(alphabet='[]{}",:0123456789.eE-+ \n', max_size=6))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text[:start] + insert + text[stop:], encoding="utf-8")
    assert load_outcome(load_family, path) == load_outcome(load_family_json, path)


@FUZZ
@given(data=st.data())
def test_fuzzed_family_bytes_that_are_not_utf8_exit_2(tmp_path_factory, base_text, data):
    raw = base_text.encode("utf-8")
    at = data.draw(st.integers(0, len(raw)))
    bad = data.draw(st.sampled_from(NOT_UTF8))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(raw[:at] + bad + raw[at:])
    assert _run(["verify", str(path)]) == 2


SQUARES = format_mols(best_mols(3))


@FUZZ
@given(data=st.data())
def test_fuzzed_squares_text_exits_cleanly(tmp_path_factory, data):
    tokens = SQUARES.split(" ")
    how = data.draw(st.sampled_from(["token", "splice", "text", "bytes"]))
    if how == "token":
        k = data.draw(st.integers(0, len(tokens) - 1))
        tokens[k] = data.draw(st.one_of(ints.map(str), st.text(max_size=4)))
        text = " ".join(tokens)
    elif how == "splice":
        start = data.draw(st.integers(0, len(SQUARES)))
        stop = data.draw(st.integers(start, len(SQUARES)))
        text = SQUARES[:start] + data.draw(st.text(alphabet="0123 \n-x", max_size=6)) \
            + SQUARES[stop:]
    elif how == "text":
        text = data.draw(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                                 max_size=40))
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    codes = {0, 1, 2, 3}
    if how == "bytes":  # bytes that are not UTF-8 are malformed input
        raw = SQUARES.encode()
        at = data.draw(st.integers(0, len(raw)))
        path.write_bytes(raw[:at] + data.draw(st.sampled_from(NOT_UTF8)) + raw[at:])
        codes = {2}
    else:
        path.write_text(text, encoding="utf-8")
    assert _run(["mols", "check", str(path)]) in codes
    assert _run(["bound", "--d", "9", "--k", "9", "--mols-file", str(path)]) in codes
