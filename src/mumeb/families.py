"""JSON persistence for generator families and verification reports.

A family file is {"header": {...}, "d": int, "k": int, "ring": {...},
"generators": [{"label": str, "matrix": [[[re, im], ...], ...]}, ...],
"metadata": {...}}.  The header carries volatile fields (timestamps, tool
version) and is excluded from determinism comparisons; everything else is
written with sorted keys so equal payloads are byte-identical.

A family repeats a few distinct numbers many times, so matrices are coded
through a dictionary.  The writer encodes each distinct cell (by the bits
of its real and imaginary halves) and each distinct row once with
json.dumps and joins the texts; the file holds the bytes json.dump(doc,
fh, sort_keys=True) would write.  The loader's scanner reads the file as
bytes, a piece at a time, and never holds the whole file or a decoded copy of it.  It reads the matrices of a
file in exactly that layout, decoding each distinct row and cell text once
and gathering the arrays with numpy, each frozen (construct.frozen) as it is
gathered.  The rest of the document goes
through json.loads and family_from_dict.  A file the scanner does not fully
recognise (other whitespace, integer cells, non-finite values, duplicate
keys, bytes that are not UTF-8, ...) is read again from its start as text
and parsed by json.loads alone, so both routes give the same family or the
same error.
"""

import cmath
import io
import json
import re
import time

import numpy as np

from . import __version__, fields
from .construct import MEBFamily, frozen


class SchemaError(ValueError):
    """The file parses as JSON but does not describe a family."""


def matrix_from_json(rows, size, label):
    """The size x size complex matrix of a generator entry's "matrix" value:
    the parsed JSON rows, or the square array of finite entries that the
    family-file scanner decoded from the same text."""
    if not isinstance(rows, (list, np.ndarray)) or len(rows) != size:
        raise SchemaError(f"generator {label}: matrix must have {size} rows")
    if isinstance(rows, np.ndarray):
        return rows
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise SchemaError(f"generator {label}: row {i} must have {size} entries")
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(type(v) in (int, float) for v in cell)):  # no bools
                raise SchemaError(f"generator {label}: entry ({i},{j}) must be [re, im]")
            try:
                finite = cmath.isfinite(complex(cell[0], cell[1]))
            except OverflowError:
                finite = False
            if not finite:
                raise SchemaError(f"generator {label}: entry ({i},{j}) is too large "
                                  "for a float")
    return np.array(rows, dtype=float).view(complex).reshape(size, size)


def _plain_factor(factor):
    """Whether a factor descriptor holds plain ints p and a (no bools) and,
    if it has a modulus, a list of plain ints."""
    modulus = factor.get("modulus", []) if isinstance(factor, dict) else None
    return isinstance(modulus, list) and all(
        type(v) is int for v in [factor.get("p"), factor.get("a"), *modulus])


def _check_ring_size(factors, d):
    """Reject non-int factor fields, and sizes p^a whose product is not d,
    before any field is built.  The running product stops once it passes d,
    so a huge p or a costs no time; a factor with p < 2 or a < 1 is left for
    FiniteField to name."""
    if not all(map(_plain_factor, factors)):
        raise SchemaError("bad ring descriptor: p, a and the modulus entries must be integers")
    size = 1
    for f in factors:
        if f["p"] < 2 or f["a"] < 1:
            return
        for _ in range(f["a"]):
            size *= f["p"]
            if size > d:
                powers = " * ".join(f"{g['p']}^{g['a']}" for g in factors)
                raise SchemaError(f"ring size {powers} does not match d={d}")
    if size != d:
        raise SchemaError(f"ring size {size} does not match d={d}")


def _generator(entry, size):
    """(label, matrix) of one generator entry."""
    if not isinstance(entry, dict) or "label" not in entry or "matrix" not in entry:
        raise SchemaError("each generator needs a label and a matrix")
    label = entry["label"]
    if not isinstance(label, str):
        raise SchemaError(f"generator label {label!r} is not a string")
    return label, frozen(matrix_from_json(entry["matrix"], size, label))


def family_from_dict(payload):
    if not isinstance(payload, dict):
        raise SchemaError("top level must be an object")
    for key in ("d", "k", "ring", "generators"):
        if key not in payload:
            raise SchemaError(f"missing required key {key!r}")
    d, k = payload["d"], payload["k"]
    if type(d) is not int or type(k) is not int or d < 2 or k < 1:  # bool is not an int here
        raise SchemaError("d and k must be integers with d >= 2, k >= 1")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    ring_desc = payload["ring"]
    if not isinstance(ring_desc, dict) or not isinstance(ring_desc.get("factors"), list):
        raise SchemaError("ring must be an object with a factors list")
    _check_ring_size(ring_desc["factors"], d)
    gens_json = payload["generators"]
    if not isinstance(gens_json, list) or not gens_json:
        raise SchemaError("generators must be a nonempty list")
    # the k d rows of the first matrix bound d by the size of the file
    # before any field is built
    first = _generator(gens_json[0], k * d)
    try:
        ring = fields.ring_from_descriptor(ring_desc)
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"bad ring descriptor: {exc}") from exc
    generators = [first] + [_generator(entry, k * d) for entry in gens_json[1:]]
    labels = [lab for lab, _ in generators]
    if len(set(labels)) != len(labels):
        raise SchemaError("generator labels must be unique")
    return MEBFamily(d, k, ring, generators, metadata)


def _header(extra=None):
    head = {"created": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "tool": f"mumeb {__version__}"}
    if extra:
        head.update(extra)
    return head


def matrix_texts(matrices):
    """Yield the text json.dumps gives for each complex matrix written as
    [[[re, im], ...], ...], in order.

    Each distinct row (by its bytes) and each distinct cell (by the bits of
    its two halves, so -0.0 stays apart from 0.0) is encoded once across all
    the matrices.  Identical bits give identical text, so every text is
    json.dumps's."""
    cells, rows = {}, {}
    for mat in matrices:
        mat = np.ascontiguousarray(mat, dtype=complex)
        keys = mat.view(f"V{mat.strides[0]}").ravel().tolist()  # the bytes of each row
        fresh = {}
        for i, key in enumerate(keys):
            if key not in rows:
                fresh.setdefault(key, i)
        if fresh:
            bits = mat[list(fresh.values())].view(np.uint64)  # re, im, re, im, ... per row
            re, re_codes = np.unique(bits[:, 0::2], return_inverse=True)
            im, im_codes = np.unique(bits[:, 1::2], return_inverse=True)
            pairs, inverse = np.unique(re_codes * len(im) + im_codes, return_inverse=True)
            distinct = list(zip(re[pairs // len(im)].tolist(), im[pairs % len(im)].tolist()))
            for cell in set(distinct).difference(cells):
                cells[cell] = json.dumps(np.array(cell, np.uint64).view(float).tolist())
            text = np.array([cells[cell] for cell in distinct], dtype=object)
            for key, codes in zip(fresh, inverse.reshape(len(fresh), -1)):
                rows[key] = "[" + ", ".join(text[codes]) + "]"
        yield "[" + ", ".join(rows[key] for key in keys) + "]"


def write_json(path, members, key, items):
    """Write the bytes of json.dump(doc, fh, sort_keys=True) and a newline,
    for doc = members plus {key: [...]}, where `items` yields the JSON text of
    each element of that list in order; the document is never one string."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, name in enumerate(sorted([*members, key])):
            fh.write(("{" if i == 0 else ", ") + json.dumps(name) + ": ")
            if name != key:
                fh.write(json.dumps(members[name], sort_keys=True))
                continue
            fh.write("[")
            for j, item in enumerate(items):
                fh.write((", " if j else "") + item)
            fh.write("]")
        fh.write("}\n")


def save_family(family, path):
    """Write the bytes of json.dump(doc, fh, sort_keys=True) for the family
    document, one generator entry at a time."""
    members = {"header": _header(), "d": family.d, "k": family.k,
               "ring": family.ring.descriptor(), "metadata": family.metadata}
    texts = matrix_texts(mat for _, mat in family.generators)
    write_json(path, members, "generators",
               ('{"label": ' + json.dumps(label) + ', "matrix": ' + text + "}"
                for (label, _), text in zip(family.generators, texts)))


def _reject_constant(name):
    raise SchemaError(f"non-finite number {name} in family file")


# The layout save_family writes: the document opens with d and the
# generators list, and each entry is {"label": <string>, "matrix": [[[re,
# im], ...], ...]} with exactly these separators.  A cell literal must have a
# fraction or an exponent: json reads an integer literal such as -0 as an
# int, which float() would read differently.
_NUMBER = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_CELL = re.compile(b"(" + _NUMBER + b"), (" + _NUMBER + b")")
_HEAD = re.compile(rb'\{"d": -?[0-9]+, "generators": \[')
_ENTRY = re.compile(rb'\{"label": "(?:[^"\\]|\\.)*", "matrix": (?=\[\[\[)')
_NEXT, _END = re.compile(rb"\}, "), re.compile(rb"\}\]")
# the fixed start of each pattern: bytes that do not begin with it cannot
# match, however many more are read
_LEADS = {_HEAD: b'{"d": ', _ENTRY: b'{"label": "', _NEXT: b"}, ", _END: b"}]"}
# the scanner reads a family file this many bytes at a time
_CHUNK = 1 << 20


class _Unread:
    """The bytes of a binary file not yet taken: `buf` holds them from `pos`
    on, and the file holds the rest."""

    def __init__(self, fh):
        self.fh, self.buf, self.pos = fh, b"", 0

    def _drop(self):
        """Take the bytes from pos and hold none."""
        rest, self.buf, self.pos = self.buf[self.pos:], b"", 0
        return rest

    def match(self, pattern):
        """Take the bytes `pattern` matches from pos, or None if it does not
        match.  Until it matches, or the bytes held leave its fixed start,
        they double, by at least _CHUNK, up to the end of the file.  For
        these patterns a match on a prefix of the file is the match on the
        whole file: each repeated part stops at a byte it cannot take."""
        lead = _LEADS[pattern]
        while True:
            found = pattern.match(self.buf, self.pos)
            if found:
                self.pos = found.end()
                return found[0]
            if not self.buf.startswith(lead[:len(self.buf) - self.pos], self.pos):
                return None
            held = self._drop()
            more = self.fh.read(max(len(held), _CHUNK))
            self.buf = held + more
            if not more:
                return None

    def until(self, token):
        """Take the bytes from pos through the first `token`, or None if the
        file has none.  Each chunk read is searched once, with the
        len(token) - 1 bytes before it, and the parts are joined once."""
        end = self.buf.find(token, self.pos)
        if end >= 0:
            start, self.pos = self.pos, end + len(token)
            return self.buf[start:self.pos]
        keep = len(token) - 1
        parts = [self._drop()]
        tail = parts[0][-keep:]
        while True:
            chunk = self.fh.read(_CHUNK)
            if not chunk:
                return None
            found = (tail + chunk[:keep]).find(token)  # at the seam, else in the chunk
            if found < 0 and (found := chunk.find(token)) >= 0:
                found += len(tail)
            if found >= 0:
                end = found + len(token) - len(tail)
                parts.append(memoryview(chunk)[:end])
                self.buf, self.pos = chunk, end
                return b"".join(parts)
            parts.append(chunk)
            tail = (tail + chunk[-keep:])[-keep:]

    def rest(self):
        """Take every byte left."""
        return self._drop() + self.fh.read()


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


def _scan_matrix(span, rows, cells, values):
    """The cell codes of one matrix text [[[re, im], ...], ...], or None
    unless it is square and in the writer's layout.  `rows` and `cells` map
    each row and cell text seen so far to its codes; a new cell's value is
    appended to `values`.  A new row's codes take the smallest unsigned
    dtype that indexes `values` as it then stands, and the matrix the
    widest of its rows'."""
    row_texts = span[3:-3].split(b"]], [[")
    codes = []
    for text in row_texts:
        row = rows.get(text)
        if row is None:
            parts = text.split(b"], [")
            for part in set(parts).difference(cells):
                match = _CELL.fullmatch(part)
                if match is None:
                    return None
                cells[part] = len(values)
                values.append((float(match[1]), float(match[2])))
            row = rows[text] = np.array([cells[part] for part in parts],
                                        dtype=np.min_scalar_type(len(values) - 1))
        if len(row) != len(row_texts):
            return None
        codes.append(row)
    return np.array(codes)


def _scan_generators(source, pieces):
    """(codes, values) for the generators list whose first entry starts at
    the unread bytes of `source`, or None unless every entry is in the
    writer's layout: each matrix's square array of cell codes, and the
    distinct cell values.  The bytes outside the matrices are appended to
    `pieces`, each matrix replaced by 0.  The row and cell dictionaries end
    with this call, before the arrays are built."""
    codes, rows, cells, values = [], {}, {}, []
    while True:
        entry = source.match(_ENTRY)
        span = entry and source.until(b"]]]")
        if not span:
            return None
        codes.append(_scan_matrix(span, rows, cells, values))
        close = source.match(_NEXT) or source.match(_END)
        if codes[-1] is None or close is None:
            return None
        pieces += [entry, b"0", close]
        if close == b"}]":
            break
    pieces.append(source.rest())
    return codes, values


def _scan_family(fh):
    """The family document in the binary file `fh` with every matrix already
    decoded into a complex array, or None unless the generators are laid out
    exactly as save_family writes them, with finite entries, no duplicate
    key anywhere, and UTF-8 text.

    The file is read in pieces of _CHUNK bytes, larger only while a long
    entry needs them, and neither it nor a decoded copy of it is ever held
    whole.  Only the matrices are read here, as
    ASCII bytes: each distinct row and cell text is decoded once, and the
    arrays are gathered from the distinct values.  Everything else is
    decoded as strict UTF-8 and goes through json.loads with the matrices
    cut out, so the result is json.loads's; each cut falls on an ASCII
    byte, so it splits no UTF-8 sequence.  On None the caller reads the file
    again as text and parses it with json.loads, so every error reads as it
    would without the scanner."""
    source = _Unread(fh)
    pieces = [source.match(_HEAD)]
    scanned = pieces[0] and _scan_generators(source, pieces)
    if not scanned:
        return None
    codes, values = scanned
    try:
        payload = json.loads(b"".join(pieces).decode("utf-8"), parse_constant=_reject_constant,
                             object_pairs_hook=_unique_keys)
    except ValueError:  # UnicodeDecodeError too
        return None
    table = np.array(values, dtype=float).view(complex).ravel()
    if not np.isfinite(table).all():
        return None
    for i, entry in enumerate(payload["generators"]):
        entry["matrix"], codes[i] = frozen(table[codes[i]]), None  # free each code array once used
    return payload


def load_family(path):
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():  # a pipe: hold its bytes, so they can be read twice
                fh = io.BytesIO(fh.read())
            payload = _scan_family(fh)
            if payload is None:  # the json route reads the file again from its start, as text
                fh.seek(0)
                text = io.TextIOWrapper(fh, encoding="utf-8").read()
                payload = json.loads(text, parse_constant=_reject_constant)
    except SchemaError:
        raise
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise SchemaError(f"unreadable number: {exc}") from exc
    if isinstance(payload, dict):
        payload.pop("header", None)
    return family_from_dict(payload)


def save_report(report, path, header_extra=None):
    header = {**_header(header_extra), "wall_time_s": report.wall_time_s,
              "stages": report.stages}
    doc = {"header": header, **report.to_dict()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))  # the C encoder; json.dump never uses it
        fh.write("\n")
