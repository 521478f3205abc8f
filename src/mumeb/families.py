"""JSON persistence for generator families and verification reports.

A family file is {"header": {...}, "d": int, "k": int, "ring": {...},
"generators": [{"label": str, "matrix": [[[re, im], ...], ...]}, ...],
"metadata": {...}}.  The header carries volatile fields (timestamps, tool
version) and is excluded from determinism comparisons; everything else is
written with sorted keys so equal payloads are byte-identical.

A family repeats a few distinct numbers many times, so matrices are coded
through a dictionary whose unit is a block of d consecutive cells of a row.
At k = 1 a block is a whole row.  At k >= 2 a generator B (x) U has rows
(a, b) whose j-th block is B[a, j] U[b, :], and these repeat across rows and
generators where whole rows seldom do.  The writer encodes each distinct
cell (by the bits of its real and imaginary halves) and each distinct block
once with json.dumps and joins the texts; the file holds the bytes
json.dump(doc, fh, sort_keys=True) would write.  The loader's scanner reads
the file as bytes, a piece at a time, and never holds the whole file or a
decoded copy of it.  It reads the matrices of a file in exactly that
layout, with d taken from the document's head, decoding each distinct
block and cell text once and gathering the arrays with numpy, each frozen
(construct.frozen) as it is gathered.  The rest of the document goes
through json.loads and family_from_dict.  A file the scanner does not fully
recognise (other whitespace, integer cells, non-finite values, duplicate
keys, bytes that are not UTF-8, ...) is read again from its start as text
and parsed by json.loads alone, so both routes give the same family or the
same error.

A verification report repeats each class's figures in every basis row of
the class, and in every pair row of a class that is not factored, so
write_report builds each row from one text per set of figures and the
texts of its labels (_row_texts); the file holds the bytes json.dumps
gives for the whole document.
"""

import cmath
import io
import json
import operator
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


# json.dumps(obj, sort_keys=True) builds a new encoder on every call
_encode = json.JSONEncoder(sort_keys=True).encode


def _header(extra=None):
    head = {"created": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "tool": f"mumeb {__version__}"}
    if extra:
        head.update(extra)
    return head


# the writer keys at most this many blocks of a matrix at once, so a k >= 2
# matrix never holds a bytes object for each of its blocks at the same time
_KEYED = 256


def matrix_texts(matrices, width):
    """Yield the text json.dumps gives for each complex matrix written as
    [[[re, im], ...], ...], in order.

    The dictionary unit is a block of `width` consecutive cells of a row;
    width divides the row length.  Each distinct block (by its bytes) and
    each distinct cell (by the bits of its two halves, so -0.0 stays apart
    from 0.0) is encoded once across all the matrices, and one join renders
    each matrix from its block texts.  Identical bits give identical text,
    so every text is json.dumps's."""
    cells, blocks, parts = {}, {}, []
    for mat in matrices:
        cut = np.ascontiguousarray(mat, dtype=complex).reshape(-1, width)
        texts = []
        for start in range(0, len(cut), _KEYED):
            slab = cut[start:start + _KEYED]
            keys = slab.view(f"V{slab.strides[0]}").ravel().tolist()  # the bytes of each block
            fresh = {}
            for i, key in enumerate(keys):
                if key not in blocks:
                    fresh.setdefault(key, i)
            if fresh:
                bits = slab[list(fresh.values())].view(np.uint64)  # re, im, re, im, ... per block
                re, re_codes = np.unique(bits[:, 0::2], return_inverse=True)
                im, im_codes = np.unique(bits[:, 1::2], return_inverse=True)
                pairs, inverse = np.unique(re_codes * len(im) + im_codes, return_inverse=True)
                distinct = list(zip(re[pairs // len(im)].tolist(), im[pairs % len(im)].tolist()))
                for cell in set(distinct).difference(cells):
                    cells[cell] = json.dumps(np.array(cell, np.uint64).view(float).tolist())
                text = np.array([cells[cell] for cell in distinct], dtype=object)
                for key, codes in zip(fresh, inverse.reshape(len(fresh), -1)):
                    blocks[key] = ", ".join(text[codes])
            texts += [blocks[key] for key in keys]
        if len(parts) != 2 * len(texts) + 1:  # what goes before each block, and the close
            parts = [", "] * (2 * len(texts) + 1)
            parts[::2 * len(texts) // len(mat)] = ["[["] + ["], ["] * (len(mat) - 1) + ["]]"]
        parts[1::2] = texts
        yield "".join(parts)


def write_json(fh, members, lists):
    """Write to the text stream fh the bytes of json.dump(doc, fh,
    sort_keys=True) and a newline, for doc = members plus, for each name in
    lists, a list whose elements' JSON texts lists[name] yields in order;
    the document is never one string."""
    for i, name in enumerate(sorted([*members, *lists])):
        fh.write(("{" if i == 0 else ", ") + json.dumps(name) + ": ")
        if name not in lists:
            fh.write(_encode(members[name]))
            continue
        fh.write("[")
        batch, size, sep = [], 0, ""
        for item in lists[name]:  # one write per run of at least 64 KiB, not per item
            batch.append(item)
            size += len(item)
            if size >= 1 << 16:
                fh.write(sep + ", ".join(batch))
                batch, size, sep = [], 0, ", "
        if batch:
            fh.write(sep + ", ".join(batch))
        fh.write("]")
    fh.write("}\n")


def save_family(family, path):
    """Write the bytes of json.dump(doc, fh, sort_keys=True) for the family
    document, one generator entry at a time."""
    members = {"header": _header(), "d": family.d, "k": family.k,
               "ring": family.ring.descriptor(), "metadata": family.metadata}
    texts = matrix_texts((mat for _, mat in family.generators), family.d)
    with open(path, "w", encoding="utf-8") as fh:
        write_json(fh, members, {"generators": (
            '{"label": ' + json.dumps(label) + ', "matrix": ' + text + "}"
            for (label, _), text in zip(family.generators, texts))})


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
_NEXT, _END = re.compile(rb", "), re.compile(rb"\]")
# the fixed start of each pattern: bytes that do not begin with it cannot
# match, however many more are read
_LEADS = {_HEAD: b'{"d": ', _ENTRY: b'{"label": "', _NEXT: b", ", _END: b"]"}
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

    def until(self, byte):
        """Take the bytes from pos through the first `byte`, or None if the
        file has none.  Each chunk read is searched once, and the parts are
        joined once."""
        chunk, start, parts = self.buf, self.pos, []
        end = chunk.find(byte, start) + 1
        while not end:
            parts.append(memoryview(chunk)[start:])
            chunk, start = self.fh.read(_CHUNK), 0
            if not chunk:
                return None
            end = chunk.find(byte) + 1
        parts.append(memoryview(chunk)[start:end])
        self.buf, self.pos = chunk, end
        return b"".join(parts)

    def rest(self):
        """Take every byte left."""
        return self._drop() + self.fh.read()


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


def _block_texts(span, width, size):
    """The text of each block of `width` cells, in order, in the matrix text
    `span` whose first row has `size` cells, or None unless the matrix is
    size x size and every byte between blocks is the writer's: ", [" after a
    block inside a row, "], [[" after a row.  The cells are cut with numpy,
    at each "]" that closes one; the cells of a block are left to the
    caller."""
    at = np.frombuffer(span, np.uint8)
    close = np.flatnonzero(at == ord("]"))
    ends = close[at[close - 1] != ord("]")]  # a row's or the matrix's "]" follows another
    if len(ends) != size * size:
        return None
    # the "]" ending each block; the last is the first of the span's closing
    # "]]]", and two more blocks follow each row's last, so no separator
    # read below runs past the span
    ends = ends[width - 1::width].reshape(size, size // width)
    inner, last = ends[:, :-1], ends[:-1, -1]
    for offset, byte in enumerate(b", [", 1):
        if not (at[inner + offset] == byte).all():
            return None
    for offset, byte in enumerate(b"], [[", 1):
        if not (at[last + offset] == byte).all():
            return None
    starts = ends + 4
    starts[:, -1] += 2
    starts = [3, *starts.ravel()[:-1].tolist()]
    return map(span.__getitem__, map(slice, starts, ends.ravel().tolist()))


def _scan_matrix(span, blocks, cells, values, width):
    """The cell codes of one matrix text [[[re, im], ...], ...] and the "}"
    after it, or None unless it is square and in the writer's layout.  The
    dictionary unit is a block of `width` cells of a row when that cuts each
    row into two or more blocks, and the whole row otherwise.  `blocks` and
    `cells` map each block and cell text seen so far to its codes; a new
    cell's value is appended to `values`.  A new block's codes take the
    smallest unsigned dtype that indexes `values` as it then stands, and the
    matrix the widest of its blocks'."""
    size = span.count(b"], [", 3, span.find(b"]]")) + 1  # the cells of the first row
    if 1 <= width < size and size % width == 0:
        texts = _block_texts(span, width, size)
        if texts is None:
            return None
    else:
        texts = span[3:-4].split(b"]], [[")
        size = width = len(texts)  # as many cells in each row as there are rows
    codes = []
    for text in texts:
        block = blocks.get(text)
        if block is None:
            parts = text.split(b"], [")
            for part in set(parts).difference(cells):
                match = _CELL.fullmatch(part)
                if match is None:
                    return None
                cells[part] = len(values)
                values.append((float(match[1]), float(match[2])))
            block = blocks[text] = np.array([cells[part] for part in parts],
                                            dtype=np.min_scalar_type(len(values) - 1))
        if len(block) != width:
            return None
        codes.append(block)
    return np.concatenate(codes).reshape(size, size)


def _scan_generators(source, pieces, width):
    """(codes, values) for the generators list whose first entry starts at
    the unread bytes of `source`, or None unless every entry is in the
    writer's layout: each matrix's square array of cell codes, and the
    distinct cell values.  Blocks are `width` cells wide (the document's d).
    The bytes outside the matrices are appended to `pieces`, each matrix
    replaced by 0.  The block and cell dictionaries end with this call,
    before the arrays are built."""
    codes, blocks, cells, values = [], {}, {}, []
    while True:
        entry = source.match(_ENTRY)
        span = entry and source.until(b"}")  # the matrix and the "}" closing its entry
        if not span or not span.endswith(b"]]]}") or span.endswith(b"]]]]}"):  # "]]]" exactly
            return None
        codes.append(_scan_matrix(span, blocks, cells, values, width))
        close = source.match(_NEXT) or source.match(_END)
        if codes[-1] is None or close is None:
            return None
        pieces += [entry, b"0}", close]
        if close == b"]":
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
    whole.  Only the matrices are read here, as ASCII bytes cut into blocks
    of d cells by the document's "d" (a d of ten digits or more cuts no
    row): each distinct block and cell text is decoded once, and the arrays
    are gathered from the distinct values.  Everything else is decoded as
    strict UTF-8 and goes through json.loads with the matrices
    cut out, so the result is json.loads's; each cut falls on an ASCII
    byte, so it splits no UTF-8 sequence.  On None the caller reads the file
    again as text and parses it with json.loads, so every error reads as it
    would without the scanner."""
    source = _Unread(fh)
    pieces = [source.match(_HEAD)]
    if not pieces[0]:
        return None
    digits = pieces[0][6:-17]  # {"d": <digits>, "generators": [
    scanned = _scan_generators(source, pieces, int(digits) if len(digits) < 10 else 0)
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


def _template(row, keys, labels):
    """The texts of json.dumps(row, sort_keys=True) before, between and
    after its label values, at the even places of a list with a hole for
    each label; keys are the keys of row.  The members between two labels
    are encoded as one dict, whose text is theirs within braces."""
    parts, run, sep = [""], {}, "{"
    for key in sorted(keys):
        if key not in labels:
            run[key] = row[key]
            continue
        if run:
            parts[-1] += sep + _encode(run)[1:-1]
            sep, run = ", ", {}
        parts[-1] += sep + _encode(key) + ": "
        parts.append("")
        sep = ", "
    if run:
        parts[-1] += sep + _encode(run)[1:-1]
    parts[-1] += "}"
    template = [None] * (2 * len(parts) - 1)
    template[::2] = parts
    return template


def _row_texts(rows, labels):
    """Yield json.dumps(row, sort_keys=True) for each dict in rows.

    A report row mostly repeats its class's figures beside its own labels
    (a factored pair row has its own).  So a row's text is a template
    (_template) with the texts of its labels, each label encoded once per
    object, in its holes.  A template is reused
    only for a row with the same keys in the same order whose other values
    are the very objects it was made from, which gives the same text: it is
    found by those values and then checked object by object, since equal
    values such as 0.0 and -0.0, or 1 and True, can have other texts.
    Label texts are keyed by the id of their object, which is held here, so
    no id is reused while its text is.  A row with fewer than two members,
    a key that is not a string, a label missing or an unhashable value is
    encoded by itself."""
    labels = sorted(labels)
    shapes, named, held = {}, {}, []  # keys -> (getter, count, templates); label id -> text
    for row in rows:
        keys = tuple(row)
        try:
            get, count, templates = shapes[keys]
        except KeyError:
            others = sorted(set(keys).difference(labels))
            whole = len(keys) < 2 or not set(labels).issubset(keys) or \
                any(type(key) is not str for key in keys)
            get, count, templates = shapes[keys] = \
                (None, 0, None) if whole else (operator.itemgetter(*others, *labels), len(others), {})
        if get is None:
            yield _encode(row)
            continue
        values = get(row)
        figures = values[:count]
        try:
            made = templates.get(figures)
        except TypeError:  # a list or a dict among them
            yield _encode(row)
            continue
        if made is None or not all(map(operator.is_, made[0], figures)):
            made = templates[figures] = (figures, _template(row, keys, labels))
        template = made[1]
        try:
            template[1::2] = [named[id(value)] for value in values[count:]]
        except KeyError:
            for value in values[count:]:
                if id(value) not in named:
                    named[id(value)] = _encode(value)
                    held.append(value)
            template[1::2] = [named[id(value)] for value in values[count:]]
        yield "".join(template)


def write_report(report, fh, header=None):
    """Write to the text stream fh the bytes of json.dumps(doc,
    sort_keys=True) and a newline, for doc = report.to_dict() with header as
    its "header" member when one is given, one row at a time (_row_texts)."""
    members = report.to_dict()
    bases, pairs = members.pop("bases"), members.pop("pairs")
    if header is not None:
        members["header"] = header
    write_json(fh, members, {"bases": _row_texts(bases, ["label"]),
                             "pairs": _row_texts(pairs, ["a", "b"])})


def save_report(report, path, header_extra=None):
    header = {**_header(header_extra), "wall_time_s": report.wall_time_s,
              "stages": report.stages}
    with open(path, "w", encoding="utf-8") as fh:
        write_report(report, fh, header)
