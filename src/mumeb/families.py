"""JSON persistence for generator families and verification reports.

A family file is {"header": {...}, "d": int, "k": int, "ring": {...},
"generators": [{"label": str, "matrix": [[[re, im], ...], ...]}, ...],
"metadata": {...}}.  The header carries volatile fields (timestamps, tool
version) and is excluded from determinism comparisons; everything else is
written with sorted keys so equal payloads are byte-identical.
"""

import cmath
import itertools
import json
import time

import numpy as np

from . import fields
from .construct import MEBFamily


class SchemaError(ValueError):
    """The file parses as JSON but does not describe a family."""


def matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return np.stack((mat.real, mat.imag), axis=-1).tolist()


def _cells_are_plain(rows, size):
    """Whether every row is a list of `size` [re, im] lists of ints and
    floats (no bools), checked in C-level passes instead of cell by cell."""
    if not all(isinstance(row, list) and len(row) == size for row in rows):
        return False
    cells = list(itertools.chain.from_iterable(rows))
    return (set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}
            and set(map(type, itertools.chain.from_iterable(cells))) <= {int, float})


def matrix_from_json(rows, size, label):
    if not isinstance(rows, list) or len(rows) != size:
        raise SchemaError(f"generator {label}: matrix must have {size} rows")
    if _cells_are_plain(rows, size):
        try:
            pairs = np.array(rows, dtype=float).reshape(size, size, 2)
        except OverflowError:
            pairs = None  # an integer beyond the float range
        # one C-level pass finds a literal such as 1e400, which parses to inf
        if pairs is not None and np.isfinite(pairs).all():
            return pairs.view(complex).reshape(size, size)
    # only a matrix that fails the fast checks gets here; name its first bad entry
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
    return label, matrix_from_json(entry["matrix"], size, label)


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
    head = {"created": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "tool": "mumeb 0.1.0"}
    if extra:
        head.update(extra)
    return head


def save_family(family, path, header_extra=None):
    """Write the bytes of json.dump(doc, fh, sort_keys=True) for the family
    document, one generator entry at a time through the C encoder; the whole
    document is never one string."""
    members = {"header": _header(header_extra), "d": family.d, "k": family.k,
               "ring": family.ring.descriptor(), "metadata": family.metadata}
    with open(path, "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted([*members, "generators"])):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            if key in members:
                fh.write(json.dumps(members[key], sort_keys=True))
                continue
            fh.write("[")
            for j, (label, mat) in enumerate(family.generators):
                entry = {"label": label, "matrix": matrix_to_json(mat)}
                fh.write((", " if j else "") + json.dumps(entry, sort_keys=True))
            fh.write("]")
        fh.write("}\n")


def _reject_constant(name):
    raise SchemaError(f"non-finite number {name} in family file")


def load_family(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
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
    doc = {"header": _header(header_extra)}
    body = report.to_dict()
    doc["header"]["wall_time_s"] = body.pop("wall_time_s")
    doc["header"]["stages"] = report.stages
    doc.update(body)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
