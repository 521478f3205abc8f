"""Digests and file edits behind the benchmark's correctness gate."""

import hashlib
import json

import numpy as np


def generator_digest(family):
    """sha256 over every generator's label, shape and complex128 bytes, so two
    families digest alike only when their generators are bit-equal."""
    h = hashlib.sha256()
    for label, mat in family.generators:
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
        h.update(label.encode("utf-8"))
        h.update(repr(mat.shape).encode("ascii"))
        h.update(mat.tobytes())
    return h.hexdigest()


def _strip_header(text):
    """The file text without its top-level "header" member, which holds the
    only volatile fields (timestamps, wall time)."""
    key = '"header": '
    start = text.find(key)
    if start < 0:
        return text
    _, end = json.JSONDecoder().raw_decode(text, start + len(key))
    if text.startswith(", ", end):
        end += 2
    return text[:start] + text[end:]


def payload_digest(paths, extra=()):
    """sha256 of the payloads of the JSON files at `paths` outside their
    headers, plus the repr of every float in `extra`.  A missing file
    digests as its name, so it cannot match a run that wrote it."""
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                text = _strip_header(fh.read())
        except OSError:
            text = f"missing {path}"
        h.update(text.encode("utf-8"))
    for value in extra:
        h.update(repr(float(value)).encode("ascii"))
    return h.hexdigest()


def tamper_first_generator(path, delta=0.25):
    """Add `delta` to the real part of entry (0, 0) of the first generator."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["generators"][0]["matrix"][0][0][0] += delta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
