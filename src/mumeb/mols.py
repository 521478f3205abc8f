"""Latin squares, mutual orthogonality, (n,x)-nets, and the unbiased bases of
C^(x^2) they induce.

A net is stored as line labels: one row per block, giving for each point
p = i*x + j the line of that block through p.  Every point then lies on
exactly one line of each block, so the lines of a block are disjoint and
cover the points by construction.  For two blocks, lines[b1] * x + lines[b2]
names the pair of lines through each point, and its bincount counts the
points on both lines for all x^2 pairs at once: all ones is the axiom that
lines of different blocks meet in exactly one point, and summing over either
block's lines then gives every line x points.  The weight check per block
names a bad line directly, and is the only check a one-block net gets.

The file format for square sets is plain text: a header line "x w", then w
blocks separated by blank lines, each x lines of x space-separated symbols
from 0..x-1.
"""

import itertools
import math

import numpy as np

from . import fields


class MolsParseError(ValueError):
    """Raised when a squares file cannot be parsed at all."""


class LatinViolation(ValueError):
    """A grid is not a Latin square; the message carries the offending cell."""


class OrthogonalityViolation(ValueError):
    """Two squares repeat an ordered symbol pair; coordinates in the message."""


class NetViolation(ValueError):
    """A block system fails one of the two net axioms."""


class LatinSquare:
    """An x by x grid where every row and column permutes the symbols 0..x-1."""

    def __init__(self, cells):
        grid = [list(row) for row in cells]
        x = len(grid)
        if x < 1 or any(len(row) != x for row in grid):
            raise LatinViolation(f"grid is not square: {x} rows")
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < x:
                    raise LatinViolation(f"cell ({i},{j}) holds {v!r}, not a symbol in 0..{x-1}")
        index = [[i] * x for i in range(x)]  # index[i][j] = i
        for lines, line, other in ((grid, "row", "columns"), (zip(*grid), "column", "rows")):
            clash = _first_clash(index, lines)
            if clash is not None:
                (i, v), (_, j1), (_, j2) = clash
                raise LatinViolation(f"{line} {i} repeats symbol {v} at {other} {j1} and {j2}")
        self.order = x
        self.cells = tuple(tuple(row) for row in grid)

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and self.cells == other.cells

    def __repr__(self):
        return f"LatinSquare(order={self.order})"


def _first_clash(a, b):
    """The first symbol pair (a[i][j], b[i][j]) that repeats, in row-major
    order, with the cells of its first and second occurrence; or None."""
    seen = {}
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        for j, pair in enumerate(zip(row_a, row_b)):
            if pair in seen:
                return pair, seen[pair], (i, j)
            seen[pair] = (i, j)
    return None


def validate_mols(squares):
    """Check every pair; raises OrthogonalityViolation naming squares and cells."""
    squares = list(squares)
    for idx, sq in enumerate(squares):
        if sq.order != squares[0].order:
            raise ValueError(f"square {idx} has order {sq.order}, expected {squares[0].order}")
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            clash = _first_clash(squares[i].cells, squares[j].cells)
            if clash is not None:
                pair, cell1, cell2 = clash
                raise OrthogonalityViolation(
                    f"squares {i} and {j} repeat pair {pair} at cells {cell1} and {cell2}")
    return squares


def mols_prime_power(x):
    """The classical complete set of x - 1 squares L_a(i,j) = a*i + j over F_x."""
    split = fields.prime_power_split(x)
    if split is None:
        raise ValueError(f"{x} is not a prime power")
    field = fields.FiniteField(*split)
    els = np.arange(field.q)
    return [LatinSquare(field.add(field.mul(a, els)[:, None], els).tolist())
            for a in range(1, field.q)]


def mols_macneish(squares1, squares2):
    """Product construction: min(w1, w2) squares of order x1 * x2.

    Cell ((i1,i2),(j1,j2)) carries the symbol pair (L1[i1,j1], L2[i2,j2])
    encoded as s1 * x2 + s2.
    """
    w = min(len(squares1), len(squares2))
    if w == 0:
        raise ValueError("both factor sets must be nonempty")
    x1, x2 = squares1[0].order, squares2[0].order
    out = []
    for l1, l2 in zip(squares1[:w], squares2[:w]):
        cells = [[l1.cells[i1][j1] * x2 + l2.cells[i2][j2]
                  for j1 in range(x1) for j2 in range(x2)]
                 for i1 in range(x1) for i2 in range(x2)]
        out.append(LatinSquare(cells))
    return out


def best_mols(x):
    """Largest square set this package can build on its own for order x:
    the complete prime-power set, or the MacNeish product across prime-power
    parts otherwise."""
    if x < 2:
        raise ValueError("order must be at least 2")
    if fields.prime_power_split(x):
        return mols_prime_power(x)
    parts = fields.factor_into_prime_powers(x)
    sets = [mols_prime_power(p ** a) for p, a in parts]
    acc = sets[0]
    for nxt in sets[1:]:
        acc = mols_macneish(acc, nxt)
    return acc


# ---------------------------------------------------------------------------
# nets

class Net:
    """n blocks of x lines on the x^2 points p = i*x + j, as line labels:
    lines[b, p] is the line of block b through p.  Lines are disjoint inside
    a block and meet in exactly one point across blocks."""

    def __init__(self, lines):
        lines = np.asarray(lines)
        x = math.isqrt(lines.shape[1]) if lines.ndim == 2 else 0
        if x < 1 or x * x != lines.shape[1] or not np.issubdtype(lines.dtype, np.integer):
            raise NetViolation(f"expected n blocks of line labels on x^2 points, "
                               f"got an array of shape {lines.shape} and type {lines.dtype}")
        if lines.size and not (0 <= lines.min() and lines.max() < x):
            raise NetViolation(f"expected line labels in 0..{x - 1}, "
                               f"got {lines.min()}..{lines.max()}")
        lines = lines.astype(np.intp, copy=False)  # room for lines[b1] * x + lines[b2]
        self.lines, self.n, self.x = lines, lines.shape[0], x
        for b, row in enumerate(lines):
            weights = np.bincount(row, minlength=x)
            bad = np.flatnonzero(weights != x)
            if bad.size:
                raise NetViolation(f"block {b} has a vector of weight {weights[bad[0]]}")
        for b1, b2 in itertools.combinations(range(self.n), 2):
            hits = np.bincount(lines[b1] * x + lines[b2], minlength=x * x)
            bad = np.flatnonzero(hits != 1)
            if bad.size:
                i, j = divmod(int(bad[0]), x)
                raise NetViolation(
                    f"blocks {b1}:{i} and {b2}:{j} meet in {hits[bad[0]]} points, want 1")


def net_from_mols(squares, order=None):
    """(w+2, x)-net: the rows, the columns, then one block per square whose
    lines are its symbol classes."""
    squares = validate_mols(squares)
    if squares:
        x = squares[0].order
    elif order is not None:
        x = order
    else:
        raise ValueError("need squares or an explicit order")
    if order is not None and order != x:
        raise ValueError(f"order {order} does not match squares of order {x}")
    points = np.arange(x * x)
    return Net(np.stack([points // x, points % x] + [np.ravel(sq.cells) for sq in squares]))


# ---------------------------------------------------------------------------
# unbiased bases of C^k from a net

def fourier_hadamard(x):
    """Order-x Fourier matrix zeta_x^(mn), a generalized Hadamard matrix."""
    m = np.arange(x)
    return np.exp(2j * np.pi * np.outer(m, m) / x)


def mubs_from_net(net):
    """One orthonormal basis of C^(x^2) per net block: column i*x + ell is row
    ell of H/sqrt(x), H the order-x Fourier matrix, placed on the points of
    line i, in point order.  Distinct blocks are mutually unbiased because
    their lines meet in exactly one point."""
    x = net.x
    k = x * x
    cols = np.arange(k).reshape(x, x, 1)  # cols[i, ell] = i*x + ell
    scaled = fourier_hadamard(x) / np.sqrt(x)
    out = []
    for row in net.lines:
        points = np.argsort(row, kind="stable").reshape(x, x)  # points[i] = line i, ascending
        basis = np.zeros((k, k), dtype=complex)
        basis[points[:, None, :], cols] = scaled
        out.append(basis)
    return out


# ---------------------------------------------------------------------------
# text files

def parse_mols(text):
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise MolsParseError("empty file")
    header = lines[idx].split()
    if len(header) != 2:
        raise MolsParseError(f"header must be 'x w', got {lines[idx]!r}")
    try:
        x, w = int(header[0]), int(header[1])
    except ValueError:
        raise MolsParseError(f"header must be 'x w', got {lines[idx]!r}") from None
    if x < 1 or w < 1:
        raise MolsParseError(f"bad header values x={x}, w={w}: both must be at least 1")
    idx += 1
    squares = []
    for b in range(w):
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        rows = []
        for r in range(x):
            if idx >= len(lines) or not lines[idx].strip():
                raise MolsParseError(f"square {b} row {r}: unexpected end of block")
            toks = lines[idx].split()
            if len(toks) != x:
                raise MolsParseError(f"square {b} row {r}: expected {x} symbols, got {len(toks)}")
            try:
                rows.append([int(t) for t in toks])
            except ValueError:
                raise MolsParseError(f"square {b} row {r}: non-integer symbol") from None
            idx += 1
        squares.append(LatinSquare(rows))
    while idx < len(lines):
        if lines[idx].strip():
            raise MolsParseError(f"trailing content at line {idx + 1}")
        idx += 1
    return squares


def import_mols(path):
    """Parse a squares file and validate Latin and orthogonality properties."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MolsParseError(f"not UTF-8 text: {exc}") from exc
    squares = parse_mols(text)
    validate_mols(squares)
    return squares


def format_mols(squares):
    squares = list(squares)
    if not squares:
        raise ValueError("a squares file needs at least one square")
    chunks = [f"{squares[0].order} {len(squares)}"]
    for sq in squares:
        chunks.append("\n".join(" ".join(str(v) for v in row) for row in sq.cells))
    return "\n\n".join(chunks) + "\n"


def save_mols(squares, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_mols(squares))
