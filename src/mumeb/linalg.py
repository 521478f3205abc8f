"""Complex linear algebra for unitaries, bases, and entanglement checks.

Matrices are numpy complex128 arrays, row-major, zero-based.  A basis is a
square array whose columns are the basis vectors.  Adjoint products A^dag X
skip the exact zeros of A (ColumnBlocks), whose column groups share one
block, else make one dense group: an expanded basis has d nonzeros per
column, so A^dag X costs 8 d N c flops for an N x c array X instead of
8 N^2 c.  ColumnBlocks builds an expanded basis from kd of its N columns
and the row moves that give the others, so no N x N array is needed.
"""

import numpy as np


def is_unitary(a, tol=1e-9):
    """Return (ok, deviation) where deviation = max |A^dag A - I|, or inf
    when the product overflows (entries near the float limit)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity needs a square matrix, got {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())
    if not np.isfinite(dev):
        dev = float("inf")
    return dev <= tol, dev


def gram_deviation(basis):
    """Max |B^dag B - I|: orthonormality defect of the columns."""
    return is_unitary(basis)[1]


class ColumnBlocks:
    """A matrix A held as its column groups, each group being the columns
    that share one row support (the rows where they are nonzero).

    The groups have one shape, s support rows by m columns, held as `rows`
    (G, s), each ordered by the bytes of its rows of A, `cols` (G, m) and one
    `block` (m, s) of adjoint values, A[rows[g], cols[g]]^dag bit for bit
    for every g.  An expanded basis is N/d groups of d x d, held in d^2
    entries.  Any other matrix is held as one dense group, every row by
    every column.  The pattern and the block are read off the entries
    themselves, never off a formula.
    """

    def __init__(self, a, moves=None):
        """Read the N x c matrix `a` off its entries.  Given row moves, a
        p x N index array, A is instead the N x pc matrix of p copies of `a`,
        copy t having row R of `a` at row moves[t, R] and its column i
        numbered t c + i; each copy's groups are those of `a` with their rows
        moved, in the same order, so they hold the same block."""
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2 or not a.size:
            raise ValueError(f"need a matrix, got shape {a.shape}")
        n, c = a.shape
        moves = np.arange(n)[None] if moves is None else np.asarray(moves)
        self.shape = (n, c * len(moves))
        self._work = {}

        support = a != 0
        keys = np.ascontiguousarray(np.packbits(support, axis=0).T)
        flat_keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, group = np.unique(flat_keys, return_inverse=True)
        width, depth = np.bincount(group), support.sum(axis=0)
        rows, cols = np.arange(n)[None], np.arange(c)[None]  # one dense group, unless
        if (width == width[0]).all() and (depth == depth[0]).all():  # one shape, and one block
            g_cols = np.argsort(group, kind="stable").reshape(-1, width[0])  # [group, column]
            g_rows = np.nonzero(support[:, g_cols[:, 0]].T)[1].reshape(len(g_cols), -1)
            values = a[g_rows[:, :, None], g_cols[:, None]]  # [group, row, column]
            row_bytes = values.view(np.dtype((np.void, a.itemsize * width[0])))[..., 0]
            order = row_bytes.argsort(axis=1, kind="stable")
            g_rows = np.take_along_axis(g_rows, order, axis=1)
            values = np.take_along_axis(values, order[..., None], axis=1).view(np.uint64)
            if (values == values[:1]).all():
                rows, cols = g_rows, g_cols
        size = len(moves) * len(rows)
        self.rows = np.take(moves, rows, axis=1).reshape(size, rows.shape[1])
        self.cols = (np.arange(len(moves))[:, None, None] * c + cols).reshape(size, cols.shape[1])
        self.block = np.ascontiguousarray(a[rows[0][:, None], cols[0]].conj().T)

    def row_groups(self):
        """(group, lo, hi) for an A whose groups' row supports partition the
        rows, as an expanded basis's do: group[R] is the group whose support
        holds row R, and lo[R] and hi[R] the least and the largest squared
        magnitude of the row's m entries there.  ValueError for any other
        A.  A dense group holds every row.  Computed once."""
        if not hasattr(self, "_row_groups"):
            rows, block = self.rows, self.block
            if not np.array_equal(np.bincount(rows.ravel(), minlength=self.shape[0]),
                                  np.ones(self.shape[0], dtype=np.intp)):
                raise ValueError("the row supports of the groups do not partition the rows")
            group = np.empty(self.shape[0], dtype=np.intp)
            group[rows] = np.arange(len(rows))[:, None]
            squares = block.real ** 2 + block.imag ** 2
            lo, hi = np.empty(self.shape[0]), np.empty(self.shape[0])
            lo[rows] = squares.min(axis=0)
            hi[rows] = squares.max(axis=0)
            self._row_groups = group, lo, hi
        return self._row_groups

    def _scratch(self, name, shape):
        """A complex work array of this shape, reused from call to call:
        fresh arrays of an operand's size cost more to fault in than to fill."""
        size = int(np.prod(shape))
        if name not in self._work or self._work[name].size < size:
            self._work[name] = np.empty(size, dtype=complex)
        return self._work[name][:size].reshape(shape)

    def adjoint_product(self, x):
        """(cols, A[:, cols]^dag @ x), with cols flat: one product of the
        block with the rows of x gathered group by group, whose rows are
        those of A^dag x.  The product is overwritten by the next call.

        Only exact-zero terms are dropped, so this equals the dense product
        up to summation order, at 8 d N c flops for an expanded basis and an
        N x c array x.
        """
        if x.ndim != 2 or x.shape[0] != self.shape[0]:
            raise ValueError(f"need {self.shape[0]} rows, got shape {x.shape}")
        # mode="clip" since rows are in range; the default buffers `out`
        gathered = np.take(x, self.rows.T, axis=0, mode="clip",
                           out=self._scratch("gathered", self.rows.T.shape + x.shape[1:]))
        product = np.matmul(self.block, gathered.reshape(len(gathered), -1),
                            out=self._scratch("product", (len(self.block), gathered[0].size)))
        return self.cols.T.ravel(), product.reshape(self.cols.size, -1)


def max_entanglement_deviation(basis, d, dprime, norms=np.ones(1)):
    """Largest deviation of n rho from I_d / d over the reduced densities
    rho of the columns of a basis or of some columns of one, and over the
    weights n in `norms`, taken 64 columns at a time so that the
    temporaries stay small beside it."""
    basis = np.asarray(basis, dtype=complex)
    n = basis.shape[1]
    coeff = basis.T.reshape(n, d, dprime)
    diag = np.arange(d)
    worst = 0.0
    for start in range(0, n, 64):
        chunk = coeff[start:start + 64]
        rho = chunk @ chunk.conj().transpose(0, 2, 1)
        on = rho[:, diag, diag]
        rho[:, diag, diag] = 0.0
        worst = np.max((worst, norms.max() * np.abs(rho).max(),
                        np.abs(norms[:, None, None] * on - 1.0 / d).max()))  # NaN stays
    return float(worst)
