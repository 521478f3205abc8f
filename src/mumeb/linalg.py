"""Complex linear algebra for unitaries, bases, and entanglement checks.

Matrices are numpy complex128 arrays, row-major, zero-based.  A basis is a
square array whose columns are the basis vectors.  Adjoint products A^dag X
skip the exact zeros of A (ColumnBlocks), whose column groups have one
shape, else make one dense group: an expanded basis has d nonzeros per
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
    (G, s), ascending, `cols` (G, m) and adjoint values A[rows, cols]^dag
    (G, m, s).  An expanded basis is N/d groups of d x d, held in N·d
    entries.  A matrix whose groups differ in shape is held as one dense
    group, every row by every column.  The pattern is read off the entries
    themselves, never off a formula.
    """

    def __init__(self, a, moves=None):
        """Read the N x c matrix `a` off its entries.  Given row moves, a
        p x N index array, A is instead the N x pc matrix of p copies of `a`,
        copy t having row R of `a` at row moves[t, R] and its column i
        numbered t c + i; each copy's groups are those of `a` with their rows
        moved and put back in ascending order, their values with them."""
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
        if (width != width[0]).any() or (depth != depth[0]).any():
            support[:] = True  # groups of several shapes: one dense group
            group[:] = 0
        cols = np.argsort(group, kind="stable").reshape(group.max() + 1, -1)  # [group, column]
        rows = np.nonzero(support[:, cols[:, 0]].T)[1].reshape(len(cols), -1)
        adj = a[rows[:, None], cols[:, :, None]].conj()  # [group, column, row]
        moved = moves[:, rows]  # [copy, group, row]
        order = np.argsort(moved, axis=2)
        (g, m), s = cols.shape, rows.shape[1]
        size = len(moves) * g
        self.rows = np.take_along_axis(moved, order, axis=2).reshape(size, s)
        self.cols = (np.arange(len(moves))[:, None, None] * c + cols).reshape(size, m)
        self.adj = np.take_along_axis(adj[None], order[:, :, None], axis=3).reshape(size, m, s)

    def row_groups(self):
        """(group, lo, hi) for an A whose groups' row supports partition the
        rows, as an expanded basis's do: group[R] is the group whose support
        holds row R, and lo[R] and hi[R] the least and the largest squared
        magnitude of the row's m entries there.  ValueError for any other
        A.  A dense group holds every row.  Computed once."""
        if not hasattr(self, "_row_groups"):
            rows, adj = self.rows, self.adj
            if not np.array_equal(np.bincount(rows.ravel(), minlength=self.shape[0]),
                                  np.ones(self.shape[0], dtype=np.intp)):
                raise ValueError("the row supports of the groups do not partition the rows")
            g, _, s = adj.shape
            group = np.empty(self.shape[0], dtype=np.intp)
            group[rows.ravel()] = np.repeat(np.arange(g), s)
            squares = adj.real ** 2 + adj.imag ** 2
            lo, hi = np.empty(self.shape[0]), np.empty(self.shape[0])
            lo[rows.ravel()] = squares.min(axis=1).ravel()
            hi[rows.ravel()] = squares.max(axis=1).ravel()
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
        """(cols, A[:, cols]^dag @ x), with cols flat: one batched product
        over the groups, whose rows are those of A^dag x.  The block is
        overwritten by the next call.

        Only exact-zero terms are dropped, so this equals the dense product
        up to summation order, at 8 d N c flops for an expanded basis and an
        N x c array x.
        """
        if x.ndim != 2 or x.shape[0] != self.shape[0]:
            raise ValueError(f"need {self.shape[0]} rows, got shape {x.shape}")
        c = x.shape[1]
        # mode="clip" since rows are in range; the default buffers `out`
        gathered = np.take(x, self.rows, axis=0, mode="clip",
                           out=self._scratch("gathered", self.rows.shape + (c,)))
        block = np.matmul(self.adj, gathered, out=self._scratch("block", self.adj.shape[:2] + (c,)))
        return self.cols.ravel(), block.reshape(self.cols.size, c)


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
