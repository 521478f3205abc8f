"""Complex linear algebra for unitaries, bases, and entanglement checks.

Matrices are numpy complex128 arrays, row-major, zero-based.  A basis is a
square array whose columns are the basis vectors; a large one is handled as
column chunks, (cols, N x c array) pairs, so that no N x N array is needed.
Adjoint products A^dag X skip the exact zeros of A (ColumnBlocks): an
expanded basis has d nonzeros per column, so A^dag X costs 8 d N c flops
for an N x c chunk X instead of 8 N^2 c.
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


def whole_columns(a):
    """The matrix `a` as a single column chunk, [(cols, a)]."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"need a matrix, got shape {a.shape}")
    return [(np.arange(a.shape[1]), a)]


class ColumnBlocks:
    """A matrix A, N x N for a basis, held as its column groups, each group
    being the columns that share one row support (the rows where they are
    nonzero).

    Groups of one shape, s support rows by m columns, form a bucket of
    `rows` (G, s), `cols` (G, m) and adjoint values A[rows, cols]^dag
    (G, m, s).  An expanded basis is one bucket of N/d groups of d x d, so
    it is held in N·d entries; a dense matrix is one group.  The pattern is
    read off the entries themselves, once, never off a formula.
    """

    def __init__(self, chunks):
        """Read A from (cols, N x c array) column chunks that together hold
        each of its columns once, such as construct.expand_chunks yields.  Each
        array is copied from as it comes, so it may be reused for the next."""
        col_ids, keys, depths, values = [], [], [], []
        n = None
        for cols, chunk in chunks:
            if n is None:
                n = chunk.shape[0]
            if chunk.ndim != 2 or chunk.shape != (n, len(cols)):
                raise ValueError(f"chunk of shape {chunk.shape} does not fit {n} rows "
                                 f"and {len(cols)} columns")
            support = chunk != 0
            col_ids.append(np.asarray(cols))
            keys.append(np.packbits(support, axis=0).T)
            depths.append(support.sum(axis=0))
            values.append(chunk.T[support.T])  # column by column, rows ascending
        if n is None:
            raise ValueError("no column chunks")
        cols = np.concatenate(col_ids)
        if not np.array_equal(np.sort(cols), np.arange(cols.size)):
            raise ValueError("column chunks must hold each column once")
        self.shape = (n, cols.size)
        self._work = {}

        keys = np.ascontiguousarray(np.concatenate(keys))
        depths = np.concatenate(depths)
        values = np.concatenate(values)
        start = np.cumsum(depths) - depths  # of each column's entries in `values`
        flat_keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, group = np.unique(flat_keys, return_index=True, return_inverse=True)
        width = np.bincount(group)
        depth = depths[first]
        members = np.argsort(group, kind="stable")  # read positions, group by group
        offset = np.cumsum(width) - width
        self.buckets = []
        for s, m in np.unique(np.stack([depth, width], axis=1), axis=0):
            g = np.flatnonzero((depth == s) & (width == m))
            pos = members[offset[g][:, None] + np.arange(m)]
            rows = np.nonzero(np.unpackbits(keys[first[g]], axis=1, count=n))[1]
            adj = values[start[pos][..., None] + np.arange(s)].conj()
            self.buckets.append((rows.reshape(g.size, s), cols[pos], adj))

    def row_groups(self):
        """(group, lo, hi) for an A of one bucket whose groups' row supports
        partition the rows, as an expanded basis's do: group[R] is the group
        whose support holds row R, and lo[R] and hi[R] the least and the
        largest squared magnitude of the row's m entries there.  ValueError
        for any other A.  Computed once."""
        if not hasattr(self, "_row_groups"):
            if len(self.buckets) != 1:
                raise ValueError("row groups need a single bucket")
            rows, _, adj = self.buckets[0]
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
        fresh arrays of a chunk's size cost more to fault in than to fill."""
        size = int(np.prod(shape))
        if name not in self._work or self._work[name].size < size:
            self._work[name] = np.empty(size, dtype=complex)
        return self._work[name][:size].reshape(shape)

    def adjoint_products(self, x):
        """Yield (cols, A[:, cols]^dag @ x) for each bucket, with cols flat:
        one batched product per bucket, and together the rows of A^dag x.
        Each block is overwritten by the next one and by the next call.

        Only exact-zero terms are dropped, so this equals the dense product
        up to summation order, at 8 d N c flops for an expanded basis and an
        N x c array x.
        """
        if x.ndim != 2 or x.shape[0] != self.shape[0]:
            raise ValueError(f"need {self.shape[0]} rows, got shape {x.shape}")
        c = x.shape[1]
        for rows, cols, adj in self.buckets:
            # mode="clip" since rows are in range; the default buffers `out`
            gathered = np.take(x, rows, axis=0, mode="clip",
                               out=self._scratch("gathered", rows.shape + (c,)))
            block = np.matmul(adj, gathered, out=self._scratch("block", adj.shape[:2] + (c,)))
            yield cols.ravel(), block.reshape(cols.size, c)


def max_entanglement_deviation(basis, d, dprime, norms=np.ones(1)):
    """Largest deviation of n rho from I_d / d over the reduced densities
    rho of the columns of a basis or of a column chunk of one, and over the
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
