"""Complex linear algebra for unitaries, bases, and entanglement checks.

Matrices are numpy complex128 arrays, row-major, zero-based.  A basis is a
square array whose columns are the basis vectors.  Sizes stay at N = kd^2 of a
few thousand at most, so arithmetic is dense, except that adjoint products
A^dag B skip the exact zeros of A: an expanded basis has d nonzeros per
column, so its adjoint product costs 8 d N^2 flops instead of 8 N^3.
"""

import numpy as np


def is_unitary(a, tol=1e-9):
    """Return (ok, deviation) where deviation = max |A^dag A - I|."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"unitarity needs a square matrix, got {a.shape}")
    dev = float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())
    return dev <= tol, dev


def gram_deviation(basis):
    """Max |B^dag B - I|: orthonormality defect of the columns."""
    basis = np.asarray(basis, dtype=complex)
    return float(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max())


def adjoint_product_blocks(a, b):
    """Yield (cols, a[rows, cols]^dag @ b[rows]) for each group of columns of
    `a` that share one row support `rows` (the rows where they are nonzero).

    Together the blocks are the rows `cols` of A^dag B, with only exact-zero
    terms dropped, so they equal the dense product up to summation order.
    The pattern is read off `a` itself.  A dense `a` is one group, a single
    GEMM; columns with many distinct supports cost one small product each.
    """
    support = a != 0
    keys = np.packbits(support, axis=0).T
    keys = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(group, kind="stable")
    bounds = np.cumsum(np.bincount(group))[:-1]
    for col0, cols in zip(first, np.split(order, bounds)):
        rows = np.flatnonzero(support[:, col0])
        yield cols, a[np.ix_(rows, cols)].conj().T @ b[rows]


def max_entanglement_deviation(basis, d, dprime):
    """Largest reduced-density deviation over all columns of a basis, taken
    64 columns at a time so that the temporaries stay small beside the basis."""
    basis = np.asarray(basis, dtype=complex)
    n = basis.shape[1]
    coeff = basis.T.reshape(n, d, dprime)
    diag = np.arange(d)
    worst = 0.0
    for start in range(0, n, 64):
        chunk = coeff[start:start + 64]
        rho = chunk @ chunk.conj().transpose(0, 2, 1)
        rho[:, diag, diag] -= 1.0 / d
        worst = max(worst, float(np.abs(rho).max()))
    return worst
