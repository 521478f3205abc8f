"""Dense complex linear algebra for unitaries, bases, and entanglement checks.

Matrices are numpy complex128 arrays, row-major, zero-based.  A basis is a
square array whose columns are the basis vectors.  Sizes stay at N = kd^2 of a
few thousand at most, so everything is direct dense arithmetic.
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


def max_entanglement_deviation(basis, d, dprime):
    """Largest reduced-density deviation over all columns of a basis at once."""
    basis = np.asarray(basis, dtype=complex)
    n = basis.shape[1]
    coeff = basis.T.reshape(n, d, dprime)
    rho = coeff @ coeff.conj().transpose(0, 2, 1)
    return float(np.abs(rho - np.eye(d) / d).max())
