import numpy as np
import pytest

from mumeb import linalg
from mumeb.construct import expand_basis, fourier_unitary
from mumeb.fields import ring_for_dimension
from oracles import reduced_density_check


def test_is_unitary():
    ok, dev = linalg.is_unitary(np.eye(5))
    assert ok and dev == 0.0
    w = fourier_unitary(ring_for_dimension(9))
    ok, dev = linalg.is_unitary(w, tol=1e-10)
    assert ok and dev < 1e-10
    bad = np.eye(4, dtype=complex)
    bad[2, 2] = 0.0
    ok, dev = linalg.is_unitary(bad)
    assert not ok and abs(dev - 1.0) < 1e-12
    with pytest.raises(ValueError):
        linalg.is_unitary(np.ones((2, 3)))


def test_gram_deviation():
    basis = np.eye(6, dtype=complex)
    assert linalg.gram_deviation(basis) == 0.0
    basis[:, 0] *= 1.01
    assert linalg.gram_deviation(basis) == pytest.approx(0.0201)


def test_reduced_density_on_known_states():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert reduced_density_check(bell, 2, 2) < 1e-15
    product = np.array([1, 0, 0, 0], dtype=complex)  # |00>, reduced density
    # is diag(1, 0) whose largest deviation from I/2 is 1/2
    assert reduced_density_check(product, 2, 2) == pytest.approx(0.5)
    ghz_like = np.zeros(6, dtype=complex)  # d=2, d'=3 embedding of a Bell pair
    ghz_like[0] = ghz_like[4] = 1 / np.sqrt(2)
    assert reduced_density_check(ghz_like, 2, 3) < 1e-15
    with pytest.raises(ValueError):
        reduced_density_check(bell, 2, 3)


def test_batched_entanglement_matches_per_vector_route():
    ring = ring_for_dimension(3)
    basis = expand_basis(ring, np.eye(6), k=2)
    batched = linalg.max_entanglement_deviation(basis, 3, 6)
    per_vector = max(reduced_density_check(basis[:, i], 3, 6)
                     for i in range(basis.shape[1]))
    assert batched == pytest.approx(per_vector, abs=1e-12)
    assert batched < 1e-9
    # a product state spoils the batch
    spoiled = basis.copy()
    spoiled[:, 0] = 0
    spoiled[0, 0] = 1
    assert linalg.max_entanglement_deviation(spoiled, 3, 6) > 0.1
