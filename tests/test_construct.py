import numpy as np
import pytest

from mumeb import fields, linalg
from mumeb.construct import (MEBFamily, b_block, b_tensor, expand_basis, expand_slabs,
                             family_cd, family_ckd, family_ckd_mols, k_factors,
                             fourier_unitary, permutation_unitary, v_unitary)
from mumeb.fields import FiniteField, GaloisRing, ring_for_dimension
from mumeb.mols import OrthogonalityViolation, mols_prime_power
from oracles import (expand_basis_whole, field_add, field_mul, generic_character,
                     pauli_matrix, random_unitary, ring_op)


def test_permutation_unitary_is_group_homomorphism():
    ring = ring_for_dimension(15)
    assert np.array_equal(permutation_unitary(ring, ring.one), np.eye(15))
    for a in ring.units().tolist():
        ua = permutation_unitary(ring, a)
        assert linalg.is_unitary(ua)[0]
        for b in ring.units().tolist():
            ub = permutation_unitary(ring, b)
            assert np.array_equal(ua @ ub, permutation_unitary(ring, ring_op(ring, field_mul, a, b)))
    with pytest.raises(ValueError):
        permutation_unitary(ring, 5)  # (1, 0) is a zero divisor


def test_permutation_unitary_action_on_basis_vectors():
    ring = ring_for_dimension(3)
    u2 = permutation_unitary(ring, 2)
    assert np.array_equal(u2 @ u2, np.eye(3))  # 2 is self-inverse mod 3
    # U(a)|e_r> = |e_(r/a)>: column r has its 1 in row index(r * a^-1)
    for a in ring.units().tolist():
        u = permutation_unitary(ring, a)
        inv = next(b for b in range(3) if ring_op(ring, field_mul, a, b) == ring.one)
        for r in range(3):
            col = u[:, r]
            assert col[ring_op(ring, field_mul, r, inv)] == 1 and col.sum() == 1


def test_fourier_unitary_entries():
    ring = ring_for_dimension(3)
    w = fourier_unitary(ring)
    z = np.exp(2j * np.pi / 3)
    for r in range(3):
        for s in range(3):
            assert abs(w[r, s] - z ** (r * s) / np.sqrt(3)) < 1e-12
    w15 = fourier_unitary(ring_for_dimension(15))
    assert np.abs(w15[:, 0] - 1 / np.sqrt(15)).max() < 1e-12
    ok, dev = linalg.is_unitary(w15, 1e-10)
    assert ok


def test_v_unitary():
    ring = ring_for_dimension(3)
    assert np.array_equal(v_unitary(ring, ring.one), fourier_unitary(ring))
    ring15 = ring_for_dimension(15)
    for a in fields.unit_difference_set(ring15):
        assert linalg.is_unitary(v_unitary(ring15, a), 1e-10)[0]


@pytest.mark.parametrize("d", [15, 19, 81])
def test_twists_are_bit_equal_to_the_matmul(d):
    # V(a) is a row gather of W; the dense product U(a) @ W must give the
    # same bytes, signed zeros included, so family files do not change
    ring = ring_for_dimension(d)
    w = fourier_unitary(ring)
    twists = [mat for label, mat in family_cd(d).generators if label.startswith("V(")]
    s_set = fields.unit_difference_set(ring)
    assert len(twists) == len(s_set)
    for a, got in zip(s_set, twists):
        assert got.tobytes() == (permutation_unitary(ring, a) @ w).tobytes()
        assert v_unitary(ring, a).tobytes() == got.tobytes()
    with pytest.raises(ValueError):
        v_unitary(ring_for_dimension(15), 5)  # (1, 0) is a zero divisor


def test_pauli_matrix_examples():
    ring = ring_for_dimension(3)
    zero, one = 0, ring.one
    assert np.array_equal(pauli_matrix(ring, zero, zero), np.eye(3))
    shift = pauli_matrix(ring, zero, one)
    expected = np.zeros((3, 3))
    for r in range(3):
        expected[(r + 1) % 3, r] = 1
    assert np.array_equal(shift, expected)
    clock = pauli_matrix(ring, one, zero)
    z = np.exp(2j * np.pi / 3)
    assert np.abs(clock - np.diag([1, z, z ** 2])).max() < 1e-12


def test_pauli_matrix_is_monomial_unitary():
    ring = ring_for_dimension(15)
    rng = np.random.default_rng(5)
    for _ in range(10):
        xi = int(rng.integers(15))
        eta = int(rng.integers(15))
        h = pauli_matrix(ring, xi, eta)
        assert linalg.is_unitary(h, 1e-10)[0]
        nz = np.abs(h) > 1e-12
        assert (nz.sum(axis=0) == 1).all() and (nz.sum(axis=1) == 1).all()
        assert np.abs(np.abs(h[nz]) - 1).max() < 1e-12


def test_expand_basis_identity_generator():
    ring = ring_for_dimension(3)
    basis = expand_basis(ring, np.eye(3))
    assert basis.shape == (9, 9)
    assert linalg.gram_deviation(basis) < 1e-10
    assert linalg.max_entanglement_deviation(basis, 3, 3) < 1e-10
    basis6 = expand_basis(ring, np.eye(6))
    assert basis6.shape == (18, 18)
    assert linalg.gram_deviation(basis6) < 1e-10
    assert linalg.max_entanglement_deviation(basis6, 3, 6) < 1e-9


def test_expand_basis_against_hand_loop_oracle():
    # rebuild every vector by summing ring-element terms directly
    ring = ring_for_dimension(3)
    d, k = 3, 2
    kd, n = k * d, k * d * d
    u = random_unitary(kd, seed=11)
    got = expand_basis(ring, u)
    for xi in range(d):
        for eta in range(d):
            for j in range(k):
                col = (xi * d + eta) * k + j
                vec = np.zeros(n, dtype=complex)
                for r in range(d):
                    amp = generic_character(ring, ring_op(ring, field_mul, r, xi)) / np.sqrt(d)
                    ia = ring_op(ring, field_add, r, eta)
                    for ib in range(kd):
                        vec[ia * kd + ib] += amp * u[ib, j * d + r]
                assert np.abs(got[:, col] - vec).max() < 1e-12


def test_expand_basis_matches_pauli_route():
    # v_(xi,eta,j) = (H_(xi,eta) (x) I_kd) v_(0,0,j), a closed-form the
    # expansion never touches
    ring = ring_for_dimension(3)
    d, k = 3, 2
    kd = k * d
    u = random_unitary(kd, seed=23)
    got = expand_basis(ring, u)
    base_cols = got[:, 0:k]  # (xi, eta) = (0, 0)
    for xi in range(d):
        for eta in range(d):
            h = np.kron(pauli_matrix(ring, xi, eta), np.eye(kd))
            for j in range(k):
                col = (xi * d + eta) * k + j
                assert np.abs(got[:, col] - h @ base_cols[:, j]).max() < 1e-12


_SLAB_SHAPES = pytest.mark.parametrize(
    "build", [lambda: family_ckd(3, 4), lambda: family_cd(15), lambda: family_ckd_mols(7, 9)],
    ids=["3-4", "15-1", "7-9-mols"])


@_SLAB_SHAPES
def test_expand_basis_scales_in_place_bit_identically(build, monkeypatch):
    # the 1/sqrt(d) scaling writes into each unscaled slab; its bytes must
    # be those of the out-of-place quotient
    fam = build()
    unscaled = []
    divide = np.divide

    def recording(x, y, out=None):
        if out is not None:
            assert out is x
            unscaled.append(x.copy())
        return divide(x, y, out=out)

    monkeypatch.setattr(np, "divide", recording)
    got = [slab.copy() for slab in expand_slabs(fam.ring, fam.generators[-1][1])]
    monkeypatch.undo()
    assert len(unscaled) == len(got) == fam.d
    for slab, raw in zip(got, unscaled):
        assert slab.tobytes() == (raw / np.sqrt(fam.d)).tobytes()


@_SLAB_SHAPES
def test_slabs_assemble_to_the_whole_expansion_bit_for_bit(build):
    # slab eta is the columns (xi, eta, j) of the whole expansion, in (xi, j)
    # order, bit for bit
    fam = build()
    d, k = fam.d, fam.k
    n = k * d * d
    for _, u in fam.generators:
        whole = expand_basis_whole(fam.ring, u, k).reshape(n, d, d, k)  # [row, xi, eta, j]
        etas = 0
        for eta, slab in enumerate(expand_slabs(fam.ring, u)):
            assert slab.shape == (n, k * d)
            assert slab.tobytes() == np.ascontiguousarray(whole[:, :, eta]).tobytes()
            etas += 1
        assert etas == d
        assert expand_basis(fam.ring, u).tobytes() == whole.tobytes()


@pytest.mark.parametrize("build", [lambda: family_cd(15), lambda: family_cd(19),
                                   lambda: family_cd(25), lambda: family_ckd(3, 4)],
                         ids=["15-1", "19-1", "25-1", "3-4"])
def test_row_gather_permutes_the_expansion_rows_bit_for_bit(build):
    # B_{R[p]} = (I_d (x) P) B_R: row (iA, iB) of the expansion of R[p] is
    # row (iA, p[iB]) of the expansion of R, with the same bytes
    fam = build()
    d, k = fam.d, fam.k
    kd = k * d
    rng = np.random.default_rng(d + k)
    for _, r in fam.generators[::max(1, len(fam.generators) // 4)]:
        p = rng.permutation(kd)
        rows = (np.arange(d)[:, None] * kd + p).ravel()
        gathered = expand_basis(fam.ring, r[p])
        permuted = expand_basis(fam.ring, r)[rows]
        assert np.array_equal(gathered, permuted) and gathered.tobytes() == permuted.tobytes()


def test_expand_basis_guards():
    ring = ring_for_dimension(3)
    with pytest.raises(ValueError):
        expand_basis(ring, np.eye(4))


@pytest.mark.parametrize("d,count", [(3, 4), (9, 16), (15, 4), (21, 4), (25, 48)])
def test_family_cd_counts(d, count):
    fam = family_cd(d)
    labels = [label for label, _ in fam.generators]
    assert fam.n_bases == count
    assert len(set(labels)) == count
    assert fam.metadata["construction"] == "gauss-dd"
    # the aligned-unit set contains 1, so the identity is always a member
    assert labels[0] == f"U(a={fam.ring.one})"
    assert np.array_equal(fam.generators[0][1], np.eye(d))


def test_family_cd_rejects_even_d():
    for d in (2, 4, 6, 8):
        with pytest.raises(ValueError):
            family_cd(d)


def test_meb_family_validation():
    ring = ring_for_dimension(3)
    with pytest.raises(ValueError):
        MEBFamily(3, 1, ring, [("a", np.eye(3)), ("a", np.eye(3))])
    with pytest.raises(ValueError):
        MEBFamily(3, 1, ring, [("a", np.eye(4))])
    with pytest.raises(ValueError):
        MEBFamily(5, 1, ring, [("a", np.eye(5))])
    # unitarity is left to certify_family, which names the offending generator
    fam = MEBFamily(3, 1, ring, [("a", 2 * np.eye(3))])
    assert fam.n_bases == 1


def test_k_factors():
    assert [type(f).__name__ for f in k_factors(12)] == ["FiniteField", "GaloisRing"]
    assert [f.q for f in k_factors(12)] == [3, 4]
    assert [f.q for f in k_factors(45)] == [5, 9]
    assert isinstance(k_factors(8)[0], GaloisRing)


def test_b_block_odd_prime():
    f3 = FiniteField(3)
    # j = 0 kills the quadratic term, leaving the plain character kernel
    dft = fourier_unitary(ring_for_dimension(3))
    assert np.abs(b_block(f3, 0) - dft).max() < 1e-12
    for q, field in ((3, f3), (5, FiniteField(5)), (9, FiniteField(3, 2))):
        blocks = [b_block(field, j) for j in range(q)]
        for blk in blocks:
            assert linalg.is_unitary(blk, 1e-10)[0]
        for i in range(q):
            for j in range(i + 1, q):
                overlaps = np.abs(blocks[i].conj().T @ blocks[j])
                assert np.abs(overlaps - 1 / np.sqrt(q)).max() < 1e-10
    with pytest.raises(ValueError):
        b_block(f3, 3)
    with pytest.raises(ValueError):
        b_block(FiniteField(2), 0)  # characteristic 2 needs the Galois ring


def test_b_block_galois_ring_small():
    g1 = GaloisRing(1)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(b_block(g1, 0) - h).max() < 1e-12
    twisted = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
    assert np.abs(b_block(g1, 1) - twisted).max() < 1e-12


@pytest.mark.parametrize("a", [1, 2, 3])
def test_b_block_galois_ring_flat(a):
    ring = GaloisRing(a)
    q = 2 ** a
    blocks = [b_block(ring, j) for j in range(q)]
    for blk in blocks:
        assert linalg.is_unitary(blk, 1e-10)[0]
    for i in range(q):
        for j in range(i + 1, q):
            overlaps = np.abs(blocks[i].conj().T @ blocks[j])
            assert np.abs(overlaps - 1 / np.sqrt(q)).max() < 1e-10


@pytest.mark.parametrize("k", [4, 6, 8, 9, 12])
def test_b_tensor_family_is_unbiased(k):
    factors = k_factors(k)
    q1 = factors[0].q
    members = [b_tensor(k, j) for j in range(q1 + 1)]
    assert np.array_equal(members[0], np.eye(k))
    for m in members:
        assert linalg.is_unitary(m, 1e-10)[0]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            overlaps = np.abs(members[i].conj().T @ members[j])
            assert np.abs(overlaps - 1 / np.sqrt(k)).max() < 1e-9
    with pytest.raises(ValueError):
        b_tensor(k, q1 + 1)


def test_b_tensor_single_factor_reduces_to_block():
    for j in range(1, 10):
        assert np.array_equal(b_tensor(9, j), b_block(FiniteField(3, 2), j - 1))


@pytest.mark.parametrize("d,k,count", [(3, 4, 4), (9, 4, 5), (3, 9, 4), (3, 6, 3), (5, 4, 5)])
def test_family_ckd_counts(d, k, count):
    fam = family_ckd(d, k)
    assert fam.n_bases == count
    assert fam.d == d and fam.k == k
    assert fam.metadata["construction"] == "gauss-tensor"
    for label, mat in fam.generators:
        assert mat.shape == (k * d, k * d)
    with pytest.raises(ValueError):
        family_ckd(d, 1)


@pytest.mark.parametrize("d,k,count", [(3, 4, 3), (7, 9, 4), (3, 25, 4)])
def test_family_ckd_mols_counts(d, k, count):
    fam = family_ckd_mols(d, k)
    assert fam.n_bases == count
    assert fam.metadata["construction"] == "mols-net"
    assert fam.metadata["mols_order"] ** 2 == k


def test_family_ckd_mols_guards():
    with pytest.raises(ValueError):
        family_ckd_mols(3, 5)  # not a square
    sq = mols_prime_power(3)[0]
    with pytest.raises(OrthogonalityViolation):
        family_ckd_mols(3, 9, squares=[sq, sq])  # a square is never orthogonal to itself
    with pytest.raises(ValueError):
        family_ckd_mols(3, 4, squares=mols_prime_power(3))  # order mismatch
