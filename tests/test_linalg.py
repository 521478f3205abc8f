import numpy as np
import pytest

from mumeb import linalg
from mumeb.construct import expand_basis, fourier_unitary
from mumeb.fields import ring_for_dimension
from mumeb.verify import bruteforce_unbiased
from oracles import reduced_density_check, slab_moves


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
    basis = expand_basis(ring, np.eye(6))
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


def _assemble(a, b):
    """A^dag B from the column blocks of `a`, read off it, and the number of
    column groups they found."""
    blocks = linalg.ColumnBlocks(a)
    out = np.full((a.shape[1], b.shape[1]), np.nan, dtype=complex)
    cols, block = blocks.adjoint_product(b)
    assert np.array_equal(np.sort(cols), np.arange(a.shape[1]))  # every column in one group
    out[cols] = block
    return out, len(blocks.rows)


def _random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _slab_major(d, k, ids):
    """The (xi, eta, j) ids of B_I's columns numbered (eta, xi, j)."""
    eta, xi, j = ids // (k * d), ids // k % d, ids % k
    return (xi * d + eta) * k + j


def _moved_blocks(ring, k):
    """The column blocks of B_I read off its slab 0, the columns (xi, 0, j),
    and moved to the other slabs, columns numbered (eta, xi, j)."""
    d = ring.d
    slab = expand_basis(ring, np.eye(k * d))[:, _slab_major(d, k, np.arange(k * d))]
    return linalg.ColumnBlocks(slab, slab_moves(ring, k * d))


@pytest.mark.parametrize("d,k", [(5, 1), (3, 4), (7, 9)])
def test_adjoint_product_blocks_on_identity_basis(d, k):
    # B_I has d nonzeros per column; the d columns of one (eta, j) share
    # them, so its N/d groups of d x d have one shape, read whole and read
    # off slab 0 as certify_family reads it
    ring = ring_for_dimension(d)
    a = expand_basis(ring, np.eye(k * d))
    b = _random_complex(a.shape, seed=d + k)
    got, groups = _assemble(a, b)
    assert groups == d * k
    assert np.abs(got - a.conj().T @ b).max() <= 1e-13
    blocks = _moved_blocks(ring, k)
    assert blocks.rows.shape == blocks.cols.shape == (d * k, d)
    assert blocks.block.shape == (d, d)
    assert blocks.shape == a.shape
    cols, block = blocks.adjoint_product(b)
    assert np.abs(block - got[_slab_major(d, k, cols)]).max() <= 1e-13


@pytest.mark.parametrize("d,k", [(5, 1), (3, 4), (15, 1), (7, 9)])
def test_moved_blocks_are_the_full_read(d, k):
    # the groups of B_I moved from slab 0 are those read off all N columns,
    # matched by their column sets, with the same rows and one block of
    # adjoint values bit for bit; so is every row of a product with them,
    # once the full read's groups take the same places in the one GEMM
    ring = ring_for_dimension(d)
    full = linalg.ColumnBlocks(expand_basis(ring, np.eye(k * d)))
    moved = _moved_blocks(ring, k)
    at = {tuple(c): g for g, c in enumerate(full.cols.tolist())}
    g = np.array([at[tuple(c)] for c in _slab_major(d, k, moved.cols).tolist()])
    assert np.array_equal(np.sort(g), np.arange(len(g)))
    assert np.array_equal(moved.rows, full.rows[g])
    assert np.array_equal(moved.block.view(np.int64), full.block.view(np.int64))
    x = _random_complex((k * d * d, 6), seed=d * k)
    want = np.zeros((k * d * d, 6), dtype=complex)
    got = np.zeros_like(want)
    full.rows, full.cols = full.rows[g], full.cols[g]
    ids, block = full.adjoint_product(x)
    want[ids] = block
    ids, block = moved.adjoint_product(x)
    got[_slab_major(d, k, ids)] = block
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_adjoint_product_blocks_dense_is_one_group():
    a, b = _random_complex((12, 12), seed=1), _random_complex((12, 5), seed=2)
    got, groups = _assemble(a, b)
    assert groups == 1
    assert np.abs(got - a.conj().T @ b).max() <= 1e-13
    with pytest.raises(ValueError, match="need 12 rows"):
        linalg.ColumnBlocks(a).adjoint_product(b[:11])
    for empty in (a[0], a[:, :0], a[:0, :0]):
        with pytest.raises(ValueError, match="need a matrix"):
            linalg.ColumnBlocks(empty)


@pytest.mark.parametrize("d,k", [(5, 1), (3, 4), (15, 1)])
def test_groups_of_one_shape_but_two_blocks_are_one_dense_group(d, k):
    # one spoiled entry keeps every row support of B_I, but its group no
    # longer holds the block that the others hold
    ring = ring_for_dimension(d)
    a = expand_basis(ring, np.eye(k * d))
    row, col = np.argwhere(a)[len(a) // 2]
    a[row, col] *= 1 + 2 ** -40
    b = _random_complex(a.shape, seed=d + k)
    got, groups = _assemble(a, b)
    assert groups == 1
    assert linalg.ColumnBlocks(a).block.shape == a.shape
    assert np.abs(got - a.conj().T @ b).max() <= 1e-13


def test_adjoint_product_blocks_mixed_supports_and_a_zero_column():
    # groups of several shapes are held as one dense group
    a = _random_complex((6, 7), seed=3)
    a[:3, 0] = 0      # support {3, 4, 5}
    a[:3, 4] = 0      # the same support as column 0
    a[1:, 2] = 0      # support {0}
    a[::2, 5] = 0     # support {1, 3, 5}
    a[:, 6] = 0       # no support at all
    b = _random_complex((6, 4), seed=4)
    got, groups = _assemble(a, b)
    assert groups == 1
    assert np.abs(got - a.conj().T @ b).max() <= 1e-13
    assert not got[6].any()


def test_block_overlaps_match_the_dense_product():
    ring = ring_for_dimension(3)
    b_id = expand_basis(ring, np.eye(12))
    q, r = np.linalg.qr(_random_complex((36, 36), seed=6))
    other = q * (np.diag(r) / np.abs(np.diag(r)))  # a random unitary basis
    mags = np.abs(b_id.conj().T @ other)
    lo, hi = bruteforce_unbiased(b_id, other)
    assert abs(lo - mags.min()) <= 1e-13 and abs(hi - mags.max()) <= 1e-13


@pytest.mark.parametrize("d,k", [(3, 1), (5, 2), (9, 1)])
def test_row_groups_read_each_row_off_its_one_group(d, k):
    # each row of an expanded basis is nonzero on the d columns of one
    # group, and row_groups gives the extreme squared magnitudes there
    ring = ring_for_dimension(d)
    a = expand_basis(ring, np.eye(k * d))
    blocks = linalg.ColumnBlocks(a)
    group, lo, hi = blocks.row_groups()
    cols = blocks.cols
    for r in range(a.shape[0]):
        squares = np.abs(a[r, cols[group[r]]]) ** 2
        assert np.isclose(lo[r], squares.min(), rtol=1e-15, atol=0)
        assert np.isclose(hi[r], squares.max(), rtol=1e-15, atol=0)
        outside = np.delete(a[r], cols[group[r]])
        assert not outside.any()
    assert blocks.row_groups() is blocks.row_groups()  # computed once


def test_row_groups_need_rows_that_lie_in_one_group():
    # a dense matrix is one group holding every row, and so are groups of
    # two shapes; two groups of one shape that share row 1 and miss row 3
    # are refused
    a = _random_complex((4, 4), seed=3)
    group, lo, hi = linalg.ColumnBlocks(a).row_groups()
    squares = np.abs(a) ** 2
    assert not group.any()
    assert np.allclose(lo, squares.min(axis=1), rtol=1e-15, atol=0)
    assert np.allclose(hi, squares.max(axis=1), rtol=1e-15, atol=0)
    overlapping = np.array([[1, 0], [1, 1], [0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="partition"):
        linalg.ColumnBlocks(overlapping).row_groups()
    two_shapes = np.array([[1, 0], [0, 1], [0, 1]], dtype=complex)
    group, lo, hi = linalg.ColumnBlocks(two_shapes).row_groups()
    assert not group.any() and group.shape == (3,)
    assert np.array_equal(lo, [0, 0, 0]) and np.array_equal(hi, [1, 1, 1])
