"""Generator families of unitaries and their expansion into maximally
entangled bases of C^d (x) C^kd.

A family member is a kd x kd unitary U; its basis consists of the kd^2
vectors (1/sqrt(d)) sum_r lambda(r xi) |e_(r+eta)> (x) U|e'_(r,j)> indexed by
(xi, eta) over the size-d ring and j = 0..k-1.  Subsystem-A indices are
row-major over the pair (A index, B index), and the kd basis e'_(r,j) of the
B side maps to column j*d + index(r) of U.

expand_slabs yields a basis one eta-slab (the kd columns of one eta) at a
time, so that certification never holds an N x N array; expand_basis
assembles them.
"""

import numpy as np

from . import fields
from .fields import FiniteField, GaloisRing


def frozen(a):
    """a's values as a C-contiguous complex array over an immutable bytes
    object, or a itself when it is one already (is_frozen).  Numpy refuses
    to make such an array, or any view of it, writeable, so its values can
    never change."""
    if is_frozen(a):
        return a
    a = np.asarray(a, dtype=complex)
    return np.frombuffer(a.tobytes(), complex).reshape(a.shape)


def is_frozen(a):
    """Whether a is a C-contiguous complex array whose memory is a bytes
    object, as frozen returns it."""
    if not isinstance(a, np.ndarray) or a.dtype != complex or not a.flags.c_contiguous:
        return False
    while isinstance(a, np.ndarray):
        a = a.base
    return type(a) is bytes


class MEBFamily:
    """A labeled set of generator unitaries plus construction metadata.

    Each generator is held frozen (read-only over immutable bytes, see
    frozen), so its values never change; the builders here freeze each one
    as they make it, and an array that arrives writeable is copied.  Shapes
    and labels are checked here; unitarity only in certify_family."""

    def __init__(self, d, k, ring, generators, metadata=None):
        self.d = d
        self.k = k
        self.ring = ring
        self.generators = [(label, frozen(mat)) for label, mat in generators]
        self.metadata = dict(metadata or {})
        if ring.d != d:
            raise ValueError(f"ring size {ring.d} does not match d={d}")
        labels = [label for label, _ in self.generators]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique")
        for label, mat in self.generators:
            if mat.shape != (k * d, k * d):
                raise ValueError(f"generator {label} has shape {mat.shape}, expected {(k*d, k*d)}")

    @property
    def n_bases(self):
        return len(self.generators)

    def __repr__(self):
        return f"MEBFamily(d={self.d}, k={self.k}, bases={self.n_bases})"


def permutation_unitary(ring, a):
    """The multiplication permutation: entry (r, s) is 1 iff s = a*r.

    Acts on basis vectors as U(a)|e_r> = |e_(r/a)>; U(1) = I and
    U(a)U(b) = U(ab).
    """
    d = ring.d
    u = np.zeros((d, d), dtype=complex)
    u[np.arange(d), _unit_permutation(ring, a)] = 1.0
    return u


def _unit_permutation(ring, a):
    """index(a*r) for every r; a must be invertible."""
    if a not in ring.units():
        raise ValueError("permutation unitary needs an invertible ring element")
    return fields.mul_index_vector(ring, a)


def fourier_unitary(ring):
    """Character kernel (1/sqrt(d)) lambda(r*s); unitary because lambda is generic."""
    return fields.char_table(ring) / np.sqrt(ring.d)


def v_unitary(ring, a):
    """Twisted kernel V(a) = U(a) W: row r of W at index(a*r), since U(a) is
    the permutation with entry (r, a*r)."""
    return fourier_unitary(ring)[_unit_permutation(ring, a)]


def _generator_order(ring, u):
    """u as a complex array and its k, after checking that u is kd x kd."""
    d = ring.d
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % d:
        raise ValueError(f"generator shape {u.shape} is not a multiple of d={d}")
    return u, u.shape[0] // d


def expand_slabs(ring, u):
    """Yield the basis of one generator (see expand_basis) one eta-slab at a
    time, for eta = 0..d-1.

    Slab eta is the N x kd array of the columns (xi, eta, j) in (xi, j)
    order.  Each slab overwrites the one before it, so copy what must
    outlive one iteration.
    """
    u, k = _generator_order(ring, u)
    d = ring.d
    kd = k * d
    lam = fields.char_table(ring)
    add = fields.add_index_table(ring)
    neg = fields.neg_index_vector(ring)
    ucols = u.reshape(kd, k, d)  # ucols[iB, j, r] = u[iB, j*d + r]
    psi = np.empty((d, kd, d, k), dtype=complex)  # [iA, iB, xi, j]
    slab = psi.reshape(kd * d, kd)
    scale = np.sqrt(d)
    for eta in range(d):
        r_of = add[:, neg[eta]]  # [iA]: the r with r + eta = iA
        # [iA, xi] phases times [iB, j, iA] columns
        np.einsum("ax,bja->abxj", lam[r_of], ucols[:, :, r_of], out=psi)
        yield np.divide(slab, scale, out=slab)


def expand_basis(ring, u):
    """Expand one generator into its full basis of C^(kd^2), orthonormal
    when the generator is unitary (certify_family checks that first).

    Returns an N x N array (N = kd^2) whose columns are the basis vectors in
    lexicographic (xi, eta, j) order by canonical ring index, assembled from
    expand_slabs.  certify_family never holds it; the tests and their
    oracle do.
    """
    u, k = _generator_order(ring, u)
    d = ring.d
    n = k * d * d
    basis = np.empty((n, n), dtype=complex)
    cols = basis.reshape(n, d, d, k)  # [row, xi, eta, j]
    for eta, slab in enumerate(expand_slabs(ring, u)):
        cols[:, :, eta] = slab.reshape(n, d, k)
    return basis


def family_cd(d):
    """The 2(q_1 - 1) pairwise-unbiased generators of C^d (x) C^d for odd d.

    Half are multiplication permutations U(a) and half their Fourier twists
    V(a) = U(a) W, with a running over the aligned-unit set S.
    """
    ring = fields.ring_for_dimension(d)
    s_set = fields.unit_difference_set(ring)
    gens = []
    for a in s_set:
        gens.append((f"U(a={a})", frozen(permutation_unitary(ring, a))))
    for a in s_set:
        gens.append((f"V(a={a})", frozen(v_unitary(ring, a))))
    meta = {
        "construction": "gauss-dd",
        "s_indices": s_set,
        "unitarity_tol": 1e-9,
        "vector_order": "(xi,eta,j) lexicographic",
    }
    return MEBFamily(ring.d, 1, ring, gens, meta)


# ---------------------------------------------------------------------------
# flat k x k blocks

# i^e for e = 0..3; 1j ** 3 has real part -0.0, which the family JSON keeps
_Z4_POWERS = np.array([1j ** e for e in range(4)])


def k_factors(k):
    """Prime-power carriers for k, ascending by size; 2-power parts use GR(4,a)."""
    out = []
    for p, a in fields.factor_into_prime_powers(k):
        out.append(GaloisRing(a) if p == 2 else FiniteField(p, a))
    return out


def b_block(factor, j):
    """The j-th flat unitary block of one prime-power factor of k.

    Odd q: entries zeta_p^(T(j m^2 + m n)) / sqrt(q) over field elements m, n.
    Even q: entries i^(Tr((j + 2n) m)) / sqrt(q) over the Teichmuller set of
    GR(4,a).  Any two distinct blocks (and any block against I) have all
    cross-overlap magnitudes 1/sqrt(q).
    """
    if isinstance(factor, FiniteField) and factor.p == 2:
        raise ValueError("even characteristic uses the Galois-ring block")
    q = factor.q
    if not 0 <= j < q:
        raise ValueError(f"block index {j} out of range for q={q}")
    m = np.arange(q)
    mn = factor.trace[factor.mul(m[:, None], m)]  # [m, n] = T(m n)
    if isinstance(factor, GaloisRing):
        # Tr is Z_4-linear: Tr((j + 2n) m) = Tr(j m) + 2 Tr(n m)
        return _Z4_POWERS[(factor.trace[factor.mul(j, m)][:, None] + 2 * mn) % 4] / np.sqrt(q)
    jmm = factor.trace[factor.mul(j, factor.mul(m, m))]
    return np.exp(2j * np.pi * ((jmm[:, None] + mn) / factor.p)) / np.sqrt(q)


def b_tensor(k, j, factors=None):
    """The j-th member of the flat family of C^k: B_0 = I_k, and for j >= 1 the
    tensor of each factor's block at position j - 1.  Valid j: 0..q'_1."""
    if k < 2:
        raise ValueError("flat blocks need k >= 2")
    if factors is None:
        factors = k_factors(k)
    q1 = factors[0].q
    if not 0 <= j <= q1:
        raise ValueError(f"tensor index {j} out of range 0..{q1}")
    if j == 0:
        return np.eye(k, dtype=complex)
    block = None
    for factor in factors:
        piece = b_block(factor, j - 1)
        block = piece if block is None else np.kron(block, piece)
    return block


def _tensor_family(d, k, block, n_k, prefix, meta):
    """The first min{n_k, 2(q_1 - 1)} generators block(t) (x) U_t of
    C^d (x) C^kd, U_t running over family_cd; block(t) is the k x k side,
    called only for those t.  The metadata is family_cd's, overridden by
    `meta`."""
    base = family_cd(d)
    gens = [(f"{prefix}_{t}⊗{label}", frozen(np.kron(block(t), u)))
            for t, (label, u) in enumerate(base.generators[:n_k])]
    return MEBFamily(base.d, k, base.ring, gens, {**base.metadata, **meta})


def family_ckd(d, k):
    """min{q'_1 + 1, 2(q_1 - 1)} generators B_t (x) U_t of C^d (x) C^kd."""
    if k < 2:
        raise ValueError("k must be at least 2; use family_cd for k = 1")
    factors = k_factors(k)
    meta = {"construction": "gauss-tensor", "k_factor_sizes": [f.q for f in factors]}
    return _tensor_family(d, k, lambda t: b_tensor(k, t, factors), factors[0].q + 1,
                          "B", meta)


def family_ckd_mols(d, k, squares=None):
    """min{w + 2, 2(q_1 - 1)} generators G_t (x) U_t, with G_t the t-th
    unbiased basis of C^k built from a net of w orthogonal squares of order
    sqrt(k)."""
    from . import mols as mols_mod

    x = int(round(np.sqrt(k)))
    if x * x != k or x < 2:
        raise ValueError(f"k={k} is not a square of an integer >= 2")
    if squares is None:
        squares = mols_mod.best_mols(x)
    net = mols_mod.net_from_mols(squares, order=x)
    mubs = mols_mod.mubs_from_net(net)
    return _tensor_family(d, k, lambda t: mubs[t], len(mubs), "G",
                          {"construction": "mols-net", "mols_order": x,
                           "mols_count": len(squares), "net_blocks": net.n})
