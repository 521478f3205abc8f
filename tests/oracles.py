"""Independent reference implementations that only the tests use.

Each one recomputes a quantity by a route the package itself does not take:
field arithmetic by polynomials and Frobenius powers instead of exp/log and
trace vectors, the GR(4,a) trace by the 2-adic Frobenius, characters from
that arithmetic, Pauli operators as monomial matrices, the expansion as one
whole array instead of eta-slabs, entanglement one vector at a time,
quadratic sums through multiplicative characters, the criterion sums one
d x d block at a time, the unbiased bases of a net one column at a time, the
per-basis checks once per basis instead of once per basis class, family
certification with every basis expanded and one overlap product per pair,
matrices as the nested lists json.dump writes, family files read by
json.load alone instead of the family-file scanner, and the row moves from
slab 0 of an identity basis to its other slabs by that field arithmetic
instead of the add table, the GR(4,a) modulus by a walk over polynomial
products, the least primitive element by counting distinct powers with
np.unique, and family generators as plain arrays (np.zeros plus ones, row
gathers of the Fourier kernel, np.kron) instead of joins of kernel rows.

rotated_family builds inputs rather than checking them: a family whose
generators Q U_t, for one fixed random unitary Q, keep every
W = U_s^dag U_t of the family but do not factor as A (x) C, so that
certify_family takes its streamed route for them.
"""

import json
import time

import numpy as np

from mumeb import construct, families, fields, linalg, verify


def coeffs(field, x):  # low degree first
    return tuple(x // field.p ** i % field.p for i in range(field.a))


def from_coeffs(field, cs):
    return sum(c % field.p * field.p ** i for i, c in enumerate(cs))


def field_add(field, x, y):
    return from_coeffs(field, [u + v for u, v in zip(coeffs(field, x), coeffs(field, y))])


def field_mul(field, x, y):
    return from_coeffs(field, fields._poly_mul_mod(coeffs(field, x), coeffs(field, y),
                                                   field.modulus, field.p))


def field_trace(field, x):
    """x + x^p + ... + x^(p^(a-1)), each power by p - 1 multiplications."""
    total, cur = 0, x
    for _ in range(field.a):
        total, step = field_add(field, total, cur), cur
        for _ in range(field.p - 1):
            cur = field_mul(field, cur, step)
    assert total < field.p, "trace left the prime subfield"
    return total


def ring_op(ring, op, x, y):
    """field_add or field_mul applied to each component of ring indices x, y."""
    return ring.from_components(op(f, u, v) for f, u, v in
                                zip(ring.factors, ring.components(x), ring.components(y)))


def galois_modulus_walk(a):
    """The modulus and Teichmuller rows 0, 1, x, ..., x^(q-2) of GR(4,a):
    the first candidate over Z_4, in fields._monic order, whose reduction
    mod 2 is irreducible (tested afresh for each candidate) and whose root x
    has multiplicative order q - 1, each power of x a polynomial product."""
    q = 2 ** a
    one = (1,) + (0,) * (a - 1)
    for cand in fields._monic(4, a):
        if not fields._is_irreducible(tuple(ci % 2 for ci in cand), 2):
            continue
        x = ((0, 1) + (0,) * (a - 2)) if a >= 2 else ((-cand[0]) % 4,)
        powers = [x]
        while len(powers) < q - 1 and powers[-1] != one:
            powers.append(fields._poly_mul_mod(powers[-1], x, cand, 4))
        if len(powers) == q - 1 and powers[-1] == one:
            return cand, np.array([(0,) * a, one] + powers[:-1], dtype=np.int64)
    raise RuntimeError(f"no basic irreducible modulus for GR(4,{a})")


def primitive_powers_by_unique(field):
    """index(g^m), m = 0..q-2, for the least g whose q - 1 powers are q - 1
    distinct elements, counted with np.unique."""
    for g in range(1, field.q):
        exp = field._powers(g)
        if len(np.unique(exp)) == field.q - 1:
            return exp
    raise AssertionError(f"no primitive element in {field}")


def gauss_generators_by_arrays(d):
    """(label, generator) of family_cd(d) built as plain arrays: U(a) is
    np.zeros with a one at (r, index(a r)), and V(a) is the row gather
    (char_table / sqrt(d))[index(a r)]."""
    ring = fields.ring_for_dimension(d)
    s_set = fields.unit_difference_set(ring)
    out = []
    for a in s_set:
        u = np.zeros((d, d), dtype=complex)
        u[np.arange(d), fields.mul_index_vector(ring, a)] = 1.0
        out.append((f"U(a={a})", u))
    for a in s_set:
        kernel = fields.char_table(ring) / np.sqrt(d)
        out.append((f"V(a={a})", kernel[fields.mul_index_vector(ring, a)]))
    return out


def tensor_generators_by_kron(d, blocks, prefix):
    """(label, np.kron(block_t, U_t)) over the blocks and the family_cd(d)
    generators U_t, as many as the shorter of the two lists."""
    return [(f"{prefix}_{t}⊗{label}", np.kron(block, u))
            for t, (block, (label, u)) in enumerate(zip(blocks, gauss_generators_by_arrays(d)))]


def gr_trace(ring, u):
    """Trace GR(4,a) -> Z_4 of a coefficient tuple, as a sum of Frobenius images
    phi(a + 2b) = a^2 + 2b^2 over the 2-adic decomposition a, b Teichmuller."""
    lift = {tuple(c % 2 for c in t): tuple(t) for t in ring.teichmuller.tolist()}
    total, cur = (0,) * ring.a, tuple(u)
    for _ in range(ring.a):
        total = tuple((s + c) % 4 for s, c in zip(total, cur))
        ta = lift[tuple(c % 2 for c in cur)]
        tb = lift[tuple((c - t) % 4 // 2 for c, t in zip(cur, ta))]
        sq = [fields._poly_mul_mod(t, t, ring.modulus, 4) for t in (ta, tb)]
        cur = tuple((x + 2 * y) % 4 for x, y in zip(*sq))
    assert not any(total[1:]), "trace left Z_4"
    return total[0]


def generic_character(ring, x):
    """Additive character lambda(x) = prod_t exp(2 pi i T_t(x_t) / p_t)."""
    phase = 0.0
    for f, c in zip(ring.factors, ring.components(x)):
        phase += field_trace(f, c) / f.p
    return complex(np.exp(2j * np.pi * phase))


def pauli_matrix(ring, xi, eta):
    """Monomial unitary with entry lambda(r*xi) at position (index(r+eta), index(r))."""
    d = ring.d
    h = np.zeros((d, d), dtype=complex)
    rows = fields.add_index_table(ring)[:, eta]
    h[rows, np.arange(d)] = fields.char_table(ring)[:, xi]
    return h


def expand_basis_whole(ring, u, k):
    """The N x N expansion of u filled one eta at a time into a single
    array, then scaled by 1/sqrt(d) in place, as construct.expand_basis did
    before it was assembled from eta-slabs."""
    d = ring.d
    kd, n = k * d, k * d * d
    lam = fields.char_table(ring)
    add = fields.add_index_table(ring)
    neg = fields.neg_index_vector(ring)
    ucols = np.asarray(u, dtype=complex).reshape(kd, k, d)
    psi = np.zeros((d, kd, d, d, k), dtype=complex)  # [iA, iB, xi, eta, j]
    for eta in range(d):
        r_of = add[:, neg[eta]]
        psi[:, :, :, eta, :] = np.einsum("ax,bja->abxj", lam[r_of, :], ucols[:, :, r_of])
    basis = psi.reshape(n, n)
    return np.divide(basis, np.sqrt(d), out=basis)


def slab_moves(ring, size):
    """The row moves T_eta, a d x (d size) array, that take slab 0 of the
    identity basis of C^d (x) C^size to slab eta: row (iA, iB) to
    (iA + eta, iB), each iA + eta by field_add."""
    added = np.array([[ring_op(ring, field_add, i_a, eta) for i_a in range(ring.d)]
                      for eta in range(ring.d)])  # [eta, iA]
    return (added[:, :, None] * size + np.arange(size)).reshape(ring.d, -1)


def mubs_from_net_columns(net):
    """mols.mubs_from_net one column at a time: column i*x + ell is row ell of
    the order-x Fourier matrix H, H_mn = exp(2 pi i m n / x), placed on the
    points of line i in ascending order, then divided by sqrt(x)."""
    x = net.x
    m = np.arange(x)
    h = np.exp(2j * np.pi * np.outer(m, m) / x)
    out = []
    for row in net.lines:
        basis = np.zeros((x * x, x * x), dtype=complex)
        for i in range(x):
            for ell in range(x):
                col = np.zeros(x * x, dtype=complex)
                col[np.flatnonzero(row == i)] = h[ell]
                basis[:, i * x + ell] = col / np.sqrt(x)
        out.append(basis)
    return out


def reduced_density_check(v, d, dprime):
    """Max deviation of the subsystem-A reduced density of v from I_d / d.

    v lives in C^(d * dprime) with the A index major; the coefficient matrix M
    is the d x dprime reshape and the reduced density is M M^dag.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * dprime:
        raise ValueError(f"vector length {v.size} is not {d}*{dprime}")
    m = v.reshape(d, dprime)
    rho = m @ m.conj().T
    return float(np.abs(rho - np.eye(d) / d).max())


def gauss_sum_reference(field, c, order=2):
    """g(c, order) = sum over the nontrivial powers chi^j of the order-`order`
    multiplicative character of sum_(r != 0) zeta_p^(T(c r)) chi^j(r).

    This equals sum_r zeta_p^(T(c r^order)) by counting order-th power roots,
    which gives an independent route to the quadratic sums.  Each component
    Gauss sum is checked to have magnitude sqrt(q).
    """
    if c == 0:
        raise ValueError("c must be nonzero")
    q = field.q
    if order < 2 or (q - 1) % order:
        raise ValueError(f"character order {order} does not divide q - 1 = {q - 1}")
    for g in range(1, q):  # log_g of every unit, g the least primitive element
        dlog, el = {}, 1
        while el not in dlog:
            dlog[el] = len(dlog)
            el = field_mul(field, el, g)
        if len(dlog) == q - 1:
            break
    zeta_p = np.exp(2j * np.pi / field.p)
    chi_base = np.exp(2j * np.pi / order)
    total = 0.0 + 0.0j
    for j in range(1, order):
        gsum = sum(zeta_p ** field_trace(field, field_mul(field, c, r))
                   * chi_base ** ((j * dlog[r]) % order) for r in range(1, q))
        if abs(abs(gsum) - np.sqrt(q)) > 1e-9:
            raise AssertionError(f"component Gauss sum magnitude {abs(gsum)} != sqrt({q})")
        total += gsum
    return complex(total)


def criterion_magnitudes_blockwise(ring, k, w):
    """verify.criterion_magnitudes by one gather and one GEMM per block
    (j, l) of w, the k^2 blocks in turn."""
    d = ring.d
    lam = fields.char_table(ring)
    add = fields.add_index_table(ring)
    rows = np.arange(d)[:, None]
    lo, hi = np.inf, 0.0
    for j in range(k):
        for ell in range(k):
            blk = w[j * d:(j + 1) * d, ell * d:(ell + 1) * d]
            gathered = blk[rows, add]        # [r, eta] = blk[r, index(r + eta)]
            mags = np.abs(lam.T @ gathered)  # [xi, eta]
            lo = float(np.minimum(lo, mags.min()))  # np.minimum and np.maximum keep a NaN
            hi = float(np.maximum(hi, mags.max()))
    return lo, hi


def basis_figures_per_basis(family, slab_zero=False):
    """(label, orthonormality, entanglement) of every basis, each expanded
    and checked in turn: the per-basis loop of verify.certify_family before
    it ran once per basis class, with verify._basis_deviations written out
    and I subtracted where a product row's column id of B_I equals one of
    the slab's columns.  With slab_zero, over the kd columns (xi, 0, j) of
    each basis alone, slab 0, which certify_family reads; otherwise over
    every slab."""
    ring, d, k = family.ring, family.d, family.k
    kd = k * d
    b_id = linalg.ColumnBlocks(construct.expand_basis(ring, np.eye(kd)))
    col_ids = np.arange(kd * d).reshape(d, d, k)  # [xi, eta, j]
    out = []
    for label, u in family.generators:
        u_dag = u.conj().T
        ortho = ent = 0.0
        for eta, slab in enumerate(construct.expand_slabs(ring, u)):
            if slab_zero and eta:
                break
            cols = col_ids[:, eta].ravel()
            n = len(slab)
            ent = float(np.maximum(ent, linalg.max_entanglement_deviation(slab, n // kd, kd)))
            x = np.matmul(u_dag, slab.reshape(n // kd, kd, kd)).reshape(n, kd)
            ids, block = b_id.adjoint_product(x)
            block = block - (ids[:, None] == cols)
            ortho = float(np.maximum(ortho, np.abs(block).max()))  # a NaN stays
        out.append((label, ortho, ent))
    return out


def certify_exhaustive(family, tolerance=1e-8, pairs_only=False):
    """verify.certify_family without pair classes: expand and hold every
    basis, then run both routes on every pair, the overlaps as B_U^dag B_V."""
    t0 = time.perf_counter()
    d, k = family.d, family.k
    n = k * d * d
    target = 1.0 / float(np.sqrt(n))
    crit_target = 1.0 / float(np.sqrt(k))
    tolerances = {
        "overlap": tolerance,
        "criterion": tolerance,
        "orthonormality": 1e-9,
        "entanglement": 1e-9,
        "agreement": 1e-8,
    }
    family_id = f"{family.metadata.get('construction', 'family')}-d{d}-k{k}"
    report = verify.VerificationReport(family_id, d, k, family.n_bases, tolerances)

    for label, mat in family.generators:
        ok, dev = linalg.is_unitary(mat, 1e-9)
        if not ok:
            report.generator_errors.append({"label": label, "deviation": dev})
    if report.generator_errors:
        report.passed = False
        report.wall_time_s = time.perf_counter() - t0
        return report

    bases = []
    for label, mat in family.generators:
        bases.append(expand := construct.expand_basis(family.ring, mat))
        if not pairs_only:
            ortho = linalg.gram_deviation(expand)
            ent = linalg.max_entanglement_deviation(expand, d, k * d)
            report.basis_results.append({
                "label": label,
                "orthonormality": ortho,
                "entanglement": ent,
                "pass": ortho <= tolerances["orthonormality"]
                        and ent <= tolerances["entanglement"],
            })

    agreement_worst = 0.0
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            ov_lo, ov_hi = verify.bruteforce_unbiased(bases[i], bases[j])
            u, v = family.generators[i][1], family.generators[j][1]
            cr_lo, cr_hi = criterion_magnitudes_blockwise(family.ring, k, u.conj().T @ v)
            # folded with np.maximum, which keeps a NaN in either place
            ov_dev = float(np.maximum(abs(ov_hi - target), abs(target - ov_lo)))
            cr_dev = float(np.maximum(abs(cr_hi - crit_target), abs(crit_target - cr_lo)))
            agreement = float(np.maximum(abs(cr_hi / d - ov_hi), abs(cr_lo / d - ov_lo)))
            agreement_worst = float(np.maximum(agreement_worst, agreement))
            report.pair_results.append({
                "a": family.generators[i][0],
                "b": family.generators[j][0],
                "overlap_min": ov_lo,
                "overlap_max": ov_hi,
                "overlap_deviation": ov_dev,
                "criterion_deviation": cr_dev,
                "agreement": agreement,
                "pass": ov_dev <= tolerance,
                "criterion_pass": cr_dev <= tolerance,
            })

    report.agreement_deviation = agreement_worst
    report.passed = (
        all(b["pass"] for b in report.basis_results)
        and all(p["pass"] and p["criterion_pass"] for p in report.pair_results)
        and agreement_worst <= tolerances["agreement"]
    )
    report.wall_time_s = time.perf_counter() - t0
    return report


def random_unitary(n, seed):
    """An n x n unitary drawn from the Haar measure with a fixed seed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_family(family, seed=0):
    """The family with every generator U_t replaced by Q U_t, for one random
    kd x kd unitary Q.  Each pair keeps W = U_s^dag Q^dag Q U_t = U_s^dag U_t
    up to rounding, so the family passes or fails as before, but a generator
    Q (A (x) C) is no Kronecker product, so certify_family streams it."""
    q = random_unitary(family.k * family.d, seed)
    return construct.MEBFamily(family.d, family.k, family.ring,
                               [(label, q @ u) for label, u in family.generators],
                               family.metadata)


def matrix_to_json(mat):
    """A complex matrix as rows of [re, im] lists of Python floats."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack((mat.real, mat.imag), axis=-1).tolist()


def load_family_json(path):
    """families.load_family with the whole file parsed by json.load: the
    route the scanner falls back to, and the one it must agree with."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=families._reject_constant)
    except families.SchemaError:
        raise
    except json.JSONDecodeError as exc:
        raise families.SchemaError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise families.SchemaError(f"not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        raise families.SchemaError(f"unreadable number: {exc}") from exc
    if isinstance(payload, dict):
        payload.pop("header", None)
    return families.family_from_dict(payload)


def load_outcome(load, path):
    """What a family loader makes of a file: the family's fields with every
    generator's bytes, or the type and message of the error it raises."""
    try:
        fam = load(path)
    except (ValueError, TypeError, KeyError) as exc:
        return type(exc).__name__, str(exc)
    return (fam.d, fam.k, fam.ring.descriptor(), fam.metadata,
            [(label, mat.dtype.str, mat.shape, mat.tobytes()) for label, mat in fam.generators])
