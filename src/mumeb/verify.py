"""Independent checking engine: the unbiasedness criterion, brute-force
overlaps, entanglement checks, character-sum oracles, and full family
certification.

Two routes are always available for a pair of generators U, V.  The fast
route scans the d^2 k^2 criterion sums |sum_r lambda(r xi)
w_((r,j),(r+eta,l))| against the target 1/sqrt(k), where w = U^dag V.  The
brute-force route measures all N^2 inner products of the two expanded bases
against 1/sqrt(kd^2).  Each criterion sum equals d times the overlap
magnitude shared by the d^2 vector pairs it governs, so the extremes of the
two routes must agree after that rescaling; certification checks this on
every pair.

Both routes depend on the pair only through W = U^dag V: the expansion gives
B_U = (I_d (x) U) B_I, so B_U^dag B_V = B_I^dag (I_d (x) W) B_I.
certify_family therefore runs both routes once per pair class, a set of
pairs that provably share one W, and keeps no expanded basis beyond B_I.

Every column of B_I has d nonzeros, shared by the d columns of one (eta, j),
so each product B_I^dag X runs over those column blocks
(linalg.adjoint_product_blocks) at 8 d N^2 flops instead of 8 N^3.  The
overlaps are B_I^dag ((I_d (x) W) B_I), and the orthonormality of a basis is
max |((I_d (x) U) B_I)^dag B_U - I| = max |B_I^dag ((I_d (x) U^dag) B_U) - I|,
which reads the bytes of the expanded B_U and, for unitary U, equals its
Gram defect max |B_U^dag B_U - I|.
"""

import itertools
import time

import numpy as np

from . import construct, fields, linalg


class VerificationReport:
    """Aggregated outcome of certifying one family; total over bases and pairs."""

    def __init__(self, family_id, d, k, n_bases, tolerances):
        self.family_id = family_id
        self.d = d
        self.k = k
        self.n_bases = n_bases
        self.tolerances = tolerances
        self.generator_errors = []
        self.basis_results = []
        self.pair_results = []
        self.agreement_deviation = 0.0
        self.passed = False
        self.wall_time_s = 0.0

    def to_dict(self):
        return {
            "family_id": self.family_id,
            "d": self.d,
            "k": self.k,
            "n_bases": self.n_bases,
            "tolerances": self.tolerances,
            "generator_errors": self.generator_errors,
            "bases": self.basis_results,
            "pairs": self.pair_results,
            "agreement_deviation": self.agreement_deviation,
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
        }

    def failures(self):
        out = [f"generator {e['label']} not unitary (dev {e['deviation']:.3e})"
               for e in self.generator_errors]
        for b in self.basis_results:
            if not b["pass"]:
                out.append(f"basis {b['label']}: orthonormality {b['orthonormality']:.3e}, "
                           f"entanglement {b['entanglement']:.3e}")
        for p in self.pair_results:
            if not p["pass"] or not p["criterion_pass"]:
                out.append(f"pair ({p['a']}, {p['b']}): overlap deviation {p['overlap_deviation']:.3e}, "
                           f"criterion deviation {p['criterion_deviation']:.3e}")
        return out


def _require_shape(ring, k, *mats):
    kd = k * ring.d
    if any(m.shape != (kd, kd) for m in mats):
        raise ValueError(f"need {kd} x {kd} matrices for d={ring.d}, k={k}")


def criterion_magnitudes(ring, k, w):
    """(min, max) of the criterion sums |sum_r lambda(r xi) w_((r,j),(r+eta,l))|
    of w = U^dag V over all xi, eta in the ring and all block indices j, l."""
    d = ring.d
    w = np.asarray(w, dtype=complex)
    _require_shape(ring, k, w)
    lam = fields.char_table(ring)
    add = fields.add_index_table(ring)
    rows = np.arange(d)[:, None]
    lo, hi = np.inf, 0.0
    for j in range(k):
        for ell in range(k):
            blk = w[j * d:(j + 1) * d, ell * d:(ell + 1) * d]
            gathered = blk[rows, add]        # [r, eta] = blk[r, index(r + eta)]
            mags = np.abs(lam.T @ gathered)  # [xi, eta]
            lo = min(lo, float(mags.min()))
            hi = max(hi, float(mags.max()))
    return lo, hi


def criterion_check(ring, k, u, v):
    """Max deviation of the criterion sums of U^dag V from the target 1/sqrt(k)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    _require_shape(ring, k, u, v)
    lo, hi = criterion_magnitudes(ring, k, u.conj().T @ v)
    target = 1.0 / float(np.sqrt(k))
    return max(abs(hi - target), abs(target - lo))


def bruteforce_unbiased(basis_a, basis_b):
    """(min, max) magnitude over all N^2 cross inner products of two bases,
    reduced block by block over the column supports of basis_a."""
    basis_a = np.asarray(basis_a, dtype=complex)
    basis_b = np.asarray(basis_b, dtype=complex)
    if basis_a.shape != basis_b.shape:
        raise ValueError("bases have different shapes")
    lo, hi = np.inf, 0.0
    for _, block in linalg.adjoint_product_blocks(basis_a, basis_b):
        mags = np.abs(block)
        lo = min(lo, float(mags.min()))
        hi = max(hi, float(mags.max()))
    return lo, hi


def _orthonormality_deviation(b_id, basis, u, out):
    """max |((I_d (x) U) B_I)^dag B_U - I| for the expanded basis B_U of U.

    Computed as B_I^dag ((I_d (x) U^dag) B_U) over the column blocks of B_I,
    with (I_d (x) U^dag) B_U written into `out` (shape (d, kd, N)).  For a
    unitary U it equals the Gram defect max |B_U^dag B_U - I|, since
    B_U = (I_d (x) U) B_I; unlike the Gram defect it also catches columns
    of B_U that are out of place.
    """
    n = basis.shape[0]
    np.matmul(u.conj().T, basis.reshape(out.shape), out=out)
    worst = 0.0
    for cols, block in linalg.adjoint_product_blocks(b_id, out.reshape(n, n)):
        block[np.arange(cols.size), cols] -= 1.0
        worst = max(worst, float(np.abs(block).max()))
    return worst


# ---------------------------------------------------------------------------
# character-sum oracles

def quadratic_sum_direct(ring, c):
    """sum_r lambda(c r^2) over the whole ring, as one complex number."""
    lam_vec = fields.char_table(ring)[:, ring.one]
    mul_c = fields.mul_index_vector(ring, c)
    comps = ring.components(np.arange(ring.d))
    sq = ring.from_components(f.mul(r, r) for f, r in zip(ring.factors, comps))
    return complex(lam_vec[mul_c[sq]].sum())


def gauss_sum_check(ring):
    """Max deviation of |sum_r lambda(c r^2)| from sqrt(d), exhaustive over
    invertible c.  Only rings of odd size qualify."""
    if ring.d % 2 == 0:
        raise ValueError("quadratic sums need 2 invertible, so odd size")
    target = np.sqrt(ring.d)
    worst = 0.0
    for c in ring.units().tolist():
        worst = max(worst, abs(abs(quadratic_sum_direct(ring, c)) - target))
    return worst


# ---------------------------------------------------------------------------
# full certification

def _pair_classes(mats):
    """(i, j, class) for every pair i < j, in itertools.combinations order,
    and the first pair (i, j) of each class.

    Each generator is a row gather U_i = C_i[p_i] of its canonical matrix
    C_i: the rows of U_i + 0.0 (which clears signed zeros) sorted by their
    bytes.  Then U_i^dag U_j = C_i^dag C_j[p_j[p_i^-1]] up to summation
    order, so the pairs with equal (C_i, C_j, p_j[p_i^-1]) share one
    W = U_i^dag U_j.  The key is read off the matrices, never off the labels,
    which a loaded file does not vouch for.
    """
    canonical, ids, orders, positions = {}, [], [], []
    for u in mats:
        rows = np.ascontiguousarray(u + 0.0)
        order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                           kind="stable")
        ids.append(canonical.setdefault(rows[order].tobytes(), len(canonical)))
        position = np.empty_like(order)  # p_i, the inverse of order
        position[order] = np.arange(order.size)
        orders.append(order)
        positions.append(position)
    classes, pairs, first = {}, [], []
    for i, j in itertools.combinations(range(len(mats)), 2):
        key = (ids[i], ids[j], positions[j][orders[i]].tobytes())
        if key not in classes:
            classes[key] = len(first)
            first.append((i, j))
        pairs.append((i, j, classes[key]))
    return pairs, first


def certify_family(family, tolerance=1e-8, pairs_only=False):
    """Check everything the family claims, holding few expanded bases at once.

    Per basis (skipped when pairs_only): expand the generator, check
    orthonormality against (I_d (x) U) B_I and maximal entanglement, and
    drop it.  Per pair class (see _pair_classes), with W = U^dag V of its
    first pair: brute-force overlap extremes of B_I against (I_d (x) W) B_I
    against 1/sqrt(kd^2), criterion extremes of W against 1/sqrt(k), and
    agreement of the two routes after the factor-d rescaling.  Every pair
    keeps its own report row, in combinations order, carrying its class's
    figures and the class id under "class".
    """
    t0 = time.perf_counter()
    d, k = family.d, family.k
    kd = k * d
    n = kd * d
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
    report = VerificationReport(family_id, d, k, family.n_bases, tolerances)

    for label, mat in family.generators:
        ok, dev = linalg.is_unitary(mat, 1e-9)
        if not ok:
            report.generator_errors.append({"label": label, "deviation": dev})
    if report.generator_errors:
        report.passed = False
        report.wall_time_s = time.perf_counter() - t0
        return report

    ring = family.ring
    mats = [mat for _, mat in family.generators]
    pairs, first = _pair_classes(mats)
    if not pairs_only or first:
        b_id = construct.expand_basis(ring, np.eye(kd), k)
        b_w = np.empty((d, kd, n), dtype=complex)  # (I_d (x) X) B, row (iA, iB)
    if not pairs_only:
        for label, mat in family.generators:
            basis = construct.expand_basis(ring, mat, k)
            ortho = _orthonormality_deviation(b_id, basis, mat, b_w)
            ent = linalg.max_entanglement_deviation(basis, d, kd)
            del basis  # so that the next expansion does not coexist with it
            report.basis_results.append({
                "label": label,
                "orthonormality": ortho,
                "entanglement": ent,
                "pass": ortho <= tolerances["orthonormality"]
                        and ent <= tolerances["entanglement"],
            })

    class_results = []
    for i, j in first:
        w = mats[i].conj().T @ mats[j]
        np.matmul(w, b_id.reshape(d, kd, n), out=b_w)
        ov_lo, ov_hi = bruteforce_unbiased(b_id, b_w.reshape(n, n))
        cr_lo, cr_hi = criterion_magnitudes(ring, k, w)
        ov_dev = max(abs(ov_hi - target), abs(target - ov_lo))
        cr_dev = max(abs(cr_hi - crit_target), abs(crit_target - cr_lo))
        class_results.append({
            "overlap_min": ov_lo,
            "overlap_max": ov_hi,
            "overlap_deviation": ov_dev,
            "criterion_deviation": cr_dev,
            "agreement": max(abs(cr_hi / d - ov_hi), abs(cr_lo / d - ov_lo)),
            "pass": ov_dev <= tolerance,
            "criterion_pass": cr_dev <= tolerance,
        })
    for i, j, c in pairs:
        report.pair_results.append({"a": family.generators[i][0], "b": family.generators[j][0],
                                    **class_results[c], "class": c})

    report.agreement_deviation = max((r["agreement"] for r in class_results), default=0.0)
    report.passed = (
        all(b["pass"] for b in report.basis_results)
        and all(p["pass"] and p["criterion_pass"] for p in report.pair_results)
        and report.agreement_deviation <= tolerances["agreement"]
    )
    report.wall_time_s = time.perf_counter() - t0
    return report
