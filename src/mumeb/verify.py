"""Independent checking engine: the unbiasedness criterion, brute-force
overlaps, entanglement checks, character-sum oracles, and full family
certification.

Two routes are always available for a pair of bases.  The fast route scans
the d^2 k^2 criterion sums |sum_r lambda(r xi) w_((r,j),(r+eta,l))| against
the target 1/sqrt(k), where w = U^dag V.  The brute-force route expands both
bases and measures all N^2 inner products against 1/sqrt(kd^2).  Each
criterion sum equals d times the overlap magnitude shared by the d^2 vector
pairs it governs, so the extremes of the two routes must agree after that
rescaling; certification checks this on every pair.
"""

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


def criterion_magnitudes(ring, k, u, v):
    """(min, max) of the criterion sums |sum_r lambda(r xi) w_((r,j),(r+eta,l))|
    over all xi, eta in the ring and all block indices j, l."""
    d = ring.d
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (k * d, k * d) or v.shape != (k * d, k * d):
        raise ValueError(f"need {k*d} x {k*d} unitaries for d={d}, k={k}")
    w = u.conj().T @ v
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
    """Max deviation of the criterion sums from the target 1/sqrt(k)."""
    lo, hi = criterion_magnitudes(ring, k, u, v)
    target = 1.0 / float(np.sqrt(k))
    return max(abs(hi - target), abs(target - lo))


def bruteforce_unbiased(basis_a, basis_b):
    """(min, max) magnitude over all N^2 cross inner products of two bases."""
    basis_a = np.asarray(basis_a, dtype=complex)
    basis_b = np.asarray(basis_b, dtype=complex)
    if basis_a.shape != basis_b.shape:
        raise ValueError("bases have different shapes")
    mags = np.abs(basis_a.conj().T @ basis_b)
    return float(mags.min()), float(mags.max())


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

def certify_family(family, tolerance=1e-8, pairs_only=False):
    """Expand every generator and check everything the family claims.

    Per basis: orthonormality and maximal entanglement (skipped when
    pairs_only).  Per unordered pair: brute-force overlap extremes against
    1/sqrt(kd^2), criterion extremes against 1/sqrt(k), and agreement of the
    two routes after the factor-d rescaling.
    """
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
    report = VerificationReport(family_id, d, k, family.n_bases, tolerances)

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
        bases.append(expand := construct.expand_basis(family.ring, mat, k))
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
            ov_lo, ov_hi = bruteforce_unbiased(bases[i], bases[j])
            cr_lo, cr_hi = criterion_magnitudes(
                family.ring, k, family.generators[i][1], family.generators[j][1])
            ov_dev = max(abs(ov_hi - target), abs(target - ov_lo))
            cr_dev = max(abs(cr_hi - crit_target), abs(crit_target - cr_lo))
            agreement = max(abs(cr_hi / d - ov_hi), abs(cr_lo / d - ov_lo))
            agreement_worst = max(agreement_worst, agreement)
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
