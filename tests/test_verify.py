import concurrent.futures
import itertools
import sys
import time
import tracemalloc

import numpy as np
import pytest

from mumeb import construct, fields, linalg, mols, verify
from mumeb.cli import main
from mumeb.construct import (MEBFamily, expand_basis, family_cd, family_ckd,
                             family_ckd_mols, fourier_unitary,
                             permutation_unitary, v_unitary)
from mumeb.families import save_family
from mumeb.fields import FiniteField, ProductRing, ring_for_dimension
from mumeb.verify import (_pair_classes, bruteforce_unbiased, certify_family,
                          criterion_check, criterion_magnitudes, gauss_sum_check,
                          quadratic_sum_direct)
from oracles import (basis_figures_per_basis, certify_exhaustive,
                     criterion_magnitudes_blockwise, gauss_sum_reference, random_unitary,
                     rotated_family, slab_moves)


def test_criterion_self_pair_peaks_at_d():
    # w = I concentrates the sums: d at (0, 0) and 0 off the diagonal
    ring = ring_for_dimension(5)
    lo, hi = criterion_magnitudes(ring, np.eye(5))
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(5.0, abs=1e-12)
    assert criterion_check(ring, 1, np.eye(5), np.eye(5)) == pytest.approx(4.0)


def test_criterion_flat_on_known_pairs():
    ring = ring_for_dimension(3)
    u2 = permutation_unitary(ring, 2)
    w = fourier_unitary(ring)
    assert criterion_check(ring, 1, np.eye(3), u2) < 1e-10
    assert criterion_check(ring, 1, np.eye(3), w) < 1e-10
    with pytest.raises(ValueError):
        criterion_magnitudes(ring, np.eye(4))
    with pytest.raises(ValueError):
        criterion_check(ring, 1, np.eye(4), np.eye(4))


@pytest.mark.parametrize("d", [3, 9, 15])
def test_criterion_sensitivity_exhaustive_over_unit_pairs(d):
    # U(a), U(b) pass exactly when a - b is invertible; same for the twisted
    # pairs; mixed pairs always pass
    ring = ring_for_dimension(d)
    units = ring.units().tolist()
    perms = {a: permutation_unitary(ring, a) for a in units}
    twists = {a: v_unitary(ring, a) for a in units}
    seen_failure = False
    for a in units:
        for b in units:
            if a == b:
                continue
            # a - b is a unit iff a and b differ in every component
            flat = all(x != y for x, y in zip(ring.components(a), ring.components(b)))
            dev_uu = criterion_check(ring, 1, perms[a], perms[b])
            dev_vv = criterion_check(ring, 1, twists[a], twists[b])
            dev_uv = criterion_check(ring, 1, perms[a], twists[b])
            assert (dev_uu < 1e-9) == flat
            assert (dev_vv < 1e-9) == flat
            assert dev_uv < 1e-9
            if not flat:
                seen_failure = True
                assert dev_uu > 1e-3 and dev_vv > 1e-3
    # every unit difference is invertible when d is a prime power, and only
    # then; d = 15 must exhibit a genuine failing pair
    assert seen_failure == (d == 15)


def test_criterion_failing_pair_is_the_expected_one():
    ring = ring_for_dimension(15)
    a, b = 6, 7  # components (1, 1) and (1, 2): difference (0, -1) is a zero divisor
    assert ring.components(a) == [1, 1] and ring.components(b) == [1, 2]
    units = ring.units().tolist()
    diff = fields.add_index_table(ring)[a, fields.neg_index_vector(ring)[b]]
    assert a in units and b in units and diff not in units
    dev = criterion_check(ring, 1, permutation_unitary(ring, a),
                          permutation_unitary(ring, b))
    assert dev > 1e-3


def test_bruteforce_unbiased():
    ring = ring_for_dimension(3)
    b1 = expand_basis(ring, np.eye(3))
    lo, hi = bruteforce_unbiased(b1, b1)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi == pytest.approx(1.0)
    b2 = expand_basis(ring, permutation_unitary(ring, 2))
    lo, hi = bruteforce_unbiased(b1, b2)
    assert abs(lo - 1 / 3) < 1e-9 and abs(hi - 1 / 3) < 1e-9
    assert bruteforce_unbiased(b1, b2[:, 1:]) == (lo, hi)  # some columns of a basis
    with pytest.raises(ValueError, match="bases have different shapes"):
        bruteforce_unbiased(b1, np.eye(4))
    with pytest.raises(ValueError, match="bases have different shapes"):
        bruteforce_unbiased(b1, b2[:8, :3])  # 8 rows, not 9


def test_basis_deviations_subtract_the_identity_at_the_chunk_columns():
    # slab 0 of B_I has orthonormality 0 against the blocks of B_I, whose
    # ids below kd are its columns; with two of its columns swapped, an
    # entry of 1 is left over where each meets the other's id
    ring = ring_for_dimension(3)
    b_id = _identity_blocks(ring, 12)
    slab = _slab_zero_of(ring, np.eye(12))  # the columns (xi, 0, j) of B_I
    ortho, ent = _basis_figures(b_id, np.eye(12), slab)
    assert ortho <= 1e-15 and ent <= 1e-15
    ortho, _ = _basis_figures(b_id, np.eye(12), slab[:, [2, 1, 0] + list(range(3, 12))])
    assert ortho >= 0.9


def test_quadratic_sum_value_d3():
    ring = ring_for_dimension(3)
    got = quadratic_sum_direct(ring, ring.one)
    assert abs(got - 1j * np.sqrt(3)) < 1e-12  # 1 + 2 zeta_3 exactly


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25])
def test_gauss_sum_check_all_odd_d(d):
    assert gauss_sum_check(ring_for_dimension(d)) < 1e-10


@pytest.mark.parametrize("lo, hi", [(float("nan"), 0.5), (0.5, float("nan")),
                                     (float("nan"), float("nan")), (0.2, float("nan"))])
def test_deviation_of_a_nan_extreme_is_nan(lo, hi):
    # Python's max(0.0, nan) is 0.0: a NaN after the first place must not pass
    assert np.isnan(verify.deviation(lo, hi, 0.5))


def test_deviation_keeps_the_bits_of_finite_extremes():
    for lo, hi, target in [(0.25, 0.75, 0.5), (0.5, 0.5, 0.5), (0.1, 0.3, 1 / np.sqrt(3)),
                           (0.0, 0.0, 0.0), (1e-300, 1e300, 1.0)]:
        assert verify.deviation(lo, hi, target) == max(abs(hi - target), abs(target - lo))


@pytest.mark.parametrize("at", [0, 1, 5])
def test_gauss_sum_check_of_a_nan_sum_is_nan(monkeypatch, at):
    # a NaN sum after the first must not be dropped by a fold from 0.0
    ring = ring_for_dimension(9)
    units = ring.units().tolist()
    direct = verify.quadratic_sum_direct
    monkeypatch.setattr(verify, "quadratic_sum_direct",
                        lambda r, c: complex("nan") if c == units[at] else direct(r, c))
    assert np.isnan(gauss_sum_check(ring))


def test_gauss_sum_check_rejects_even_rings():
    with pytest.raises(ValueError):
        gauss_sum_check(ProductRing([FiniteField(2, 2)]))


@pytest.mark.parametrize("q", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_gauss_reference_agrees_with_direct_quadratic_sums(q):
    # summing the nontrivial quadratic-character Gauss sums counts square
    # roots, which is a closed-form route the direct summation never uses
    field = FiniteField(*q)
    ring = ProductRing([field])
    for c in range(1, field.q):
        ref = gauss_sum_reference(field, c, order=2)
        direct = quadratic_sum_direct(ring, ring.from_components([c]))
        assert abs(ref - direct) < 1e-9


@pytest.mark.parametrize("d", [15, 45])
def test_quadratic_sums_factor_over_ring_components(d):
    ring = ring_for_dimension(d)
    for c in ring.units().tolist():
        prod = 1.0 + 0.0j
        for part, factor in zip(ring.components(c), ring.factors):
            prod *= gauss_sum_reference(factor, part, order=2)
        assert abs(prod - quadratic_sum_direct(ring, c)) < 1e-8


def test_gauss_reference_higher_order_characters():
    f7 = FiniteField(7)
    got = gauss_sum_reference(f7, 1, order=3)
    assert abs(got) <= 2 * np.sqrt(7) + 1e-9  # two component sums of size sqrt(7)
    with pytest.raises(ValueError):
        gauss_sum_reference(f7, 1, order=4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        gauss_sum_reference(f7, 0)


def test_certify_family_positive():
    report = certify_family(family_cd(3))
    assert report.passed
    assert report.n_bases == 4
    assert len(report.basis_results) == 4
    assert len(report.pair_results) == 6
    assert report.agreement_deviation < 1e-12
    assert report.failures() == []
    assert report.wall_time_s > 0
    d = report.to_dict()
    assert d["family_id"] == "gauss-dd-d3-k1"
    assert d["tolerances"]["orthonormality"] == 1e-9
    for pair in d["pairs"]:
        assert abs(pair["overlap_max"] - 1 / 3) < 1e-9
        assert pair["pass"] and pair["criterion_pass"]


def test_certify_family_pairs_only():
    report = certify_family(family_ckd(3, 4), pairs_only=True)
    assert report.passed
    assert report.basis_results == []
    assert len(report.pair_results) == 6  # 4 bases


def test_certify_flags_incompatible_pair():
    ring = ring_for_dimension(15)
    gens = [("first", permutation_unitary(ring, 6)),
            ("second", permutation_unitary(ring, 7))]
    report = certify_family(MEBFamily(15, 1, ring, gens))
    assert not report.passed
    # both bases are individually fine; the pair is the failure
    assert all(b["pass"] for b in report.basis_results)
    assert any("pair (first, second)" in line for line in report.failures())


def test_certify_reports_tampered_generator_by_name():
    ring = ring_for_dimension(3)
    gens = [("good", np.eye(3)), ("tampered", 0.5 * np.eye(3))]
    fam = MEBFamily(3, 1, ring, gens)
    report = certify_family(fam)
    assert not report.passed
    assert [e["label"] for e in report.generator_errors] == ["tampered"]
    assert report.pair_results == []  # stops before the expensive stages
    assert any("tampered" in line for line in report.failures())


@pytest.mark.parametrize("d,k", [(5, 1), (3, 4)])
def test_pair_overlaps_depend_only_on_w(d, k):
    # B_U = (I_d (x) U) B_I, so B_U^dag B_V = B_I^dag (I_d (x) U^dag V) B_I
    ring = ring_for_dimension(d)
    kd, n = k * d, k * d * d
    u, v = random_unitary(kd, 2 * d + k), random_unitary(kd, 3 * d + k)
    w = u.conj().T @ v
    b_id = expand_basis(ring, np.eye(kd))
    b_w = (w @ b_id.reshape(d, kd, n)).reshape(n, n)
    direct = expand_basis(ring, u).conj().T @ expand_basis(ring, v)
    assert np.abs(direct - b_id.conj().T @ b_w).max() <= 1e-13
    w_canon = _canonical_w(u, v)  # W summed over the rows of U in sorted order
    assert np.abs(w_canon - w).max() <= 1e-13
    lo, hi = criterion_magnitudes(ring, w_canon)
    target = 1.0 / np.sqrt(k)
    assert criterion_check(ring, k, u, v) == max(abs(hi - target), abs(target - lo))


def _canonical_w(u, v):
    """The W = U^dag V that criterion_check forms, C_U^dag C_V[rel]: the rows
    of U + 0.0 in their sorted order (verify._canonical) against the rows of
    V + 0.0 in the same order, which are C_V[rel]."""
    c_u, order, _ = verify._canonical(np.asarray(u, dtype=complex))
    return verify._adjoint_product(c_u, (np.asarray(v, dtype=complex) + 0.0)[order])


def _assert_same_verdicts(got, want, bound=1e-12):
    # flags and labels exactly; figures within `bound`, by default 1e-12,
    # since the block products sum in another order than the dense ones
    assert got.passed == want.passed
    assert len(got.basis_results) == len(want.basis_results)
    for b, c in zip(got.basis_results, want.basis_results):
        assert (b["label"], b["pass"]) == (c["label"], c["pass"])
        for key in ("orthonormality", "entanglement"):
            assert abs(b[key] - c[key]) <= bound, key
    assert len(got.pair_results) == len(want.pair_results)
    for p, q in zip(got.pair_results, want.pair_results):
        assert (p["a"], p["b"], p["pass"], p["criterion_pass"]) == \
               (q["a"], q["b"], q["pass"], q["criterion_pass"])
        for key in ("overlap_min", "overlap_max", "overlap_deviation",
                    "criterion_deviation", "agreement"):
            assert abs(p[key] - q[key]) <= bound, key
    assert abs(got.agreement_deviation - want.agreement_deviation) <= bound


@pytest.mark.parametrize("build,classes", [
    (lambda: family_cd(15), 5),
    (lambda: family_ckd(9, 4), 9),
    (lambda: family_ckd_mols(7, 9), 5),
    (lambda: family_cd(19), 52),
], ids=["15-1", "9-4", "7-9-mols", "19-1"])
def test_classed_route_matches_exhaustive_oracle(build, classes):
    fam = build()
    got = certify_family(fam)
    _assert_same_verdicts(got, certify_exhaustive(fam))
    assert got.passed
    assert len({p["class"] for p in got.pair_results}) == classes


@pytest.mark.parametrize("build,classes", [
    (lambda: family_cd(19), 2), (lambda: family_cd(25), 2), (lambda: family_cd(49), 2),
    (lambda: family_ckd(9, 4), 5), (lambda: family_ckd(15, 9), 4),
    (lambda: family_ckd_mols(7, 9), 1),
], ids=["19-1", "25-1", "49-1", "9-4", "15-9", "7-9-mols"])
def test_basis_class_counts(build, classes):
    # k = 1: every generator is a row gather of I or of the Fourier kernel.
    # gauss-tensor: B_t (x) U_t, one class per basis.  mols-net: the G_t are
    # row permutations of one another and the U_t permutations, so one class
    fam = build()
    ids = _pair_classes([mat for _, mat in fam.generators])[2]
    assert len(ids) == fam.n_bases and len(set(ids)) == classes
    assert list(dict.fromkeys(ids)) == list(range(classes))  # numbered by first appearance


@pytest.mark.parametrize("build", [
    lambda: rotated_family(family_ckd(3, 4)), lambda: rotated_family(family_ckd(9, 4)),
    lambda: rotated_family(family_ckd_mols(7, 9)), lambda: family_cd(15),
], ids=["3-4", "9-4", "7-9-mols", "15-1"])
def test_basis_rows_carry_the_per_basis_figures_of_their_representative(build):
    # each streamed row holds what the per-basis loop computes on slab 0 for
    # the first generator of its class: the entanglement bit for bit, the
    # orthonormality within _slab_rounding, since the loop reads B_I off all
    # N columns and each group of the one GEMM may round by its place; every
    # row of a class holds the same figures bit for bit.  Where every class
    # is a single basis, as in the gauss-tensor families, that is the row's
    # own figure.  The k >= 2 families are rotated, so that none of them
    # factors
    fam = build()
    rows = certify_family(fam).basis_results
    assert {row["route"] for row in rows} == {"streamed"}
    per_basis = basis_figures_per_basis(fam, slab_zero=True)
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row["class"], i)
    for row, (label, _, _) in zip(rows, per_basis):
        _, ortho, ent = per_basis[first[row["class"]]]
        assert (row["label"], row["entanglement"]) == (label, ent)
        assert abs(row["orthonormality"] - ortho) <= _slab_rounding(fam.d)
        held = rows[first[row["class"]]]
        assert (row["orthonormality"], row["entanglement"]) == \
            (held["orthonormality"], held["entanglement"])
    if fam.metadata["construction"] == "gauss-tensor":
        assert [row["class"] for row in rows] == list(range(fam.n_bases))


def _residual_bound(fam):
    """The largest shift the factor residuals can add to a figure of fam,
    all of whose generators factor: d (2 e + e^2), e being the largest
    kd rho over the generators, which is the criterion shift of a pair
    with e_s = e_t = e; every other shift is smaller."""
    kd = fam.k * fam.d
    e = max(kd * verify._kron_factors(u, fam.d)[2] for _, u in fam.generators)
    return fam.d * (2 * e + e * e)


@pytest.mark.parametrize("build", [
    lambda: family_ckd(3, 4), lambda: family_ckd(9, 4), lambda: family_ckd_mols(7, 9),
], ids=["3-4", "9-4", "7-9-mols"])
def test_factored_basis_rows_carry_the_per_basis_figures_of_their_representative(build):
    # a factored row holds its class's figures, which are those of the
    # per-basis loop within 1e-12 of rounding plus the residual shift
    fam = build()
    rows = certify_family(fam).basis_results
    bound = 1e-12 + _residual_bound(fam)
    figures = {}
    for row, (label, ortho, ent) in zip(rows, basis_figures_per_basis(fam)):
        assert (row["label"], row["route"]) == (label, "factored")
        assert 0 <= fam.k * fam.d * row["factor_residual"] <= 2.0 ** -40
        assert abs(row["orthonormality"] - ortho) <= bound
        assert abs(row["entanglement"] - ent) <= bound
        e = fam.k * fam.d * row["factor_residual"]  # its shift is part of each figure
        assert min(row["orthonormality"], row["entanglement"]) >= 2 * e + e * e
        figure = (row["orthonormality"], row["entanglement"], row["factor_residual"])
        assert figures.setdefault(row["class"], figure) == figure


@pytest.mark.parametrize("build", [
    lambda: family_ckd(3, 4), lambda: family_ckd(5, 4), lambda: family_ckd(9, 4),
    lambda: family_ckd(3, 6), lambda: family_ckd(15, 9), lambda: family_ckd(3, 64),
    lambda: family_ckd_mols(7, 9), lambda: family_ckd_mols(5, 16),
], ids=["3-4", "5-4", "9-4", "3-6", "15-9", "3-64", "7-9-mols", "5-16-mols"])
def test_factored_route_matches_exhaustive_oracle(build):
    # every generator factors, so every class takes the factored route; the
    # oracle expands and holds every kd-level basis.  Flags and labels must
    # be equal, and figures within 1e-12 plus the residual shift
    fam = build()
    got = certify_family(fam)
    assert {row["route"] for row in got.basis_results + got.pair_results} == {"factored"}
    stages = got.stages
    assert (stages["factored_basis_classes"], stages["factored_pair_classes"]) == \
        (stages["basis_classes"], stages["classes"])
    _assert_same_verdicts(got, certify_exhaustive(fam), 1e-12 + _residual_bound(fam))
    assert got.passed


def test_factored_route_matches_exhaustive_oracle_on_uneven_factors():
    # random k x k unitaries A_t in place of the flat blocks: each
    # A_t (x) C_t still factors, but |A_s^dag A_t| is uneven, so every pair
    # fails, and only the smallest and largest |entry| give its extremes
    base = family_cd(3)
    gens = [(label, np.kron(random_unitary(4, seed), u))
            for seed, (label, u) in enumerate(base.generators)]
    fam = MEBFamily(3, 4, base.ring, gens, base.metadata)
    got = certify_family(fam)
    assert {row["route"] for row in got.basis_results + got.pair_results} == {"factored"}
    _assert_same_verdicts(got, certify_exhaustive(fam), 1e-12 + _residual_bound(fam))
    assert all(b["pass"] for b in got.basis_results)
    assert not any(p["pass"] or p["criterion_pass"] for p in got.pair_results)


def test_each_pair_of_a_d_level_class_takes_its_own_a_factors():
    # A_t = D_t M, M a real orthogonal 4 x 4 whose (0, 0) entry is its first
    # largest and D_t = diag(1, i^t, i^2t, i^3t), so every C read off
    # A_t (x) U_t is 0.768 U_t and the U(a)^dag U(b) of equal b / a share a
    # d-level class, while |A_s^dag A_t| = |M^T D_s^dag D_t M| changes with
    # t - s: the pairs of one class hold other figures, each those of the
    # oracle on the pair itself
    m = np.kron([[0.8, -0.6], [0.6, 0.8]], [[0.96, -0.28], [0.28, 0.96]])
    base = family_cd(5)
    gens = [(label, np.kron(np.diag(1j ** (t * np.arange(4))) @ m, u))
            for t, (label, u) in enumerate(base.generators)]
    fam = MEBFamily(5, 4, base.ring, gens, base.metadata)
    got = certify_family(fam)
    assert {row["route"] for row in got.basis_results + got.pair_results} == {"factored"}
    highs = {}
    for row in got.pair_results:
        highs.setdefault(row["class"], set()).add(row["overlap_max"])
    assert max(len(h) for h in highs.values()) > 1  # a class whose pairs differ
    _assert_same_verdicts(got, certify_exhaustive(fam), 1e-12 + _residual_bound(fam))


def test_tampered_cell_fails_the_factor_check_and_the_streamed_route(monkeypatch):
    # generator 0 of family_ckd(3, 4) is I_12; turning one cell of its block
    # (1, 1) to i leaves a unitary (a monomial matrix) and an orthonormal,
    # maximally entangled basis, but no A (x) C, and one no longer unbiased
    # to those of generators 2 and 3
    calls = _count_expansions(monkeypatch)
    fam = family_ckd(3, 4)
    gens = list(fam.generators)
    label, u = gens[0]
    assert np.array_equal(u, np.eye(12))
    u = u.copy()
    u[4, 4] = 1j
    gens[0] = (label, u)
    assert verify._kron_factors(u, 3) is None
    tampered = MEBFamily(3, 4, fam.ring, gens, fam.metadata)
    got = certify_family(tampered)
    # the unfactored pairs read B_I and the factored ones B_{I_d}, each once
    assert calls.count((12, True)) == calls.count((3, True)) == 1
    _assert_same_verdicts(got, certify_exhaustive(tampered), 1e-12 + _residual_bound(fam))
    assert [(b["label"], b["route"], b["pass"]) for b in got.basis_results] == \
        [(other, "streamed" if other == label else "factored", True) for other, _ in gens]
    assert [p["route"] for p in got.pair_results] == ["streamed"] * 3 + ["factored"] * 3
    failing = [(p["a"], p["b"]) for p in got.pair_results
               if not (p["pass"] or p["criterion_pass"])]
    assert failing == [(label, gens[2][0]), (label, gens[3][0])]
    assert not got.passed
    assert got.stages["factored_basis_classes"] == 3 and got.stages["factored_pair_classes"] == 3


def _record_shapes(monkeypatch, *names):
    """Record (name, shape of the first argument) of every call to each
    (module, name) given, which then runs as before."""
    calls = []
    for module, name in names:
        monkeypatch.setattr(module, name, lambda a, *rest, f=getattr(module, name), name=name:
                            calls.append((name, a.shape)) or f(a, *rest))
    return calls


@pytest.mark.parametrize("d,k", [(9, 64), (15, 9)])
def test_a_factored_family_sorts_checks_and_multiplies_no_kd_by_kd_matrix(monkeypatch, d, k):
    # unitarity comes from A^dag A and C^dag C, and the basis and pair
    # classes from the canonical forms of the k x k A and the d x d C
    calls = _record_shapes(monkeypatch, (linalg, "is_unitary"), (verify, "_canonical"),
                           (verify, "_adjoint_product"))
    report = certify_family(family_ckd(d, k))
    assert report.passed
    assert {name for name, _ in calls} == {"_canonical", "_adjoint_product"}
    assert max(max(shape) for _, shape in calls) == max(d, k) < k * d
    assert report.stages["dense_unitarity_generators"] == 0
    assert report.stages["classes"] == {(9, 64): 37, (15, 9): 6}[d, k]


def _scale(m, cols=slice(None)):
    m[:, cols] *= 1.5


def _mix(m):
    m[:, 1] += 0.5 * m[:, 0]


# (what is done to A, to C, whether a cell of A (x) C then moves by 2^-44)
_FACTOR_SPOILS = {
    "A": (_scale, None, False), "C": (None, _scale, False),
    "A-column": (lambda m: _scale(m, 0), None, False),
    "C-column": (None, lambda m: _scale(m, 0), False),
    "A-mixed": (_mix, None, False), "C-mixed": (None, _mix, False),
    "A-moved-cell": (_scale, None, True),
}


@pytest.mark.parametrize("spoil", list(_FACTOR_SPOILS))
def test_a_spoiled_factor_fails_unitarity_within_the_bound_of_the_dense_figure(
        monkeypatch, tmp_path, capsys, spoil):
    # generator 2 of family_ckd(3, 4) rebuilt from its factors with one of
    # them spoiled: scaled by 1.5, all of it or one column, or with a column
    # added to another.  It still factors, so it is checked from X (x) G
    # alone, and its deviation bounds the dense max |U^dag U - I| and
    # exceeds it by at most twice the residual terms (module docstring).
    # With a cell moved by 2^-44 along its entry, rho > 0 and the dense
    # figure grows by ~5e-14, which only those terms cover
    fam = family_ckd(3, 4)
    gens = list(fam.generators)
    label, u = gens[2]
    a, c, _ = (np.array(m) for m in verify._kron_factors(u, fam.d))
    on_a, on_c, moved = _FACTOR_SPOILS[spoil]
    for side, how in ((a, on_a), (c, on_c)):
        if how:
            how(side)
    u = np.kron(a, c)
    if moved:
        at = (-1, int(np.abs(u[-1]).argmax()))
        u[at] *= 1 + 2.0 ** -44 / abs(u[at])
    factors = verify._kron_factors(u, fam.d)
    assert factors is not None and (factors[2] > 2.0 ** -45) == moved
    gens[2] = (label, u)
    fam = MEBFamily(fam.d, fam.k, fam.ring, gens, fam.metadata)
    kd = fam.k * fam.d
    e = kd * factors[2]
    calls = _record_shapes(monkeypatch, (linalg, "is_unitary"))
    report = certify_family(fam)
    assert calls == [] and report.stages["dense_unitarity_generators"] == 0
    assert [row["label"] for row in report.generator_errors] == [label]
    dev = report.generator_errors[0]["deviation"]
    dense = linalg.is_unitary(u)[1]
    assert dense > 0.1
    assert dense - 1e-14 <= dev <= dense + 2 * (2 * e * np.sqrt(1 + kd * dev) + e * e) + 1e-14
    assert not report.passed and report.pair_results == []
    path = tmp_path / "spoiled.json"
    save_family(fam, path)
    assert main(["verify", str(path)]) == 3
    assert f"FAIL generator {label} not unitary (dev " in capsys.readouterr().out


def test_a_tampered_cell_takes_the_dense_unitarity_check(monkeypatch):
    # generator 0 of family_ckd(3, 4) is I_12; a cell of 1 + 1e-6 leaves no
    # A (x) C within 2^-40 / kd, so that generator alone takes the dense
    # check, which it fails with the dense figure, bit for bit
    fam = family_ckd(3, 4)
    gens = list(fam.generators)
    label, u = gens[0]
    u = np.array(u)
    u[4, 4] = 1 + 1e-6
    gens[0] = (label, u)
    assert verify._kron_factors(u, 3) is None
    calls = _record_shapes(monkeypatch, (linalg, "is_unitary"))
    report = certify_family(MEBFamily(3, 4, fam.ring, gens, fam.metadata))
    assert calls == [("is_unitary", (12, 12))]
    assert report.generator_errors == [{"label": label, "deviation": linalg.is_unitary(u)[1]}]
    assert report.stages["dense_unitarity_generators"] == 1
    assert not report.passed and report.pair_results == []


def test_a_basis_class_carries_the_largest_residual_of_its_members():
    # a copy of a generator with one cell moved by 2^-50, off the cells its
    # factors are read from, has the same A and C and so the same basis
    # class, but its own residual, which the class's figures then include
    fam = family_ckd(3, 4)
    gens = list(fam.generators)
    label, u = gens[2]
    moved = np.array(u)
    moved[-1, -1] += 2.0 ** -50
    (a, c, rho), (a2, c2, rho2) = (verify._kron_factors(m, 3) for m in (u, moved))
    assert np.array_equal(a, a2) and np.array_equal(c, c2) and rho < rho2
    gens.append((label + "'", moved))
    report = certify_family(MEBFamily(3, 4, fam.ring, gens, fam.metadata))
    rows = [row for row in report.basis_results if row["class"] == report.basis_results[2]["class"]]
    assert [row["label"] for row in rows] == [label, label + "'"]
    e = 12 * rho2
    for row in rows:
        assert row["factor_residual"] == rho2
        assert min(row["orthonormality"], row["entanglement"]) >= 2 * e + e * e
    assert report.stages["basis_classes"] == 4


@pytest.mark.parametrize("d,k,kd_level,d_level", [
    (9, 4, 10, 9), (25, 9, 45, 36), (45, 9, 28, 26), (81, 9, 45, 41), (9, 64, 120, 37),
], ids=["9-4", "25-9", "45-9", "81-9", "9-64"])
def test_factored_pair_classes_are_keyed_on_the_d_level_factors(d, k, kd_level, d_level):
    # the pairs of one class share Y = C_s^dag C_t up to summation order,
    # which merges pairs that the kd-level key keeps apart; each generator
    # of family_ckd stays its own basis class
    fam = family_ckd(d, k)
    mats = [u for _, u in fam.generators]
    factors = [verify._kron_factors(u, d) for u in mats]
    assert len(_pair_classes(mats)[1]) == kd_level
    pairs, first, ids = _pair_classes(mats, factors)
    assert len(first) == d_level and ids == list(range(fam.n_bases))
    ys = [verify._adjoint_product(factors[i][1], factors[j][1]) for i, j in first]
    for i, j, c in pairs:
        assert np.abs(verify._adjoint_product(factors[i][1], factors[j][1]) - ys[c]).max() <= 1e-15


def test_factors_classes_and_unitarity_are_timed_apart(monkeypatch):
    # a slow factor read or class search shows in its own stage, not in
    # unitarity_s
    for name in ("_kron_factors", "_pair_classes"):
        monkeypatch.setattr(verify, name, lambda *args, f=getattr(verify, name):
                            time.sleep(0.02) or f(*args))
    report = certify_family(family_ckd(3, 4))
    stages = report.stages
    assert stages["factors_s"] >= 4 * 0.02 and stages["class_search_s"] >= 0.02
    assert stages["unitarity_s"] < 0.02
    assert stages["factors_s"] + stages["class_search_s"] + stages["unitarity_s"] <= \
        report.wall_time_s


@pytest.mark.parametrize("build,n_streamed", [
    (lambda: family_cd(3), 2), (lambda: family_cd(15), 2),
    (lambda: rotated_family(family_ckd(3, 4)), 6), (lambda: rotated_family(family_ckd(9, 4)), 10),
    (lambda: rotated_family(family_ckd_mols(7, 9)), 6),
], ids=["3-1", "15-1", "rotated-3-4", "rotated-9-4", "rotated-7-9-mols"])
def test_unfactored_families_take_the_streamed_route(build, n_streamed):
    # k = 1 generators are never factored; rotated k >= 2 generators do not
    # factor.  A pair class whose W is monomial takes the sparse product.
    # The kd-level classes of a rotated family are brute-forced one by one,
    # never matched against an orbit representative
    fam = build()
    report = certify_family(fam)
    rows = report.basis_results + report.pair_results
    assert {row["route"] for row in report.basis_results} == {"streamed"}
    assert {row["route"] for row in report.pair_results} <= {"streamed", "sparse", "orbit"}
    sparse = {row["class"] for row in report.pair_results if row["route"] == "sparse"}
    assert report.stages["sparse_pair_classes"] == len(sparse) == (2 if fam.k == 1 else 0)
    # of the 3 dense classes of (15,1), 2 are conjugates by a unit multiplication
    orbit = {row["class"] for row in report.pair_results if row["route"] == "orbit"}
    assert report.stages["orbit_pair_classes"] == len(orbit) == (1 if fam.d == 15 else 0)
    streamed = {row["class"] for row in report.pair_results if row["route"] == "streamed"}
    assert len(streamed) == n_streamed == report.stages["classes"] - len(sparse) - len(orbit)
    assert not any("factor_residual" in row for row in rows)
    assert report.stages["factored_basis_classes"] == report.stages["factored_pair_classes"] == 0
    assert report.passed


def test_spoiled_family_fails_the_same_pairs_in_both_routes():
    # one generator replaced by a random unitary, one by a twist whose rows
    # are reversed: the labels stay, only the matrices say which pairs differ
    fam = family_cd(19)
    gens = list(fam.generators)
    gens[3] = (gens[3][0], random_unitary(19, 7))
    gens[20] = (gens[20][0], gens[20][1][::-1])
    spoiled = MEBFamily(19, 1, fam.ring, gens, fam.metadata)
    got, want = certify_family(spoiled), certify_exhaustive(spoiled)
    _assert_same_verdicts(got, want)
    failing = [(p["a"], p["b"]) for p in got.pair_results
               if not (p["pass"] and p["criterion_pass"])]
    assert not got.passed and len(failing) == 36
    assert all(gens[3][0] in pair or gens[20][0] in pair for pair in failing)


def _count_expansions(monkeypatch):
    """Record (size, whether it is the identity) of every expansion."""
    calls = []
    slabs = construct.expand_slabs

    def counting(ring, u):
        calls.append((len(u), np.array_equal(u, np.eye(len(u)))))
        return slabs(ring, u)

    monkeypatch.setattr(construct, "expand_slabs", counting)
    return calls


def test_pairs_only_expands_the_identity_basis_at_most_once(monkeypatch):
    calls = _count_expansions(monkeypatch)
    fam = rotated_family(family_ckd(3, 4))
    report = certify_family(fam, pairs_only=True)
    assert report.passed and len(report.pair_results) == 6
    assert calls == [(12, True)] + [(12, False)] * 6  # B_I, then B_W once per class
    calls.clear()
    assert certify_family(MEBFamily(3, 1, fam.ring, [("only", np.eye(3))]),
                          pairs_only=True).passed
    assert calls == []


def test_factored_pairs_only_expands_the_d_level_identity_basis_once(monkeypatch):
    calls = _count_expansions(monkeypatch)
    report = certify_family(family_ckd(3, 4), pairs_only=True)
    assert report.passed and len(report.pair_results) == 6
    # B_{I_d}, then B_Y once per canonical matrix of the 4 classes whose Y
    # is not monomial: 2, each of the other Y being a row gather of one
    assert calls == [(3, True)] + [(3, False)] * 2
    assert report.stages["expansions"] == 3
    assert report.stages["sparse_pair_classes"] == 2


def _spoil_expansions(monkeypatch, spoil, target=None):
    """Make construct.expand_slabs apply `spoil(eta, slab)` to the slabs of
    the expansion of `target`, or of every expansion but B_I's if target is
    None; construct.expand_basis, which the oracle uses, assembles the same
    slabs."""
    slabs = construct.expand_slabs

    def spoiled(ring, u):
        hit = (not np.array_equal(u, np.eye(len(u))) if target is None
               else np.array_equal(u, target))
        for eta, slab in enumerate(slabs(ring, u)):
            if hit:
                spoil(eta, slab)
            yield slab

    monkeypatch.setattr(construct, "expand_slabs", spoiled)


def _failing_bases(report):
    return [b["label"] for b in report.basis_results if not b["pass"]]


def _translate(d, slab, xi, j):
    """The position of the column (xi, eta, j) in slab eta of an expansion
    over a size-d ring: the slab-0 column (xi, 0, j) or its translate."""
    return xi * (slab.shape[1] // d) + j


def _scale_translates(d):
    """A spoil that scales the column (1, eta, 0) of every slab eta by 1.01,
    which keeps every slab the translate of slab 0."""
    def spoil(eta, slab):
        slab[:, _translate(d, slab, 1, 0)] *= 1.01
    return spoil


def _assert_scaled_column_fails(monkeypatch, tmp_path, capsys, fam, route):
    path = tmp_path / "fam.json"
    save_family(fam, path)
    _spoil_expansions(monkeypatch, _scale_translates(fam.d))
    got, want = certify_family(fam), certify_exhaustive(fam)
    assert {b["route"] for b in got.basis_results} == {route}
    non_identity = [label for label, mat in fam.generators
                    if not np.array_equal(mat, np.eye(12))]
    assert non_identity
    assert _failing_bases(got) == _failing_bases(want) == non_identity
    # each scaled column enters ((I_d (x) U) B_I)^dag B_U once (1.01 - 1)
    # and the Gram matrix B_U^dag B_U twice (1.01^2 - 1)
    for b, c in zip(got.basis_results, want.basis_results):
        if b["label"] in non_identity:
            assert b["orthonormality"] == pytest.approx(0.01, abs=1e-12)
            assert c["orthonormality"] == pytest.approx(0.0201, abs=1e-12)
    assert not got.passed and not want.passed
    # the spoiled expansions of B_W, or of B_Y, move the overlaps of every
    # pair class that expands one and the criterion sums of none: the routes
    # share no figure.  A class whose W or Y is monomial expands neither
    assert all(p["pass"] == ("monomial_residual" in p) and p["criterion_pass"]
               for p in got.pair_results)
    assert not all(p["pass"] for p in got.pair_results)
    # each failing basis has its line, in failures() and in verify's stdout
    basis_lines = [line for line in got.failures() if line.startswith("basis ")]
    assert [line.split(":")[0] for line in basis_lines] == [f"basis {label}"
                                                            for label in non_identity]
    assert main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    for label in non_identity:
        assert f"FAIL basis {label}: orthonormality 1.000e-02, entanglement " in out


def test_scaled_column_fails_orthonormality_in_both_routes(monkeypatch, tmp_path, capsys):
    # every basis of the rotated family_ckd(3, 4) is its own basis class and
    # none factors, so every expansion but B_I's is spoiled and checked in
    # both routes
    _assert_scaled_column_fails(monkeypatch, tmp_path, capsys,
                                rotated_family(family_ckd(3, 4)), "streamed")


def test_scaled_column_fails_orthonormality_in_the_factored_route(monkeypatch, tmp_path, capsys):
    # each A (x) C of family_ckd(3, 4) is checked from the d-level expansion
    # of C, spoiled unless C = I_3, which holds only for generator 0 = I_12;
    # the oracle spoils the kd-level expansion of the same generators
    _assert_scaled_column_fails(monkeypatch, tmp_path, capsys, family_ckd(3, 4), "factored")


def test_spoiled_class_representative_fails_every_member(monkeypatch):
    # the twists V(a) of family_cd(5) are row gathers of one another, so
    # only the first is expanded; spoiling its expansion, a slab-0 column
    # and its translates, fails all of them
    fam = family_cd(5)
    classes = [b["class"] for b in certify_family(fam).basis_results]
    assert classes == [0] * 4 + [1] * 4
    twists = [label for label, _ in fam.generators if label.startswith("V")]
    first_twist = dict(fam.generators)[twists[0]]
    _spoil_expansions(monkeypatch, _scale_translates(5), target=first_twist)
    got = certify_family(fam)
    assert _failing_bases(got) == twists
    for b in got.basis_results:
        assert b["class"] == (b["label"] in twists)
        if b["label"] in twists:
            assert b["orthonormality"] == pytest.approx(0.01, abs=1e-12)
    assert got.stages["basis_classes"] == 2 and not got.passed


def _swap_translates(d):
    """A spoil that swaps the columns (0, eta, 0) and (1, eta, 0) of every
    slab eta, which keeps every slab the translate of slab 0."""
    def spoil(eta, slab):
        at = [_translate(d, slab, xi, 0) for xi in (0, 1)]
        slab[:, at] = slab[:, at[::-1]]
    return spoil


def _assert_swapped_columns_fail(monkeypatch, fam, route):
    _spoil_expansions(monkeypatch, _swap_translates(fam.d))
    got, want = certify_family(fam), certify_exhaustive(fam)
    assert {b["route"] for b in got.basis_results} == {route}
    non_identity = [label for label, mat in fam.generators
                    if not np.array_equal(mat, np.eye(12))]
    assert non_identity and _failing_bases(got) == non_identity
    assert _failing_bases(want) == []
    assert not got.passed


def test_swapped_columns_fail_orthonormality(monkeypatch):
    # a permuted expansion is still orthonormal, so the Gram check of the
    # exhaustive route passes it; ((I_d (x) U) B_I)^dag B_U - I does not.
    # The rotated family takes the streamed route
    _assert_swapped_columns_fail(monkeypatch, rotated_family(family_ckd(3, 4)), "streamed")


def test_swapped_columns_fail_orthonormality_in_the_factored_route(monkeypatch):
    # swapped in the d-level expansion of C, the columns land out of place
    # in G = B_{I_d}^dag (I_d (x) C^dag) B_C, and so in X (x) G
    _assert_swapped_columns_fail(monkeypatch, family_ckd(3, 4), "factored")


def _assert_peak_below_half_an_n_by_n_array(fam, routes, pairs_only=False):
    # numpy reports its buffers to tracemalloc; one N x N complex array is
    # 16 N^2 bytes, and the whole certification must peak below half of it
    n = fam.k * fam.d * fam.d
    tracemalloc.start()
    try:
        report = certify_family(fam, pairs_only=pairs_only)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert {b["route"] for b in report.basis_results + report.pair_results} == routes
    assert peak < 16 * n * n / 2


def test_certify_family_holds_no_n_by_n_array():
    _assert_peak_below_half_an_n_by_n_array(rotated_family(family_ckd(15, 4)), {"streamed"})


def test_sparse_certify_family_holds_no_n_by_n_array():
    _assert_peak_below_half_an_n_by_n_array(family_cd(25), {"streamed", "sparse", "orbit"})


def test_sparse_pair_classes_hold_no_n_by_n_array():
    # the pairs of the permutations U(a) of (25,1) are all monomial, and
    # only B_I is expanded
    fam = family_cd(25)
    fam = MEBFamily(fam.d, fam.k, fam.ring, [g for g in fam.generators if g[0].startswith("U")])
    _assert_peak_below_half_an_n_by_n_array(fam, {"sparse"}, pairs_only=True)


def test_factored_certify_family_holds_no_n_by_n_array():
    _assert_peak_below_half_an_n_by_n_array(family_ckd(15, 4), {"factored"})


def test_stages_count_the_streamed_work():
    report = certify_family(family_cd(19))
    stages = report.stages
    # expansions: B_I and B_F, F the first twist.  The first basis class is
    # that of U(1) = I, the second that of F, and the W of each of the 2
    # orbits of the 18 dense pair classes is a row gather of F; the other 16
    # dense classes take their orbit's figures and the other 34 the sparse
    # product
    assert {key: stages[key] for key in ("bases", "basis_classes", "pairs", "classes",
                                         "sparse_pair_classes", "orbit_pair_classes",
                                         "expansions", "dense_unitarity_generators")} == \
        {"bases": 36, "basis_classes": 2, "pairs": 630, "classes": 52,
         "sparse_pair_classes": 34, "orbit_pair_classes": 16, "expansions": 2,
         "dense_unitarity_generators": 36}
    assert stages["slabs_checked"] == 18 * 2  # every slab but slab 0 of each
    for key in ("factors_s", "class_search_s", "unitarity_s", "identity_blocks_s", "bases_s",
                "classes_s", "expansions_s"):
        assert 0 <= stages[key] <= report.wall_time_s
    assert "stages" not in report.to_dict()
    only = certify_family(family_cd(19), pairs_only=True).stages
    assert (only["expansions"], only["slabs_checked"]) == (2, 18 * 2)



@pytest.mark.parametrize("d,k", [(5, 1), (9, 1), (3, 4), (5, 3)])
def test_the_expansion_of_a_row_gather_is_the_expansion_gathered(d, k):
    # B_{R[p]} = (I_d (x) P) B_R: row (iA, iB) of each slab of the expansion
    # of R[p] is row (iA, p[iB]) of that of R, bit for bit, for R random
    ring = ring_for_dimension(d)
    kd = k * d
    rng = np.random.default_rng(10 * d + k)
    r = rng.standard_normal((kd, kd)) + 1j * rng.standard_normal((kd, kd))
    p = rng.permutation(kd)
    assert not np.array_equal(p, np.arange(kd))
    for got, slab in zip(construct.expand_slabs(ring, r[p]), construct.expand_slabs(ring, r)):
        want = slab.reshape(d, kd, kd)[:, p].reshape(slab.shape)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("build,expansions", [
    (lambda: family_cd(19), 2), (lambda: family_cd(25), 2), (lambda: family_ckd(25, 9), 3),
], ids=["19-1", "25-1", "25-9"])
def test_certify_family_expands_each_canonical_matrix_once(monkeypatch, build, expansions):
    # k = 1: I, which U(1) is, and F, of which every V(a) and every dense W
    # is a row gather; (25,9): I_d and the 2 other canonical d-level factors
    fam = build()
    calls = _count_expansions(monkeypatch)
    report = certify_family(fam)
    assert report.passed
    assert len(calls) == report.stages["expansions"] == expansions
    assert calls[0] == (fam.d, True) and not any(is_eye for _, is_eye in calls[1:])
    assert report.stages["slabs_checked"] == (fam.d - 1) * expansions


def test_a_signed_zero_is_not_read_off_a_matrix_without_it(monkeypatch):
    # U(1) with one off-diagonal 0.0 turned -0.0 has the canonical form of I
    # but is not I bit for bit, so the plan expands it itself; signed zeros
    # move no magnitude, so the payload is that of the family as built
    fam = family_cd(5)
    want = certify_family(fam).to_dict()
    (label, one), *rest = fam.generators
    signed = np.array(one)
    signed[0, 1] = complex(-0.0, 0.0)
    calls = _count_expansions(monkeypatch)
    expanded = []
    slabs = construct.expand_slabs
    monkeypatch.setattr(construct, "expand_slabs",
                        lambda ring, u: expanded.append(np.array(u)) or slabs(ring, u))
    report = certify_family(MEBFamily(5, 1, fam.ring, [(label, signed), *rest], fam.metadata))
    assert calls == [(5, True), (5, True), (5, False)] and report.stages["expansions"] == 3
    assert np.array_equal(expanded[1].view(np.int64), signed.view(np.int64))
    assert report.to_dict() == want


def test_unitarity_is_checked_once_per_canonical_matrix(monkeypatch):
    calls = []
    is_unitary = linalg.is_unitary
    monkeypatch.setattr(linalg, "is_unitary", lambda a, tol: calls.append(a) or is_unitary(a, tol))
    assert certify_family(family_cd(19)).passed
    assert len(calls) == 2


def test_every_generator_of_a_non_unitary_class_keeps_its_row():
    # the twists 1.01 V(a) are row gathers of one another, so one check of
    # the first fails them all, each on its own row, in generator order,
    # with the first's deviation: each one's own is that up to the order of
    # summation
    fam = family_cd(5)
    gens = [(label, 1.01 * u if label.startswith("V") else u) for label, u in fam.generators]
    report = certify_family(MEBFamily(5, 1, fam.ring, gens, fam.metadata))
    twists = [(label, u) for label, u in gens if label.startswith("V")]
    assert [e["label"] for e in report.generator_errors] == [label for label, _ in twists]
    first = linalg.is_unitary(twists[0][1])[1]
    assert first > 1e-9
    for e, (_, u) in zip(report.generator_errors, twists):
        assert e["deviation"] == first
        assert linalg.is_unitary(u)[1] == pytest.approx(first, rel=1e-12)
    assert not report.passed and report.pair_results == []

def _first_last_w(d, k):
    fam = family_cd(d) if k == 1 else family_ckd(d, k)
    (_, u), (_, v) = fam.generators[0], fam.generators[-1]
    return fam.ring, k, u.conj().T @ v


@pytest.mark.parametrize("case", [
    lambda: _first_last_w(19, 1), lambda: _first_last_w(15, 9), lambda: _first_last_w(7, 16),
    lambda: _first_last_w(3, 64), lambda: (ring_for_dimension(5), 4, random_unitary(20, 11)),
], ids=["19-1", "15-9", "7-16", "3-64", "random-5-4"])
def test_batched_criterion_matches_the_blockwise_loop(case):
    ring, k, w = case()
    got = criterion_magnitudes(ring, w)
    want = criterion_magnitudes_blockwise(ring, k, w)
    assert np.abs(np.subtract(got, want)).max() <= 1e-15


# ---------------------------------------------------------------------------
# the criterion kernel: monomial gathers and the digit DFT

def _monomial_matrix(rng, kd, phases):
    """A kd x kd permutation, its nonzeros unit phases when `phases`."""
    m = np.zeros((kd, kd), dtype=complex)
    m[rng.permutation(kd), np.arange(kd)] = np.exp(2j * np.pi * rng.random(kd)) if phases else 1
    return m


def _kernel_cases(kd, seed):
    """(name, u, v, whether W is gathered from a monomial u) for each kind of W."""
    rng = np.random.default_rng(seed)
    q1, q2 = random_unitary(kd, seed), random_unitary(kd, seed + 1)
    perm, mono = _monomial_matrix(rng, kd, False), _monomial_matrix(rng, kd, True)
    spoiled = mono.copy()
    spoiled[(np.flatnonzero(mono[:, 0])[0] + 1) % kd, 0] = 0.5  # two nonzeros in column 0
    zero_column = mono.copy()
    zero_column[:, 0] = 0.0  # its row of W is conj(0) times any row of v
    return [("unitary", q1, q2, False), ("permutation", perm, np.eye(kd), True),
            ("permutation-v", q1, perm, False), ("monomial-u", mono, q2, True),
            ("monomial-v", q1, mono, False), ("two-nonzeros-u", spoiled, q2, False),
            ("two-nonzeros-v", q1, spoiled, False), ("zero-column-u", zero_column, q2, True)]


@pytest.mark.parametrize("d", [3, 5, 9, 15, 19, 25, 27, 45, 49, 75, 81, 125])
def test_criterion_kernel_matches_blockwise_oracle(d):
    ring = ring_for_dimension(d)
    for k in (1, 3, 4):
        for name, u, v, gathered in _kernel_cases(k * d, 7 * d + k):
            assert (verify._monomial_part(u)[2] == 0) == gathered, name
            w = verify._adjoint_product(u, v)
            w_gemm = u.conj().T @ v
            assert np.abs(w - w_gemm).max() <= 1e-15, name
            got = criterion_magnitudes(ring, w)
            want = criterion_magnitudes_blockwise(ring, k, w_gemm)
            assert np.abs(np.subtract(got, want)).max() <= 1e-13, (d, k, name)
            assert criterion_check(ring, k, u, v) == verify.deviation(
                *criterion_magnitudes(ring, _canonical_w(u, v)), 1.0 / np.sqrt(k)), (d, k, name)


# ---------------------------------------------------------------------------
# the pair-class memo of criterion_check

@pytest.fixture
def empty_memo(monkeypatch):
    """criterion_check with an empty memo; returns the function that empties it."""
    monkeypatch.setattr(verify, "_canonicals", {})
    monkeypatch.setattr(verify, "_recalled", {})
    monkeypatch.setattr(verify, "_pair_memo", {})

    def empty():
        verify._canonicals.clear()
        verify._recalled.clear()
        verify._pair_memo.clear()
    return empty


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("build", [
    lambda: family_cd(9), lambda: family_cd(19), lambda: family_ckd(3, 4),
    lambda: family_ckd(15, 9),
], ids=["9-1", "19-1", "3-4", "15-9"])
def test_a_memo_hit_returns_the_bits_of_a_cold_call(empty_memo, build):
    fam = build()
    mats = [u for _, u in fam.generators]
    pairs = list(itertools.combinations(range(len(mats)), 2))

    def check(i, j):
        return criterion_check(fam.ring, fam.k, mats[i], mats[j])
    forward = [check(i, j) for i, j in pairs]
    empty_memo()
    backward = [check(i, j) for i, j in reversed(pairs)][::-1]
    cold = []
    for i, j in pairs:
        empty_memo()
        cold.append(check(i, j))
    assert _bits(forward) == _bits(backward) == _bits(cold)
    assert max(cold) <= 1e-12


def test_the_memo_computes_the_sums_once_per_pair_class(empty_memo, monkeypatch):
    fam = family_cd(19)
    classes = certify_family(fam, pairs_only=True).stages["classes"]
    calls = []
    magnitudes = verify.criterion_magnitudes
    monkeypatch.setattr(verify, "criterion_magnitudes",
                        lambda ring, w: calls.append(1) or magnitudes(ring, w))
    for (_, u), (_, v) in itertools.combinations(fam.generators, 2):
        assert criterion_check(fam.ring, fam.k, u, v) <= 1e-12
    assert len(calls) == classes == 52


@pytest.mark.parametrize("spoil", ["permutation-one", "permutation-zero", "dense"])
@pytest.mark.parametrize("permutation_first", [True, False], ids=["gather", "gemm"])
def test_a_nan_written_in_place_after_a_passing_call_never_passes(empty_memo, spoil,
                                                                   permutation_first):
    ring = ring_for_dimension(5)
    perm, dense = permutation_unitary(ring, 2).astype(complex), v_unitary(ring, 3)
    u, v = (perm, dense) if permutation_first else (dense, perm)
    assert criterion_check(ring, 1, u, v) <= 1e-12
    m = dense if spoil == "dense" else perm
    cells = np.flatnonzero(m == 0) if spoil == "permutation-zero" else np.flatnonzero(m)
    m.flat[cells[1]] = np.nan  # in place: u and v are the arrays of the passing call
    with np.errstate(invalid="ignore"):
        dev = criterion_check(ring, 1, u, v)
    assert not dev <= 1e-8
    assert not np.isfinite(dev)


def test_each_ring_keeps_its_own_pair_classes(empty_memo):
    u, v = random_unitary(15, 1), random_unitary(15, 2)
    shapes = [(ring_for_dimension(15), 1), (ring_for_dimension(5), 3)]
    want = [verify.deviation(*criterion_magnitudes(ring, _canonical_w(u, v)), 1.0 / np.sqrt(k))
            for ring, k in shapes]
    assert want[0] != want[1]
    for _ in range(2):
        assert [criterion_check(ring, k, u, v) for ring, k in shapes] == want


def test_the_memo_holds_at_most_four_canonical_matrices(empty_memo):
    ring = ring_for_dimension(5)
    mats = [construct.frozen(random_unitary(5, seed)) for seed in range(10)]
    want = {}
    for i, j in [*itertools.combinations(range(10), 2), (0, 1), (8, 9)]:
        dev = criterion_check(ring, 1, mats[i], mats[j])
        assert want.setdefault((i, j), dev) == dev
        assert len(verify._canonicals) <= verify._CANONICAL_LIMIT == 4
        _assert_memo_is_consistent(kd=5)
    assert len(verify._canonicals) == 4 and len(verify._recalled) == 10


def test_the_memo_holds_at_most_8_kd_pair_classes(empty_memo):
    ring = ring_for_dimension(5)
    u, v = random_unitary(5, 1), random_unitary(5, 2)
    vs = [construct.frozen(v[list(p)])  # 60 live frozen arrays
          for p in list(itertools.permutations(range(5)))[:60]]
    want = [criterion_check(ring, 1, u, w) for w in vs]
    assert len(verify._canonicals) == 2 and len(verify._pair_memo) == 8 * 5
    assert len(verify._recalled) == 8 * 5 and id(vs[0]) not in verify._recalled
    assert [criterion_check(ring, 1, u, w) for w in vs] == want
    assert len(set(want)) > 8 * 5


def test_the_memo_holds_across_threads(empty_memo):
    tasks = []  # three families, 8 canonical matrices: the threads drop and add them
    for fam in (family_cd(5), family_cd(9), family_ckd(3, 4)):
        mats = [u for _, u in fam.generators]
        tasks += [(fam.ring, fam.k, mats[i], mats[j])
                  for i, j in itertools.combinations(range(len(mats)), 2)]
    want = _bits([criterion_check(*task) for task in tasks])

    def run(seed):
        got = [0.0] * len(tasks)
        for i in np.random.default_rng(seed).permutation(len(tasks)):
            got[i] = criterion_check(*tasks[i])
        return _bits(got)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(run, seed) for seed in range(8)]
            assert all(r.result(timeout=120) == want for r in runs)
    finally:
        sys.setswitchinterval(interval)
    assert len(verify._canonicals) <= 4
    _assert_memo_is_consistent(kd=12)


def _assert_memo_is_consistent(kd):
    """No class names a dropped canonical matrix; at most 8 kd arrays are
    recorded, and the record of each live one, a frozen array, holds the
    order and position that sorting it gives, and its canonical matrix if
    that is still held.  A record may name a dropped matrix."""
    assert all(key[2] in verify._canonicals and key[3] in verify._canonicals
               for key in verify._pair_memo)
    assert len(verify._recalled) <= 8 * kd
    for ref, serial, order, position in verify._recalled.values():
        u = ref()
        if u is not None:
            c, want_order, want_position = verify._canonical(u)
            assert construct.is_frozen(u)
            assert np.array_equal(order, want_order) and np.array_equal(position, want_position)
            assert verify._canonicals.get(serial, c.tobytes()) == c.tobytes()


def _count_canonical(monkeypatch):
    calls = []
    canonical = verify._canonical
    monkeypatch.setattr(verify, "_canonical", lambda u: calls.append(1) or canonical(u))
    return calls


def _cold(empty_memo, ring, k, u, v):
    empty_memo()
    return criterion_check(ring, k, np.array(u, dtype=complex), np.array(v, dtype=complex))


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
@pytest.mark.parametrize("change", ["row-swap", "phase"])
@pytest.mark.parametrize("side", ["u", "v"])
def test_an_array_changed_in_place_is_sorted_again(empty_memo, layout, change, side):
    ring = ring_for_dimension(5)
    u, v = ({"c": np.array, "fortran": np.asfortranarray,
             "strided": lambda m: np.repeat(m, 2, axis=1)[:, ::2]}[layout](random_unitary(5, seed))
            for seed in (1, 2))
    first = criterion_check(ring, 1, u, v)
    assert criterion_check(ring, 1, u, v) == first
    m = u if side == "u" else v
    if change == "row-swap":
        m[[0, 3]] = m[[3, 0]]
    else:
        m[2] *= 1j
    got = criterion_check(ring, 1, u, v)
    assert _bits([got]) == _bits([_cold(empty_memo, ring, 1, u, v)])
    assert got != first


def test_a_negative_zero_is_recalled(empty_memo, monkeypatch):
    # a frozen array holding a -0.0 is sorted once, and u + 0.0 clears the
    # -0.0, so it gives the bits of the same array holding +0.0
    ring = ring_for_dimension(5)
    plain, v = permutation_unitary(ring, 2), construct.frozen(v_unitary(ring, 3))
    signed = plain.copy()
    signed.flat[np.flatnonzero(signed == 0)[0]] = -0.0
    u = construct.frozen(signed)
    calls = _count_canonical(monkeypatch)
    got = [criterion_check(ring, 1, u, v) for _ in range(3)]
    assert len(calls) == 2
    assert _bits(got) == 3 * _bits([_cold(empty_memo, ring, 1, u, v)]) \
        == 3 * _bits([_cold(empty_memo, ring, 1, plain, v)])


def test_an_array_holding_a_nan_is_sorted_on_every_call(empty_memo, monkeypatch):
    # a writeable array is sorted on every call, a frozen one once
    ring = ring_for_dimension(5)
    u, v = random_unitary(5, 1), construct.frozen(random_unitary(5, 2))
    u[1, 2] = np.nan
    calls = _count_canonical(monkeypatch)
    with np.errstate(invalid="ignore"):
        got = [criterion_check(ring, 1, u, v) for _ in range(3)]
    assert np.isnan(got).all()
    assert len(calls) == 3 + 1  # u on every call, v once


def test_a_frozen_array_holding_a_nan_is_sorted_once(empty_memo, monkeypatch):
    ring = ring_for_dimension(5)
    spoiled = random_unitary(5, 1)
    spoiled[1, 2] = np.nan
    u, v = construct.frozen(spoiled), construct.frozen(random_unitary(5, 2))
    calls = _count_canonical(monkeypatch)
    with np.errstate(invalid="ignore"):
        got = [criterion_check(ring, 1, u, v) for _ in range(3)]
        cold = _cold(empty_memo, ring, 1, u, v)
    assert np.isnan([*got, cold]).all()
    assert len(calls) == 2 + 2  # u and v once, then the cold call's copies


def test_a_writeable_array_is_sorted_on_every_call(empty_memo, monkeypatch):
    ring = ring_for_dimension(5)
    u, v = random_unitary(5, 1), random_unitary(5, 2)
    calls = _count_canonical(monkeypatch)
    got = [criterion_check(ring, 1, u, v) for _ in range(3)]
    assert len(calls) == 2 * 3 and not verify._recalled
    assert _bits(got) == 3 * _bits([_cold(empty_memo, ring, 1, u, v)])


@pytest.mark.parametrize("convert", [lambda m: m, lambda m: m.tolist()], ids=["real", "list"])
def test_converted_inputs_give_the_bits_of_a_cold_call(empty_memo, convert):
    # each call converts to a new complex array, which may take the id of
    # the previous call's
    ring = ring_for_dimension(5)
    v = random_unitary(5, 0)
    mats = [np.random.default_rng(seed).standard_normal((5, 5)) for seed in range(8)]
    got = [criterion_check(ring, 1, convert(m), v) for m in mats]
    cold = [_cold(empty_memo, ring, 1, m, v) for m in mats]
    assert _bits(got) == _bits(cold)
    assert len(set(cold)) == len(cold)


def test_a_freed_array_whose_id_is_reused_is_sorted_again(empty_memo):
    ring = ring_for_dimension(5)
    u, v = random_unitary(5, 1), random_unitary(5, 0)
    first = criterion_check(ring, 1, u, v)
    freed = id(u)
    del u
    pool = [np.empty((5, 5), dtype=complex) for _ in range(64)]
    reused = [m for m in pool if id(m) == freed]
    assert reused, "no new array took the freed id"
    reused[0][...] = random_unitary(5, 2)
    got = criterion_check(ring, 1, reused[0], v)
    assert _bits([got]) == _bits([_cold(empty_memo, ring, 1, reused[0], v)])
    assert got != first


def test_a_freed_frozen_array_whose_id_is_reused_is_sorted_again(empty_memo, monkeypatch):
    ring = ring_for_dimension(5)
    u, v = construct.frozen(random_unitary(5, 1)), construct.frozen(random_unitary(5, 0))
    first = criterion_check(ring, 1, u, v)
    freed, other = id(u), random_unitary(5, 2).tobytes()
    del u
    # np.ndarray over bytes is a frozen array made as one object, so the
    # freed id is free for it; construct.frozen makes two
    pool = [np.ndarray((5, 5), complex, other) for _ in range(64)]
    reused = [m for m in pool if id(m) == freed]
    assert reused and construct.is_frozen(reused[0]), "no new frozen array took the freed id"
    calls = _count_canonical(monkeypatch)
    got = criterion_check(ring, 1, reused[0], v)
    assert len(calls) == 1  # the record's weak reference is dead
    assert _bits([got]) == _bits([_cold(empty_memo, ring, 1, reused[0], v)])
    assert got != first


def test_each_generator_is_sorted_once(empty_memo, monkeypatch):
    fam = family_cd(19)
    mats = [u for _, u in fam.generators]
    calls = _count_canonical(monkeypatch)
    pairs = list(itertools.combinations(range(len(mats)), 2))
    want = [criterion_check(fam.ring, fam.k, mats[i], mats[j]) for i, j in pairs]
    assert len(pairs) == 630 and len(calls) == len(mats) == 36
    with pytest.raises(ValueError):
        mats[5][0, 0] = 0.5  # a generator is read-only, so its record holds
    assert [criterion_check(fam.ring, fam.k, mats[i], mats[j]) for i, j in pairs] == want
    assert len(calls) == 36


def test_a_generator_is_sorted_once_past_the_four_matrix_limit(empty_memo, monkeypatch):
    # 10 basis classes, 4 canonical matrices held: a dropped one is held
    # again by the gather (u + 0.0)[order], without a sort
    fam = family_ckd(25, 9)
    mats = [u for _, u in fam.generators]
    pairs = list(itertools.combinations(range(len(mats)), 2))
    calls = _count_canonical(monkeypatch)
    got = [criterion_check(fam.ring, fam.k, mats[i], mats[j]) for i, j in pairs]
    assert len(pairs) == 45 and len(calls) == len(mats) == 10
    assert _bits(got) == _bits([_cold(empty_memo, fam.ring, fam.k, mats[i], mats[j])
                                for i, j in pairs])
    assert max(got) <= 1e-12


def test_the_memo_holds_no_copy_of_a_generator(empty_memo):
    # what a full pair loop leaves held: the canonical matrices, 16 (kd)^2
    # bytes each, and O(kd) bytes per recalled array and per pair class
    fam = family_cd(19)
    kd = fam.k * fam.ring.d
    mats = [u for _, u in fam.generators]
    criterion_check(fam.ring, fam.k, mats[0], mats[1])  # the ring's cached tables
    empty_memo()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for u, v in itertools.combinations(mats, 2):
            criterion_check(fam.ring, fam.k, u, v)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(verify._canonicals) <= verify._CANONICAL_LIMIT
    assert all(len(c) == 16 * kd * kd for c in verify._canonicals.values())
    assert all(order.nbytes + position.nbytes == 16 * kd
               for _, _, order, position in verify._recalled.values())
    assert len(verify._recalled) == 36 and len(verify._pair_memo) == 52
    per_entry = 16 * kd + 512  # two index arrays and a weak reference, or one key of 8 kd bytes
    bound = verify._CANONICAL_LIMIT * 16 * kd * kd + (36 + 52) * per_entry
    assert held <= bound < 36 * 16 * kd * kd / 2, (held, bound)


@pytest.mark.parametrize("d", [*range(3, 126, 2), 343])
def test_char_table_is_the_digit_dft_up_to_a_column_permutation(d):
    ring = ring_for_dimension(d)
    k_a, k_b = verify._digit_dft(ring)
    assert k_a.shape[0] * k_b.shape[0] == d
    # the columns of K = K_a (x) K_b are orthogonal with norm d, so K^dag T / d
    # is a 0/1 permutation matrix exactly when T = K Pi
    perm = np.kron(k_a, k_b).conj().T @ fields.char_table(ring) / d
    assert np.abs(perm - np.round(perm.real)).max() < 1e-10
    assert (np.round(perm.real).sum(axis=0) == 1).all() and (np.round(perm.real).sum(axis=1) == 1).all()


def test_digit_cut_balances_the_two_factors():
    cuts = {d: tuple(k.shape[0] for k in verify._digit_dft(ring_for_dimension(d)))
            for d in (19, 45, 75, 81, 125, 343)}
    assert cuts == {19: (1, 19), 45: (5, 9), 75: (15, 5), 81: (9, 9), 125: (5, 25),
                    343: (7, 49)}


@pytest.mark.parametrize("spoil", [
    lambda t: t * np.where(np.arange(t.size).reshape(t.shape) == 7, -1, 1),
    lambda t: t[[1, 0, *range(2, t.shape[0])]],
    lambda t: t[:, [0, 1, 1, *range(3, t.shape[1])]],
], ids=["one-entry", "swapped-rows", "repeated-column"])
def test_corrupted_char_table_fails_the_per_ring_check(monkeypatch, spoil):
    ring = ring_for_dimension(45)
    table = fields.char_table(ring)
    monkeypatch.setattr(fields, "char_table", lambda r: spoil(table))
    with pytest.raises(RuntimeError, match="digit DFT"):
        verify._digit_dft.__wrapped__(ring)


def _singular_monomial(kd):
    m = np.zeros((kd, kd), dtype=complex)
    m[0] = 1.0  # every nonzero in row 0
    return m


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf-imag"])
@pytest.mark.parametrize("case", ["u-selects-row", "u-skips-row", "v-skips-row", "u-entry",
                                  "gemm"])
def test_non_finite_entries_never_pass_the_criterion(case, bad):
    # a singular monomial u never reads rows 1.. of v, and a gather from a
    # singular monomial v would never read rows 1.. of u; the entry must
    # still show
    d, k = 5, 1
    ring = ring_for_dimension(d)
    good = fourier_unitary(ring)
    u, v = {"u-selects-row": (permutation_unitary(ring, 1), good.copy()),
            "u-skips-row": (_singular_monomial(d), good.copy()),
            "v-skips-row": (good.copy(), _singular_monomial(d)),
            "u-entry": (permutation_unitary(ring, 1).astype(complex), good.copy()),
            "gemm": (good.copy(), fourier_unitary(ring).conj())}[case]
    if case == "v-skips-row":
        u[3, 2] = bad
    elif case == "u-entry":
        u[np.flatnonzero(u[:, 2])[0], 2] = bad
    elif case == "gemm":
        u[3, 2] = bad
    else:
        v[3, 2] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        dev = criterion_check(ring, k, u, v)
    assert not dev <= 1e-8
    assert not np.isfinite(dev)


@pytest.mark.parametrize("build", [
    *[lambda d=d: family_cd(d) for d in (3, 5, 7, 9, 15, 21, 25)],
    lambda: family_ckd(3, 4), lambda: family_ckd(9, 4), lambda: family_ckd(3, 6),
    lambda: family_ckd_mols(7, 9), lambda: rotated_family(family_ckd(3, 4)),
    lambda: rotated_family(family_ckd(9, 4)), lambda: rotated_family(family_ckd_mols(7, 9)),
], ids=["3-1", "5-1", "7-1", "9-1", "15-1", "21-1", "25-1", "3-4", "9-4", "3-6",
        "7-9-mols", "rot-3-4", "rot-9-4", "rot-7-9-mols"])
def test_certified_criterion_figures_match_the_blockwise_oracle(build):
    # every pair row against the oracle on its own dense U^dag V; a factored
    # row may differ by its residual shift, once in the figure and once added
    fam = build()
    report = certify_family(fam)
    assert report.passed
    target = 1.0 / np.sqrt(fam.k)
    mats = [u for _, u in fam.generators]
    for row, (i, j) in zip(report.pair_results, itertools.combinations(range(fam.n_bases), 2)):
        lo, hi = criterion_magnitudes_blockwise(fam.ring, fam.k, mats[i].conj().T @ mats[j])
        bound = 1e-13 + (2 * _residual_bound(fam) if row["route"] == "factored" else 0.0)
        assert abs(row["criterion_deviation"] - verify.deviation(lo, hi, target)) <= bound


# ---------------------------------------------------------------------------
# the sparse overlap product of a monomial W

# |sparse - streamed| on an exactly monomial W: both round, per overlap, one
# product of three entries of magnitude at most 1, in another order
_SPARSE_ROUNDING = 1e-15


def _pair_w(fam, i, j):
    """The d x d W of the pair (i, j) of fam: U^dag V for k = 1, and the
    d-level Y = C_s^dag C_t of the factors for k >= 2."""
    u, v = fam.generators[i][1], fam.generators[j][1]
    if fam.k > 1:
        (_, u, _), (_, v, _) = (verify._kron_factors(m, fam.d) for m in (u, v))
    return verify._adjoint_product(u, v)


def _class_ws(fam):
    """The d x d W of the first pair of every kd-level pair class of fam."""
    return [_pair_w(fam, i, j) for i, j in _pair_classes([u for _, u in fam.generators])[1]]


@pytest.mark.parametrize("build,exact,near", [
    *[(lambda d=d: family_cd(d), q - 2, q - 2)
      for d, q in ((3, 3), (5, 5), (7, 7), (9, 9), (15, 3), (19, 19), (21, 3), (25, 25))],
    (lambda: family_ckd(15, 9), 1, 1), (lambda: family_ckd(9, 4), 10, 0),
], ids=["3-1", "5-1", "7-1", "9-1", "15-1", "19-1", "21-1", "25-1", "15-9", "9-4"])
def test_sparse_route_matches_the_streamed_route_on_every_pair_class(build, exact, near):
    # k = 1: the U-U classes are exactly monomial and the V-V classes
    # monomial up to GEMM rounding, q_1 - 2 of each; the d-level Y of the
    # tensor families are the k = 1 W of their C_t
    fam = build()
    kd = fam.k * fam.d
    b_id = linalg.ColumnBlocks(expand_basis(fam.ring, np.eye(fam.d)))
    counts = [0, 0]
    for w in _class_ws(fam):
        rows, values, rho = verify._monomial_part(w)
        if not kd * rho <= verify._FACTOR_LIMIT:
            continue
        got = verify.sparse_unbiased(b_id, rows, values)
        want = bruteforce_unbiased(b_id, expand_basis(fam.ring, w))
        assert np.abs(np.subtract(got, want)).max() <= _SPARSE_ROUNDING + kd * rho
        counts[rho > 0] += 1
    assert counts == [exact, near]


@pytest.mark.parametrize("d", [9, 19])
def test_single_row_blocks_give_the_extremes_of_all_their_products(d):
    # every block of a U-U or V-V class is reached by one row, and its
    # extremes, taken from the extreme squared magnitudes of the two rows,
    # equal bit for bit those of all N d^2 products |w|^2 |x_a|^2 |y_b|^2
    fam = family_cd(d)
    b_id = linalg.ColumnBlocks(expand_basis(fam.ring, np.eye(d)))
    group = b_id.row_groups()[0]
    cols = b_id.cols
    n = d * d
    a = expand_basis(fam.ring, np.eye(d))
    entries = a[np.arange(n)[:, None], cols[group]]  # each row on its group's columns
    squares = entries.real ** 2 + entries.imag ** 2
    checked = 0
    for w in _class_ws(fam):
        rows, values, rho = verify._monomial_part(w)
        if not d * rho <= verify._FACTOR_LIMIT:
            continue
        col = np.arange(n) % d
        dst = np.arange(n) - col + rows[col]
        w_sq = values.real ** 2 + values.imag ** 2
        products = (squares[dst] * w_sq[col, None])[:, :, None] * squares[:, None, :]
        assert verify.sparse_unbiased(b_id, rows, values) == \
            (float(np.sqrt(products.min())), float(np.sqrt(products.max())))
        checked += 1
    assert checked == 2 * (d - 2)


@pytest.mark.parametrize("d,a,b", [(5, 1, 1), (15, 6, 6), (45, 10, 10), (15, 6, 7), (45, 10, 11)],
                         ids=["self-5", "self-15", "self-45", "zero-divisor-15",
                              "zero-divisor-45"])
def test_rows_that_meet_in_one_block_take_the_streamed_route(d, a, b):
    # W = I sends every row of B_I to its own group, so the d rows of a group
    # meet in its diagonal block; for units a, b with a - b a zero divisor,
    # several rows of U(a)^dag U(b) meet in one block.  Either way the N rows
    # leave some of the N blocks unreached, so the pair streams and fails
    # with lo = 0.  Its maximum is that of the slab-0 columns of B_W against
    # B_I held as certify_family holds it, bit for bit, and that of all its
    # columns up to the order of summation
    ring = ring_for_dimension(d)
    u, v = permutation_unitary(ring, a), permutation_unitary(ring, b)
    w = u.conj().T @ v
    rows, values, rho = verify._monomial_part(w)
    assert rho == 0
    b_id = linalg.ColumnBlocks(expand_basis(ring, np.eye(d)))
    group = b_id.row_groups()[0]
    key = group[np.arange(d * d) - np.arange(d * d) % d + np.tile(rows, d)] * d + group
    assert np.bincount(key).max() > 1
    assert verify.sparse_unbiased(b_id, rows, values) is None
    want = bruteforce_unbiased(b_id, expand_basis(ring, w))
    assert want[0] == 0.0
    slab = bruteforce_unbiased(_identity_blocks(ring, d), _slab_zero_of(ring, w))
    assert abs(slab[1] - want[1]) <= _slab_rounding(d)
    report = certify_family(MEBFamily(d, 1, ring, [("U(a)", u), ("U(b)", v)]))
    (row,) = report.pair_results
    assert (row["route"], row["overlap_min"], row["pass"]) == ("streamed", 0.0, False)
    assert row["overlap_max"] == slab[1]
    assert report.stages["sparse_pair_classes"] == 0


def test_blocks_that_no_row_reaches_are_exact_zeros():
    # at k = 2 the N = 18 rows of B_I reach at most 18 of its (kd)^2 = 36
    # block pairs, so a monomial W that does not factor, here one whose rows
    # reach 18 blocks once each, leaves exact-zero overlaps, and only they
    # bring the minimum to 0
    d, k = 3, 2
    ring = ring_for_dimension(d)
    p = np.zeros((6, 6), dtype=complex)
    p[[0, 2, 1, 4, 3, 5], np.arange(6)] = np.exp(1j * np.arange(6))
    assert verify._kron_factors(p, d) is None
    fam = MEBFamily(d, k, ring, [("I", np.eye(6)), ("P", p)])
    (row,) = certify_family(fam).pair_results
    (want,) = certify_exhaustive(fam).pair_results
    assert (row["route"], row["overlap_min"], row["pass"]) == ("sparse", 0.0, False)
    assert want["overlap_min"] == 0.0
    assert abs(row["overlap_max"] - want["overlap_max"]) <= _SPARSE_ROUNDING
    mags = np.abs(expand_basis(ring, np.eye(6)).conj().T @ expand_basis(ring, p))
    assert (mags == 0).any() and mags[mags > 0].min() > 0.3  # 1/d where nonzero


@pytest.mark.parametrize("scale,route", [(0.5, "sparse"), (1.0, "sparse"), (2.0, "streamed")])
def test_an_entry_off_the_pattern_above_the_limit_takes_the_streamed_route(scale, route):
    # W = I^dag U = U: a permutation with one entry off its pattern at
    # scale * 2^-40 / kd
    d = 7
    ring = ring_for_dimension(d)
    u = permutation_unitary(ring, 3)
    u[np.flatnonzero(u[:, 2] == 0)[0], 2] = scale * verify._FACTOR_LIMIT / d
    fam = MEBFamily(d, 1, ring, [("I", np.eye(d)), ("spoiled", u)])
    report = certify_family(fam)
    (row,) = report.pair_results
    assert row["route"] == route
    assert report.stages["sparse_pair_classes"] == (route == "sparse")
    e = 0.0
    if route == "sparse":
        assert row["monomial_residual"] == scale * verify._FACTOR_LIMIT / d
        e = d * row["monomial_residual"]
    else:
        assert "monomial_residual" not in row
    (want,) = certify_exhaustive(fam).pair_results
    for key in ("overlap_min", "overlap_max"):
        assert abs(row[key] - want[key]) <= _SPARSE_ROUNDING + e
    assert abs(row["overlap_deviation"] - e - want["overlap_deviation"]) <= _SPARSE_ROUNDING + e
    assert row["pass"] == want["pass"] and report.passed


@pytest.mark.parametrize("where", ["on-pattern", "off-pattern"])
def test_a_w_holding_nan_never_passes(monkeypatch, where):
    # the largest |entry| of a column turned NaN stays on the pattern, so a
    # monomial W takes the sparse product with it; a NaN beside it makes rho
    # NaN, which is no monomial W.  Either way no overlap figure passes
    adjoint = verify._adjoint_product

    def spoiled(u, v):
        w = adjoint(u, v)
        at = int(np.abs(w[:, 1]).argmax())
        w[at if where == "on-pattern" else (at + 1) % len(w), 1] = np.nan
        return w

    monkeypatch.setattr(verify, "_adjoint_product", spoiled)
    with np.errstate(invalid="ignore"):
        report = certify_family(family_cd(5))
    routes = {p["route"] for p in report.pair_results}
    assert routes == ({"sparse", "streamed"} if where == "on-pattern" else {"streamed"})
    assert not report.passed
    assert not any(p["pass"] or p["criterion_pass"] for p in report.pair_results)


def test_brute_force_extremes_keep_a_nan():
    # columns 0 and 1 of basis_a lie on one row each and columns 2 and 3 on
    # rows 2 and 3, groups of two shapes, so basis_a is one dense group; the
    # NaN sits in row 3 of basis_b, and the extremes must not pass it over
    a = np.eye(4, dtype=complex)
    a[2:, 2:] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    b = np.eye(4, dtype=complex)
    b[3, 0] = np.nan
    blocks = linalg.ColumnBlocks(a)
    assert blocks.block.shape == (4, 4) and blocks.rows.shape == (1, 4)
    assert np.isnan(blocks.adjoint_product(b)[1]).sum() == 4  # 0 * NaN is NaN: column 0 of every row
    lo, hi = bruteforce_unbiased(blocks, b)
    assert np.isnan(lo) and np.isnan(hi)
    lo, hi = bruteforce_unbiased(a, b)
    assert np.isnan(lo) and np.isnan(hi)


# ---------------------------------------------------------------------------
# the orbit route: dense classes conjugate by a unit multiplication

def _conjugated_tensor_family(d, k):
    """family_ckd(d, k) and, for a unit m, its generators B_t (x) C_t P_m^T,
    P_m = U(m): their d-level Y are P_m Y P_m^T, bit for bit, so their dense
    classes are in the orbits of the first four's."""
    fam, base = family_ckd(d, k), family_cd(d)
    q = fields.mul_index_vector(fam.ring, int(fam.ring.units()[1]))
    gens = [(f"{label}'", np.kron(construct.b_tensor(k, t), u[:, q]))
            for t, (label, u) in enumerate(base.generators[:fam.n_bases])]
    return MEBFamily(d, k, fam.ring, fam.generators + gens, fam.metadata)


@pytest.mark.parametrize("build,merged", [
    (lambda: family_cd(9), 6), (lambda: family_cd(15), 1), (lambda: family_cd(19), 16),
    (lambda: family_cd(25), 22), (lambda: family_cd(45), 7),
    (lambda: family_ckd(15, 9), 0), (lambda: _conjugated_tensor_family(15, 9), 4),
], ids=["9-1", "15-1", "19-1", "25-1", "45-1", "15-9", "15-9-conjugated"])
def test_orbit_route_matches_brute_force_on_every_dense_class(build, merged):
    # every class that streams or takes an orbit's figures holds the brute
    # force extremes of its own W, or for k >= 2 of its own d-level Y times
    # the extremes of |A_s^dag A_t|, within summation order
    fam = build()
    report = certify_family(fam, pairs_only=True)
    firsts = {}  # class -> its first pair and row
    for (i, j), row in zip(itertools.combinations(range(fam.n_bases), 2), report.pair_results):
        firsts.setdefault(row["class"], (i, j, row))
    rows = {c: row for c, (_, _, row) in firsts.items()}
    b_id = linalg.ColumnBlocks(expand_basis(fam.ring, np.eye(fam.d)))
    mats = [u for _, u in fam.generators]
    orbit = 0
    for c, (i, j, row) in sorted(firsts.items()):
        if "monomial_residual" in row:
            continue
        lo, hi = bruteforce_unbiased(b_id, expand_basis(fam.ring, _pair_w(fam, i, j)))
        if fam.k > 1:
            (a_s, _, _), (a_t, _, _) = (verify._kron_factors(mats[m], fam.d) for m in (i, j))
            x = np.abs(a_s.conj().T @ a_t)
            lo, hi = x.min() * lo, x.max() * hi
        assert abs(row["overlap_min"] - lo) <= 1e-15 and abs(row["overlap_max"] - hi) <= 1e-15
        if "orbit_of" in row:
            rep = rows[row["orbit_of"]]  # an earlier class whose own W or Y streamed
            assert row["route"] == ("orbit" if fam.k == 1 else "factored")
            assert rep["route"] == ("streamed" if fam.k == 1 else "factored")
            assert "orbit_of" not in rep and "monomial_residual" not in rep
            assert row["orbit_of"] < c
            orbit += 1
    assert orbit == report.stages["orbit_pair_classes"] == merged


@pytest.mark.parametrize("d", [9, 15, 19, 25, 45])
def test_unit_multiplications_permute_the_columns_of_the_identity_basis(d):
    # (P_m (x) P_m) B_I = B_I Pi_m for every unit m.  A transposition of two
    # nonzero indices, applied to both factors, splits the row supports of
    # the column groups, and so does swapping the rows (1, 0) and (1, 2),
    # which keeps each row's place within its group's support; a translation
    # by one keeps the supports but multiplies column (xi, eta) by
    # lambda(xi).  None of them is a column permutation
    ring = ring_for_dimension(d)
    b_id = linalg.ColumnBlocks(expand_basis(ring, np.eye(d)))

    def both(q):
        return (q[:, None] * d + q).ravel()

    for m in ring.units():
        assert verify._permutes_columns(b_id, both(fields.mul_index_vector(ring, m)))
    swap = np.arange(d)
    swap[[1, 2]] = swap[[2, 1]]
    assert not verify._permutes_columns(b_id, both(swap))
    rows = np.arange(d * d)
    rows[[d, d + 2]] = rows[[d + 2, d]]
    assert not verify._permutes_columns(b_id, rows)
    assert not verify._permutes_columns(b_id, both(fields.add_index_table(ring)[ring.one]))


@pytest.mark.parametrize("d", [9, 15, 25])
def test_a_unit_that_moves_a_spoiled_entry_does_not_permute_the_columns(d):
    # spoiling the entry of column (xi, eta) = (1, 0) at row (1, 1) keeps
    # every row support of B_I but makes it one dense group.  A unit that
    # keeps every support of B_I and moves row (1, 1) leaves the spoiled
    # value at a row where no column of B_I holds it
    ring = ring_for_dimension(d)
    b_id = expand_basis(ring, np.eye(d))
    spoiled = b_id.copy()
    spoiled[d + 1, d] *= 1 + 2 ** -40
    b_id, spoiled = linalg.ColumnBlocks(b_id), linalg.ColumnBlocks(spoiled)
    assert spoiled.block.shape == (d * d, d * d)
    refused = 0
    for m in ring.units():
        q = fields.mul_index_vector(ring, m)
        sigma = (q[:, None] * d + q).ravel()
        assert verify._permutes_columns(b_id, sigma)
        if sigma[d + 1] != d + 1:
            assert not verify._permutes_columns(spoiled, sigma)
            refused += 1
    assert refused


def test_a_w_that_is_no_unit_conjugate_does_not_merge():
    # W' = P^T F P for a transposition P of two nonzero indices, and P F,
    # which keeps the row of F at the ring's one, share no orbit with the
    # Fourier kernel F, so (I, F') and (I, P F) stream beside (I, F)
    d = 7
    ring = ring_for_dimension(d)
    swap = np.arange(d)
    swap[[2, 3]] = swap[[3, 2]]
    f = fourier_unitary(ring)
    fam = MEBFamily(d, 1, ring, [("I", np.eye(d)), ("F", f), ("F'", f[swap][:, swap]),
                                 ("PF", f[swap])])
    report = certify_family(fam, pairs_only=True)
    assert [(p["a"], p["b"], p["route"], p["class"]) for p in report.pair_results][:3] == \
        [("I", "F", "streamed", 0), ("I", "F'", "streamed", 1), ("I", "PF", "streamed", 2)]
    assert report.stages["orbit_pair_classes"] == 0
    _assert_same_verdicts(report, certify_exhaustive(fam, pairs_only=True))


def test_a_failed_identity_check_raises_instead_of_merging(monkeypatch):
    monkeypatch.setattr(verify, "_permutes_columns", lambda basis_a, sigma: False)
    with pytest.raises(RuntimeError, match="not a column permutation"):
        certify_family(family_cd(19))
    # a family with no two conjugate dense classes never asks
    assert certify_family(family_cd(3)).passed


@pytest.mark.parametrize("build,ids", [
    (lambda: family_cd(19), 2), (lambda: family_ckd(9, 4), 5),
    (lambda: rotated_family(family_ckd(3, 4)), 4),
], ids=["19-1", "9-4", "rotated-3-4"])
def test_pair_classes_never_merge_on_a_digest_collision(monkeypatch, build, ids):
    # with every digest equal, each id still needs a bit-for-bit match
    mats = [u for _, u in build().generators]
    want = _pair_classes(mats)
    monkeypatch.setattr(verify, "_digest", lambda rows: b"")
    got = _pair_classes(mats)
    assert got == want and len(set(got[2])) == ids


# ---------------------------------------------------------------------------
# the slab route: every figure of a basis from its slab 0

def _slab_rounding(d):
    """|slab 0 - all slabs| of a figure: an entry of B_I^dag X sums d terms,
    whose magnitudes sum to at most 1 for unit columns, and the slab eta
    entries sum them in another order, which moves each by at most
    2 d eps, eps = 2^-52."""
    return 2 * d * np.finfo(float).eps


def _slab_cases(fam):
    """(k, the matrices whose bases certify_family checks, the W whose
    overlaps it brute-forces): the first generator of each basis class and
    the dense W = U^dag V of each pair class, or for a family whose
    generators all factor, the d-level C and Y of the same, at k = 1."""
    mats = [u for _, u in fam.generators]
    _, first, ids = _pair_classes(mats)
    reps = sorted(set(ids.index(c) for c in ids))
    factors = [verify._kron_factors(u, fam.d) for u in mats] if fam.k > 1 else [None]
    k = fam.k
    if None not in factors:
        mats, k = [f[1] for f in factors], 1
    ws = [verify._adjoint_product(mats[i], mats[j]) for i, j in first]
    dense = [w for w in ws if not k * fam.d * verify._monomial_part(w)[2] <= verify._FACTOR_LIMIT]
    return k, [mats[i] for i in reps], dense


def _slab_zero_of(ring, u):
    """verify._slab_zero over the expansion of u: slab 0, N x kd."""
    return verify._slab_zero(ring, u, {"slabs_checked": 0})


def _basis_figures(b_id, u, slab):
    """verify._basis_deviations of B_U itself, the trivial factor A = [1]."""
    return verify._basis_deviations(b_id, u, slab, np.ones((1, 1)), np.ones(1))


def _identity_blocks(ring, size):
    """The column blocks of the identity basis of C^d (x) C^size as
    certify_family builds them: slab 0 and the row moves to the others."""
    return linalg.ColumnBlocks(_slab_zero_of(ring, np.eye(size)), slab_moves(ring, size))


@pytest.mark.parametrize("build,n_dense", [
    *[(lambda d=d: family_cd(d), n) for d, n in ((3, 2), (5, 4), (9, 8), (15, 3), (19, 18),
                                                  (25, 24), (45, 11))],
    (lambda: family_ckd(9, 4), 0), (lambda: family_ckd(15, 9), 4),
    (lambda: rotated_family(family_ckd(3, 4)), 6), (lambda: rotated_family(family_ckd(9, 4)), 10),
    (lambda: rotated_family(family_ckd_mols(7, 9)), 6),
], ids=["3-1", "5-1", "9-1", "15-1", "19-1", "25-1", "45-1", "9-4", "15-9", "rot-3-4", "rot-9-4",
        "rot-7-9-mols"])
def test_slab_zero_figures_match_the_full_stream(build, n_dense):
    # the per-basis figures and the brute-force extremes that certify_family
    # takes from slab 0 are those of all N columns within _slab_rounding
    fam = build()
    ring = fam.ring
    k, bases, dense = _slab_cases(fam)
    assert len(dense) == n_dense
    bound = _slab_rounding(fam.d)
    b_id = _identity_blocks(ring, k * fam.d)
    full = basis_figures_per_basis(MEBFamily(fam.d, k, ring, [(str(i), u)
                                                              for i, u in enumerate(bases)]))
    for u, (_, ortho, ent) in zip(bases, full):
        got = _basis_figures(b_id, u, _slab_zero_of(ring, u))
        assert np.abs(np.subtract(got, (ortho, ent))).max() <= bound
    for w in dense:
        got = bruteforce_unbiased(b_id, _slab_zero_of(ring, w))
        want = bruteforce_unbiased(b_id, expand_basis(ring, w))
        assert np.abs(np.subtract(got, want)).max() <= bound


@pytest.mark.parametrize("build", [lambda: family_cd(25), lambda: family_ckd(9, 4)],
                         ids=["25-1", "9-4"])
def test_identity_blocks_are_read_off_kd_columns(monkeypatch, build):
    # B_I (or B_{I_d} for a factored family) is built once, from slab 0,
    # so no matrix that ColumnBlocks reads has more than kd columns
    shapes = []

    class Recording(linalg.ColumnBlocks):
        def __init__(self, a, moves=None):
            shapes.append(a.shape)
            super().__init__(a, moves)

    monkeypatch.setattr(linalg, "ColumnBlocks", Recording)
    fam = build()
    assert certify_family(fam).passed
    kd = fam.k * fam.d
    assert len(shapes) == 1 and shapes[0][1] <= kd
    assert shapes[0][0] == shapes[0][1] * fam.d


@pytest.mark.parametrize("build", [lambda: family_cd(19), lambda: family_ckd(3, 4),
                                   lambda: family_ckd(15, 9)], ids=["19-1", "3-4", "15-9"])
def test_certify_family_builds_column_blocks_of_one_square_shape(monkeypatch, build):
    # B_I, and B_{I_d} of a factored family, is N/d groups of d x d
    built = []

    class Recording(linalg.ColumnBlocks):
        def __init__(self, a, moves=None):
            super().__init__(a, moves)
            built.append(self)

    monkeypatch.setattr(linalg, "ColumnBlocks", Recording)
    fam = build()
    assert certify_family(fam).passed
    assert built
    for blocks in built:
        n = blocks.shape[0]
        assert blocks.shape == (n, n) and blocks.block.shape == (fam.d, fam.d)
        assert blocks.rows.shape == (n // fam.d, fam.d)


def test_net_bases_have_column_blocks_of_one_square_shape():
    # each basis of a MacNeish net of order 6 is 6 groups of 6 x 6, one per line
    for basis in mols.mubs_from_net(mols.net_from_mols(mols.best_mols(6))):
        blocks = linalg.ColumnBlocks(basis)
        assert blocks.block.shape == (6, 6) and blocks.rows.shape == (6, 6)


@pytest.mark.parametrize("d,k", [(5, 1), (3, 4), (9, 1), (7, 3)])
def test_slab_zero_is_slab_zero_of_the_expansion(d, k):
    # the array returned is the columns (xi, 0, j) of the expansion, bit for
    # bit, and each of the d - 1 other slabs is checked once
    ring = ring_for_dimension(d)
    u = random_unitary(k * d, d + k)
    full = expand_basis(ring, u)
    stages = {"slabs_checked": 0}
    slab = verify._slab_zero(ring, u, stages)
    cols = [(xi * d * k + j) for xi in range(d) for j in range(k)]
    assert np.array_equal(slab.view(np.int64), np.ascontiguousarray(full[:, cols]).view(np.int64))
    assert stages["slabs_checked"] == d - 1


def _spoil_one_entry(d, value):
    """A spoil that sets the last row, (d - 1, kd - 1), of the column
    (1, 1, 0), in slab 1, to value, leaving slab 0 and the other slabs as
    they are."""
    def spoil(eta, slab):
        if eta == 1:
            slab[-1, _translate(d, slab, 1, 0)] = value
    return spoil


@pytest.mark.parametrize("build,value", [
    (lambda: family_cd(5), 0.5), (lambda: family_cd(19), np.nan),
    (lambda: family_ckd(3, 4), 0.5), (lambda: rotated_family(family_ckd(3, 4)), 0.5),
], ids=["5-1", "19-1-nan", "3-4", "rot-3-4"])
@pytest.mark.parametrize("pairs_only", [False, True], ids=["all", "pairs-only"])
def test_a_spoiled_slab_raises(monkeypatch, build, value, pairs_only):
    # one entry of one slab eta != 0 of every expansion but B_I's; the basis
    # stage, or with pairs_only the first brute-forced pair class, meets it
    fam = build()
    _spoil_expansions(monkeypatch, _spoil_one_entry(fam.d, value))
    with pytest.raises(RuntimeError, match="is not slab 0 with its rows moved by 1"):
        certify_family(fam, pairs_only=pairs_only)


@pytest.mark.parametrize("d,k", [(5, 1), (3, 4), (19, 1)])
def test_a_spoiled_identity_basis_raises(monkeypatch, d, k):
    # B_I is read into its column blocks after the same check, whatever the
    # first stage that reads it
    fam = family_cd(d) if k == 1 else family_ckd(d, k)
    size = d if k == 1 or verify._kron_factors(fam.generators[1][1], d) else k * d
    _spoil_expansions(monkeypatch, _spoil_one_entry(d, 0.5), target=np.eye(size))
    for pairs_only in (False, True):
        with pytest.raises(RuntimeError, match="is not slab 0"):
            certify_family(fam, pairs_only=pairs_only)


@pytest.mark.parametrize("build", [lambda: family_cd(9), lambda: family_ckd(3, 4)],
                         ids=["9-1", "3-4"])
def test_every_row_block_of_every_slab_is_compared(monkeypatch, build):
    # one bit of the last slab, eta = d - 1, in the row block that the last
    # row block of slab 0, iA = d - 1, moves to: neither row block 0 of slab
    # 0 nor row block 0 of slab eta meets it
    fam = build()
    d, kd, u = fam.d, fam.k * fam.d, fam.generators[-1][1]
    block = fields.add_index_table(fam.ring)[d - 1, d - 1]
    assert block != 0

    def flip_a_bit(eta, slab):
        if eta == d - 1:
            slab.view(np.int64)[block * kd, _translate(d, slab, 1, 0) * 2] ^= 1
    _spoil_expansions(monkeypatch, flip_a_bit, target=u)
    with pytest.raises(RuntimeError, match=f"is not slab 0 with its rows moved by {d - 1}"):
        _slab_zero_of(fam.ring, u)


def test_signed_zeros_and_nans_compare_by_their_bits(monkeypatch):
    # an exact zero of slab 1 of a permutation's basis turned -0.0 is a
    # mismatch; a NaN put into slab 0 and into each of its translates is
    # not, and it fails the basis instead (and, being in the class of every
    # twist V(a), every twist)
    fam = family_cd(5)
    ring = fam.ring
    perm = fam.generators[1][1]
    slabs = construct.expand_slabs(ring, perm)
    next(slabs)
    col = next(slabs)[:, 1]  # the column (1, 1, 0), in slab 1
    zero = np.flatnonzero(col == 0)[0]
    assert not np.signbit(col[zero].real)

    def flip(eta, slab):
        if eta == 1:
            slab[zero, 1] = complex(-0.0, slab[zero, 1].imag)
    _spoil_expansions(monkeypatch, flip, target=perm)
    with pytest.raises(RuntimeError, match="is not slab 0 with its rows moved by 1"):
        _slab_zero_of(ring, perm)
    monkeypatch.undo()

    twist = fam.generators[4][1]  # V(a) for the first a, its basis class's first generator

    def nan_everywhere(eta, slab):
        slab[:, _translate(5, slab, 1, 0)] = np.nan
    _spoil_expansions(monkeypatch, nan_everywhere, target=twist)
    slab = _slab_zero_of(ring, twist)
    assert np.isnan(slab).any()
    with np.errstate(invalid="ignore"):
        report = certify_family(fam)
    assert not report.passed
    failing = [b for b in report.basis_results if not b["pass"]]
    assert [b["label"] for b in failing] == \
        [label for label, _ in fam.generators if label.startswith("V")]
    assert all(np.isnan(b["orthonormality"]) and np.isnan(b["entanglement"]) for b in failing)



def test_a_nan_overlap_fails_the_oracle_and_stays_in_its_folds(monkeypatch):
    # a NaN column in the expansion of the first twist: Python's max would
    # keep the 0.0 it starts from in every fold; the oracle keeps the NaN
    fam = family_cd(5)
    label, twist = fam.generators[4]

    def nan_everywhere(eta, slab):
        slab[:, _translate(5, slab, 1, 0)] = np.nan
    _spoil_expansions(monkeypatch, nan_everywhere, target=twist)
    with np.errstate(invalid="ignore"):
        want = certify_exhaustive(fam)
        figures = {b: (ortho, ent) for b, ortho, ent in basis_figures_per_basis(fam)}
    assert not want.passed and np.isnan(want.agreement_deviation)
    spoiled = [p for p in want.pair_results if label in (p["a"], p["b"])]
    assert len(spoiled) == 7
    for p in spoiled:
        assert not p["pass"] and np.isnan(p["overlap_deviation"]) and np.isnan(p["agreement"])
    assert all(p["pass"] for p in want.pair_results if p not in spoiled)
    assert np.isnan(figures[label]).all()
    assert not np.isnan([figures[b] for b in figures if b != label]).any()
    # one NaN in the last block of a k = 2 W: the blockwise criterion keeps it
    w = np.ones((6, 6), dtype=complex)
    w[4, 4] = np.nan
    assert np.isnan(criterion_magnitudes_blockwise(ring_for_dimension(3), 2, w)).all()

def test_agreement_deviation_keeps_a_nan_in_a_later_pair_class(monkeypatch):
    # class 0 takes the sparse route, so only the streamed classes after it are NaN
    monkeypatch.setattr(verify, "bruteforce_unbiased", lambda *a: (float("nan"), float("nan")))
    report = certify_family(family_cd(3))
    first = report.pair_results[0]
    assert first["class"] == 0 and first["route"] == "sparse" and np.isfinite(first["agreement"])
    assert np.isnan(report.agreement_deviation) and not report.passed
