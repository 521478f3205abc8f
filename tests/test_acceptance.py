"""Acceptance gate: one test per acceptance criterion, each printing a single
pass/fail line (run with -s to see them).  Families and reports are cached so
the agreement criterion can audit every family certified here."""

import time
from functools import lru_cache

from mumeb import fields
from mumeb.bounds import bound_dkd
from mumeb.construct import family_cd, family_ckd, family_ckd_mols
from mumeb.fields import ring_for_dimension
from mumeb.mols import best_mols, mubs_from_net, net_from_mols
from mumeb.verify import certify_family, criterion_check, gauss_sum_check
from mumeb.construct import permutation_unitary

import numpy as np
from oracles import certify_exhaustive

K1_COUNTS = {3: 4, 5: 8, 7: 12, 9: 16, 15: 4, 21: 4, 25: 48}


def _gate(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=None)
def _family(kind, d, k):
    if kind == "gauss":
        return family_cd(d) if k == 1 else family_ckd(d, k)
    return family_ckd_mols(d, k)


@lru_cache(maxsize=None)
def _report(kind, d, k):
    return certify_family(_family(kind, d, k))


def _all_family_keys():
    keys = [("gauss", d, 1) for d in sorted(K1_COUNTS)]
    keys += [("gauss", 9, 4), ("gauss", 3, 4), ("gauss", 3, 6), ("mols", 7, 9)]
    return keys


def test_criterion_1_k1_families():
    t0 = time.perf_counter()
    fam15 = _family("gauss", 15, 1)
    rep15 = _report("gauss", 15, 1)
    dt15 = time.perf_counter() - t0
    ok = fam15.n_bases == 4 and rep15.passed and dt15 < 60.0
    for pair in rep15.pair_results:
        ok = ok and abs(pair["overlap_max"] - 1 / 15) < 1e-8 \
                and abs(pair["overlap_min"] - 1 / 15) < 1e-8
    for basis in rep15.basis_results:
        ok = ok and basis["entanglement"] < 1e-9
    counts = {}
    for d, want in sorted(K1_COUNTS.items()):
        fam = _family("gauss", d, 1)
        rep = _report("gauss", d, 1)
        counts[d] = fam.n_bases
        ok = ok and fam.n_bases == want and rep.passed
    _gate(1, ok, f"k=1 family counts {counts}, all certified flat at 1/d "
                 f"(d=15 in {dt15:.2f}s)")


def test_criterion_2_quadratic_sum_magnitudes():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(3, 26, 2):
        worst = max(worst, gauss_sum_check(ring_for_dimension(d)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    _gate(2, ok, f"all odd d <= 25, every unit c: ||sum| - sqrt(d)| <= "
                 f"{worst:.2e} in {dt:.2f}s")


def test_criterion_3_tensor_families():
    t0 = time.perf_counter()
    fam = _family("gauss", 9, 4)
    rep = _report("gauss", 9, 4)
    dt = time.perf_counter() - t0
    ok = fam.n_bases == 5 and rep.passed and dt < 120.0
    for pair in rep.pair_results:
        ok = ok and abs(pair["overlap_max"] - 1 / 18) < 1e-8 \
                and abs(pair["overlap_min"] - 1 / 18) < 1e-8
    ok = ok and _family("gauss", 3, 4).n_bases == 4 and _report("gauss", 3, 4).passed
    ok = ok and _family("gauss", 3, 6).n_bases == 3 and _report("gauss", 3, 6).passed
    _gate(3, ok, f"(d=9,k=4)->5 bases flat at 1/18 in {dt:.1f}s; "
                 f"(3,4)->4; (3,6)->3 (mixed even/odd k)")


def test_criterion_4_mols_route():
    squares = best_mols(3)
    net = net_from_mols(squares)
    mubs = mubs_from_net(net)
    fam = _family("mols", 7, 9)
    rep = _report("mols", 7, 9)
    ok = (len(squares) == 2 and net.n == 4 and len(mubs) == 4
          and fam.n_bases == 4 and rep.passed)
    for pair in rep.pair_results:
        ok = ok and abs(pair["overlap_max"] - 1 / 21) < 1e-8 \
                and abs(pair["overlap_min"] - 1 / 21) < 1e-8
    _gate(4, ok, "2 squares of order 3 -> (4,3)-net -> 4 unbiased bases of "
                 "C^9 -> 4 bases of C^7 (x) C^63 flat at 1/21")


def test_criterion_5_sensitivity_negative_control():
    ring = ring_for_dimension(15)
    units = ring.units().tolist()
    perms = {a: permutation_unitary(ring, a) for a in units}
    add, neg = fields.add_index_table(ring), fields.neg_index_vector(ring)
    failing = []
    for i, a in enumerate(units):
        for b in units[i + 1:]:
            dev = criterion_check(ring, 1, perms[a], perms[b])
            if add[a, neg[b]] in units:
                assert dev < 1e-9, f"unit-difference pair {a},{b}"
            elif dev > 1e-8:
                failing.append((a, b))
    rep = _report("gauss", 15, 1)
    ok = len(failing) > 0 and rep.passed
    _gate(5, ok, f"d=15: all unit-difference pairs flat, {len(failing)} "
                 f"non-unit-difference pairs fail (e.g. {failing[0]})")


def test_criterion_6_bound_arithmetic():
    t0 = time.perf_counter()
    sq = bound_dkd(9, 9)       # k = p^(2e): the prime-power rule dominates
    b76 = bound_dkd(25, 5776)  # k = 76^2
    b26 = bound_dkd(9, 676)    # k = 26^2
    dt = time.perf_counter() - t0
    ok = (sq.pp_bound == 10 and sq.mols_bound == 4 and sq.rule == "prime-power"
          and sq.combined == 10)
    ok = ok and b76.pp_bound == 17 and b76.mols_bound == 8 and b76.combined == 17
    ok = ok and b26.pp_bound == 5 and b26.mols_bound == 6 and b26.combined == 6
    ok = ok and b26.mols_provenance == "literature" and dt < 1.0
    _gate(6, ok, f"k=3^2 -> 10 (prime-power beats mols); k=76^2 -> 17 vs 8; "
                 f"k=26^2 -> 6 via 4 published squares; {dt:.3f}s")


def test_criterion_7_criterion_overlap_agreement():
    total, agreeing, worst = 0, 0, 0.0
    for key in _all_family_keys():
        rep = _report(*key)
        worst = max(worst, rep.agreement_deviation)
        for pair in rep.pair_results:
            total += 1
            if pair["pass"] == pair["criterion_pass"]:
                agreeing += 1
    ok = total > 0 and agreeing == total and worst <= 1e-8
    _gate(7, ok, f"{agreeing}/{total} pairs across {len(_all_family_keys())} "
                 f"families agree between the two routes (worst residual {worst:.1e})")


def test_criterion_8_mols_net_mub_chain():
    ok = True
    for x in (2, 3, 4, 5, 7, 8):
        squares = best_mols(x)
        ok = ok and len(squares) == x - 1
        net = net_from_mols(squares)   # both axioms validated exhaustively
        mats = [(row == np.arange(x)[:, None]).astype(int) for row in net.lines]
        for b1 in range(net.n):
            ok = ok and (mats[b1] @ mats[b1].T == x * np.eye(x)).all()
            for b2 in range(b1 + 1, net.n):
                ok = ok and (mats[b1] @ mats[b2].T == 1).all()
        mubs = mubs_from_net(net)
        for i in range(len(mubs)):
            gram_dev = np.abs(mubs[i].conj().T @ mubs[i] - np.eye(x * x)).max()
            ok = ok and gram_dev < 1e-9
            for j in range(i + 1, len(mubs)):
                mags = np.abs(mubs[i].conj().T @ mubs[j])
                ok = ok and np.abs(mags - 1 / x).max() < 1e-9
    _gate(8, ok, "x in {2,3,4,5,7,8}: complete square sets, exhaustive net "
                 "axioms, unbiased bases flat at 1/x")


def test_criterion_9_exhaustive_route_on_tensor_families():
    # verify certifies these from their Kronecker factors, and the monomial
    # pair classes of the k = 1 families by the sparse overlap product, which
    # expands no B_W; the oracle expands and holds every kd-level basis and
    # runs one overlap product per pair
    keys = [key for key in _all_family_keys() if key[2] >= 2]
    keys += [("gauss", d, 1) for d in (3, 5, 7, 9, 15, 21)]
    ok, worst = True, 0.0
    for key in keys:
        got, want = _report(*key), certify_exhaustive(_family(*key))
        ok = ok and got.passed and want.passed
        ok = ok and [(b["label"], b["pass"]) for b in got.basis_results] == \
            [(b["label"], b["pass"]) for b in want.basis_results]
        ok = ok and [(p["a"], p["b"], p["pass"], p["criterion_pass"]) for p in got.pair_results] == \
            [(p["a"], p["b"], p["pass"], p["criterion_pass"]) for p in want.pair_results]
        for p, q in zip(got.pair_results, want.pair_results):
            worst = max(worst, abs(p["overlap_min"] - q["overlap_min"]),
                        abs(p["overlap_max"] - q["overlap_max"]))
    ok = ok and worst <= 1e-12
    _gate(9, ok, f"{len(keys)} families (k >= 2, and k = 1 up to d = 21) also certified by "
                 f"the exhaustive route: same verdicts, overlap extremes within {worst:.1e}")
