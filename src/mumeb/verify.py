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
pairs that provably share one W.

Nothing here holds an N x N array.  Each expansion streams one eta-slab
at a time (construct.expand_slabs), and every product B_I^dag X runs over
the column blocks of B_I, built once (linalg.ColumnBlocks): each column of
B_I has d nonzeros, shared by the d columns of one (eta, j), so a product
with an N x c array costs 8 d N c flops.  The blocks are read off slab 0
of B_I and moved to the other slabs (see below).  The overlaps of a
class are B_I^dag B_W over slab 0 of B_W = (I_d (x) W) B_I (see below),
which is the expansion of W itself, or for a monomial W the sparse
product below.  The orthonormality of a basis is
max |((I_d (x) U) B_I)^dag B_U - I| = max |B_I^dag ((I_d (x) U^dag) B_U) - I|,
taken on slab 0 (see below); it reads the bytes of the expanded B_U and,
for unitary U, equals its Gram defect max |B_U^dag B_U - I|.

Every figure of a basis is read off its slab 0, the kd columns (xi, 0, j).
Column (xi, eta, j) of an expansion has the entry
(1/sqrt(d)) lambda(r xi) U[iB, j d + r], r = iA - eta, at row (iA, iB), so
slab eta is T_eta y_0: y_0 is slab 0 and T_eta = X_eta (x) I_kd moves row
(iA - eta, iB) to (iA, iB).  expand_slabs computes each entry as one
product of the same two numbers in every slab, and _slab_zero, which
reads and counts the slabs of the expansion itself, checks T_eta y_0 bit
for bit on every slab of every expansion certify_family reads, B_I's
included, raising RuntimeError on a mismatch.  For B_I itself
this gives T_(-eta) B_I = B_I Pi_eta, Pi_eta the column permutation that
reads column (xi', eta', j') at (xi', eta' - eta, j'), and so
B_I^dag T_eta = Pi_eta^T B_I^dag, since T_eta^dag = T_(-eta).
1. Orthonormality.  T_eta commutes with I_d (x) U^dag, so
   B_I^dag (I_d (x) U^dag) T_eta y_0 = Pi_eta^T B_I^dag (I_d (x) U^dag) y_0:
   the product block of slab eta is that of slab 0 with its rows relabelled
   (xi', eta', j') -> (xi', eta' - eta, j'), which takes the entry that I
   meets, row (xi, eta, j) of column (xi, eta, j), to row (xi, 0, j) of
   column (xi, 0, j), where the block of slab 0 has it.
2. Entanglement.  The d x kd reshape of column (xi, eta, j) is P M_0, with
   M_0 that of column (xi, 0, j) and P the permutation of the rows iA, so
   rho_eta = P rho_0 P^T, whose entries deviate from I_d / d as those of
   rho_0 do, in another order.
3. Overlaps.  B_W is the expansion of W, so B_I^dag T_eta y_0 =
   Pi_eta^T B_I^dag y_0 holds the magnitudes of the slab-0 block of
   B_I^dag B_W in another order, and the extremes over the N columns of
   B_W are those over its slab 0.
Each figure is so equal to that of slab 0 up to the order of summation,
and the per-basis products and the brute-force overlaps run on kd of the N
columns, d times fewer flops.  Every slab is still expanded and compared.

The column blocks of B_I are built from its slab 0 too, once every slab
of B_I is checked: slab eta = T_eta y_0 has slab 0's row supports moved
by T_eta (fields.add_index_table) and slab 0's entries there, bit for bit.
So linalg.ColumnBlocks reads slab 0's groups and their one d x d block,
lambda(r xi) / sqrt(d), off its entries and moves the groups' rows: every
group and the block are bit for bit those of a read of all N columns.  The
blocks number the columns (eta, xi, j), so the ids below kd are slab 0's.

The per-basis checks run once per basis class.  A generator that is a row
gather U = R[p] of another, R, has the basis B_U = (I_d (x) P) B_R, a row
permutation of B_R: expand_slabs fills row (iA, iB) of B_U with the same
products as row (iA, p[iB]) of B_R, bit for bit.  Then
(I_d (x) U^dag) B_U = (I_d (x) R^dag P^T P) B_R = (I_d (x) R^dag) B_R, and
the reduced density M M^dag of each column, M its d x kd reshape, becomes
M P^T P M^dag = M M^dag.  So both per-basis figures of U equal those of R
up to the order of the kd terms of each sum, and certify_family computes
them once for the first generator of each class of generators that share
one canonical matrix (see _pair_classes).  Unitarity is checked once per
such class too: U = C[p] gives U^dag U = C^dag C up to the order of
summation over the rows, so the check of the class's first generator
stands for every member.

The same identity lets one expansion serve every matrix that is a row
gather of it.  certify_family plans its run before it expands anything but
I: the matrices to expand, each once, are I at each level used, the matrix
of each basis class and each W or Y that the brute force needs, and a
matrix u is read off an M already planned when u = M[q] bit for bit.  Its
slab 0 is then slab 0 of B_M with rows (iA, iB) read at (iA, q[iB]), bit
for bit, so every figure is the one that u's own expansion gives.  The
canonical forms say only that u + 0.0 = (M + 0.0)[q]; a -0.0 in u where M
holds 0.0 gives B_u a -0.0 where B_M has 0.0, so such a u is planned
itself.  The plan decides every route (sparse, orbit, streamed) in class
order without an expansion, and each expansion is read by all its readers
and dropped before the next is made.  So the run holds one slab at a time,
but slab 0 of both B_I and B_{I_d}, when both are used, while the plan is
made.  For family_cd the plan is I, which U(1) is, and F, of which every
twist V(a) = U(a) F and every dense W = U(a)^dag V(b) is a row gather:
2 expansions.

A k >= 2 generator built as U = A (x) C, A k x k and C d x d, is certified
from its factors, with the mixed-product and reshaping rules of the
Kronecker product (Van Loan, "The ubiquitous Kronecker product",
J. Comput. Appl. Math. 123, 2000).  Write a row of C^d (x) C^kd as
(iA, a, b), iB = a d + b, and a column as (xi, eta, j).  Column (xi, eta, j)
of B_U has the entry (1/sqrt(d)) lambda(r xi) U[a d + b, j d + r] =
A_aj (1/sqrt(d)) lambda(r xi) C_br, r = iA - eta, at row (iA, a, b); the
last factor is entry ((iA, b), (xi, eta)) of B_C, the d-level (k = 1) basis
of C.  So B_U = P (A (x) B_C) P', with P taking the rows (a, iA, b) to
(iA, a, b) and P' the columns (j, xi, eta) to (xi, eta, j), both fixed by d
and k.  In particular B_I = P (I_k (x) B_{I_d}) P', and in the same row
order I_d (x) U^dag is P (A^dag (x) (I_d (x) C^dag)) P^T.  The mixed-product
rule (P (x) Q)(R (x) S) = PR (x) QS then gives the three figures:

1. Orthonormality.  B_I^dag (I_d (x) U^dag) B_U - I =
   P'^T (X (x) G - I_k (x) I) P', with X = A^dag A and
   G = B_{I_d}^dag (I_d (x) C^dag) B_C, so its largest entry is
   max(max_{a != b} |X_ab| max |G|, max_a max |X_aa G - I|).
2. Entanglement.  The d x kd reshape of column (xi, eta, j) of B_U is
   [A_0j M, ..., A_(k-1)j M], with M the d x d reshape of column (xi, eta) of
   B_C, so its reduced density is n_j M M^dag, with n_j = sum_a |A_aj|^2.
3. A pair.  For U_s = A_s (x) C_s and U_t = A_t (x) C_t,
   W = U_s^dag U_t = X (x) Y, with X = A_s^dag A_t and Y = C_s^dag C_t, and
   B_I^dag B_W = P'^T (X (x) B_{I_d}^dag B_Y) P'.  Its magnitudes are the
   products |X_ab| |Q_ij|, Q = B_{I_d}^dag B_Y, so their extremes are
   min |X| min |Q| and max |X| max |Q|.  The criterion sum of W at
   (xi, eta, j, l) is |X_jl| times that of Y at (xi, eta).

The factors are read off the entries, never off labels or metadata (see
_kron_factors).  A k >= 2 generator that is not A (x) C within
rho = max |U - A (x) C| <= 2^-40 / kd, and every k = 1 generator, takes
the trivial factors A = [1], C = U, rho = 0; so do both generators of a
pair unless both factor.  Then X = [1], the three figures are those of U
itself, and every residual term below is 0.  The residual is folded into
the figures.  Let e = kd rho, which bounds the operator norm of
U - A (x) C and so of B_U - B_{A (x) C} = (I_d (x) (U - A (x) C)) B_I,
B_I being unitary.  For a unitary U, U^dag U and the reduced densities of
unit columns move by at most 2 e + e^2, so that much is added to the
orthonormality and entanglement figures.  An overlap of two unit columns
moves by at most e_s + e_t + e_s e_t; a criterion sum, d terms of W with
unit phases, by d times that; and their agreement by twice that.

A pair class whose W is monomial skips B_W: its overlaps are a sparse
product of B_I with itself (Gustavson, "Two fast algorithms for sparse
matrices", ACM TOMS 4, 1978).  Let column n of W hold w_n at row p_n and
nothing else, and let b_R be row R of B_I.
- Row identity.  Row (iA, m) of B_W = (I_d (x) W) B_I is
  sum_n W[m, n] b_(iA, n), so B_I^dag B_W = sum_(iA, n) w_n
  conj(b_(iA, p_n))^T b_(iA, n): N outer products, one per row of B_I.
- Exact-zero blocks.  The row supports of the kd column groups (eta, j) of
  B_I partition its N rows (linalg.ColumnBlocks.row_groups), so b_R is
  nonzero only on the d columns of one group, and the outer product of row
  (iA, n) lies in the one d x d block of the groups of (iA, p_n) and
  (iA, n).  A block that no row reaches gets no term: its overlaps are
  exact zeros and count in the minimum.  There are N = k d^2 rows and
  (kd)^2 >= N blocks, so when two rows meet in one block, as for W = I or
  U(a)^dag U(b) with a - b a zero divisor, some other block is reached by
  none and the class fails with lo = 0; such a class takes the streamed
  route, which gives its maximum too.
- One-row blocks.  A block that one row reaches is w x y^T, x and y being
  rows of B_I on their groups' columns, and its squared magnitudes
  |w|^2 |x_a|^2 |y_b|^2 are products of nonnegative factors.  Rounding to
  nearest is monotone, so the least and the largest of their computed
  values are the products of the least and of the largest factors, bit
  for bit; they are taken so, from the extremes of each row of B_I, read
  once.  In the monomial classes of an unbiased k = 1 family every block
  is reached by one row, and the route costs O(N d).
- Overlap bound.  The pattern is read off W's own entries (_monomial_part):
  p_n is the row of the largest |entry| of column n, and rho the largest
  |entry| off it.  With W = W_p + dW, W_p the pattern part, the overlaps of
  W are those of W_p plus the entries of B_I^dag (I_d (x) dW) B_I, each at
  most ||I_d (x) dW||_2 = ||dW||_2 <= ||dW||_F <= kd rho, B_I being
  unitary.  So the route is taken when kd rho <= 2^-40, as for the factors
  (the V-V classes of a k = 1 family are monomial up to GEMM rounding,
  rho ~ 2e-16), and e = kd rho is added to the overlap deviation and to the
  agreement; the criterion sums run on W itself.  A factored class tests
  and routes its d-level Y the same way, and adds max |X| e, since its
  overlaps are |X_ab| |Q_ij|.

A dense d-level class runs brute force once per orbit of B_I's unit
automorphisms.  At k = 1 let P_m = U(m) for a unit m, so (P_m W P_m^T)[r, s]
= W[m r, m s], and let Pi_m be a column permutation with
(P_m (x) P_m) B_I = B_I Pi_m: column (xi, eta) of the left side is
sum_r lambda(r xi) |(r + eta) / m> |r / m> = column (m xi, eta / m) of B_I,
since lambda(m r' xi) = lambda(r' (m xi)).  Then
(P_m^T (x) P_m^T)(I_d (x) W)(P_m (x) P_m) = I_d (x) P_m^T W P_m gives
B_I^dag (I_d (x) P_m^T W P_m) B_I = Pi_m^T (B_I^dag (I_d (x) W) B_I) Pi_m,
the same overlaps in another order.  So a W with P_m W P_m^T equal to an
earlier dense W_rep, entry for entry, takes W_rep's overlap extremes.  The
identity for each m used is checked on the computed B_I (_permutes_columns,
O(N) and a d x d sort), and W keeps its own criterion sums, so its
agreement tests the symmetry.  The
d-level Y of a factored class is matched in the same way against B_{I_d}.

W = U^dag V is a gather when U has at most one nonzero per column, rho = 0
under _monomial_part, and V is finite (_adjoint_product).  Let the largest
|entry| of column m of U be at row p_m; then W[m, n] =
sum_i conj(U[i, m]) V[i, n] drops, next to conj(U[p_m, m]) V[p_m, n], only
terms conj(0) V[i, n], exact zeros when V is finite (NaN otherwise), so
row m of W is conj(U[p_m, m]) V[p_m, :], the one product that a GEMM would
also round.  Every other W is a GEMM: the families built here list their
permutation generators first, so in a pair i < j a monomial factor is U.

The criterion sums of W at xi are sum_r lambda(r xi) g[r, c], over the
columns c = (eta, j, l) of the terms g[r, c] = W[j d + r, l d + index(r +
eta)], gathered by one flat index cached per (ring, k).  They are computed
with a digit DFT instead of the d x d character table.  A ring index is
mixed radix, factor-major with the first factor most significant
(ProductRing), and the index of x in F_(p^a) is sum_i x_i p^i, x_i the
coefficient of t^i (FiniteField); so a ring index is a string of base-p
digits, each of its factor's prime.  In each factor lambda(x y) =
w_p^Tr(x y), w_p = exp(2 pi i / p), and the trace is F_p-linear, so
Tr(x y) = sum_i x_i z_i with z_i = Tr(t^i y).  Hence
lambda(x y) = K[x, pi(y)], where K is the Kronecker product of one p x p DFT
w_p^(x z) per digit, in the digit order of the index, and pi(y) is the
element with the digits z_i.  The trace form is nondegenerate: y -> Tr(. y)
is injective (Lidl & Niederreiter, Finite Fields, Thm 2.24), so pi is a
permutation and char_table = K Pi.  K is symmetric, so sum_r lambda(r xi)
g[r, c] = (K g)[pi(xi), c]: the sums of K g are those of the table with xi
renamed, and their extremes are equal.  Cut the digits into leading ones
with product a and trailing ones with product b = d / a; then
K = K_a (x) K_b, and K g is two thin products over g laid out as
[r_a, c, r_b], r = r_a b + r_b: K_b on the right, then K_a on the left, at
d^2 k^2 (a + b) complex multiply-adds instead of d^3 k^2 (Van Loan, as
above).  _digit_dft takes the cut with the least a + b and checks
char_table = (K_a (x) K_b) Pi once per ring.

criterion_check, the criterion alone on one pair, computes the sums once
per pair class and recalls them after (a memo function: Michie, "'Memo'
functions and machine learning", Nature 218, 1968).  With
U + 0.0 = C_U[p_U] and V + 0.0 = C_V[p_V] (_canonical, as in
_pair_classes), U^dag V = C_U^dag C_V[rel], rel = p_V[order_U], up to the
order of summation, and the sums are always those of the canonical product
C_U^dag C_V[rel].  That product is a function of the key
(ring, k, C_U, C_V, rel) alone, and C_U and C_V are matched bit for bit
against the canonical matrices held, so a hit returns exactly the bits a
cold call would, and an array changed in place changes its key.  For a
monomial U the gather gives the W of U and V themselves; a GEMM sums the
rows of C_U in sorted order, which can move W by rounding.  At most
_CANONICAL_LIMIT = 4 canonical matrices are held, 16 (kd)^2 bytes each, and
one that is dropped takes every class naming it; at most 8 kd classes are
held, 8 kd bytes of key each.  The 12,720 pairs of family_cd(81) fall into
238 classes.

The canonical form of each frozen input (construct.is_frozen: a
C-contiguous complex array over an immutable bytes object, as every
generator of an MEBFamily is) is recalled as well, so a family loop sorts
each generator once, not once per pair.  The (serial, order, p) found for
it is recorded under its id with a weak reference to it, and a call whose
input is that very object, the reference resolving to it, reuses them
without reading a value.  That reuse is exact: the bytes under a frozen
array cannot change, and numpy refuses to make it or any view of it
writeable; is_frozen and the shape check hold on every call, so the object
still reads those bytes as the same C-contiguous kd x kd complex array;
and the weak reference proves the object is the one recorded, not a new
one that took a freed one's id.  So u + 0.0 and its stable sort are what
they were, and _canonical(u) would return exactly (C, order, p).  When C
has been dropped since, it is held again as (u + 0.0)[order], the same
bits by the same argument, gathered without a sort.  Every other input is
sorted on every call.  A record holds no copy of the array, only 2 kd
indices; at most 8 kd are held, the oldest dropped first, and no weak
reference has a callback, so all memo state changes under one lock.  A
hit costs a dictionary lookup; a miss sorts the rows, compares C with the
matrices held and, for a new class, forms W and its sums.
"""

import dataclasses
import functools
import itertools
import threading
import time
import weakref
import zlib

import numpy as np

from . import construct, fields, linalg


@dataclasses.dataclass
class VerificationReport:
    """Aggregated outcome of certifying one family; total over bases and pairs.

    to_dict() is the deterministic payload; wall_time_s and stages are
    volatile and go to the report header."""

    family_id: str
    d: int
    k: int
    n_bases: int
    tolerances: dict
    generator_errors: list = dataclasses.field(default_factory=list)
    basis_results: list = dataclasses.field(default_factory=list)
    pair_results: list = dataclasses.field(default_factory=list)
    agreement_deviation: float = 0.0
    passed: bool = False
    wall_time_s: float = 0.0
    stages: dict = dataclasses.field(default_factory=dict)  # timings and counts

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


def _nan_max(a, b):
    """The larger of a and b, or a NaN if either is one; Python's max keeps
    a NaN only in first place."""
    return b if b > a or b != b else a


def deviation(lo, hi, target):
    """How far the extremes lo <= hi of a set of magnitudes stray from
    target; NaN if either extreme is NaN."""
    return _nan_max(abs(hi - target), abs(target - lo))


def _dft(primes):
    """The Kronecker product of the p x p DFTs exp(2 pi i x z / p), one per prime."""
    out = np.ones((1, 1), dtype=complex)
    for p in primes:
        x = np.arange(p)
        out = np.kron(out, np.exp(2j * np.pi * (np.outer(x, x) % p) / p))
    return out


@functools.lru_cache(maxsize=None)
def _digit_dft(ring):
    """(K_a, K_b): the DFTs over the leading and trailing base-p digits of the
    ring index, cut where a + b is least, so that char_table(ring) =
    (K_a (x) K_b) Pi for the column permutation Pi taking y to the element
    whose digits are the traces Tr(t^i y) (module docstring).  The identity
    is checked here, once per ring, and a failure raises RuntimeError."""
    primes = [f.p for f in ring.factors for _ in range(f.a)]  # most significant first
    heads = np.cumprod([1] + primes)
    cut = min(range(len(heads)), key=lambda i: heads[i] + ring.d // heads[i])
    k_a, k_b = _dft(primes[:cut]), _dft(primes[cut:])
    pi = ring.from_components(sum(f.trace[f.mul(f.p ** i, c)] * f.p ** i for i in range(f.a))
                              for f, c in zip(ring.factors, ring.components(np.arange(ring.d))))
    if (np.sort(pi) != np.arange(ring.d)).any() or \
            np.abs(np.kron(k_a, k_b)[:, pi] - fields.char_table(ring)).max() > 1e-12:
        raise RuntimeError(f"char_table of {ring} is not its digit DFT up to a column permutation")
    return k_a, k_b


@functools.lru_cache(maxsize=4)
def _diagonal_index(ring, k):
    """Flat positions in a kd x kd array w of the d terms
    w[j d + r, l d + index(r + eta)] of each criterion sum at (eta, j, l),
    laid out as [r_a, (eta, j, l), r_b] for r = r_a b + r_b, the digit cut
    of _digit_dft.  It holds d^2 k^2 intp, half the bytes of the terms it
    gathers (24 MB at d = 27, k = 64), so only the last few shapes are kept."""
    d = ring.d
    b = _digit_dft(ring)[1].shape[0]
    add = fields.add_index_table(ring)[:, :, None, None]  # [r, eta, j, l]
    j = np.arange(k)
    flat = (j[:, None] * d + np.arange(d)[:, None, None, None]) * (k * d) + j * d + add
    return np.ascontiguousarray(flat.reshape(d // b, b, -1).transpose(0, 2, 1))


def _monomial_part(w):
    """(rows, values, rho): the row and the entry of the first largest
    |entry| of each column of w, and rho, the largest |entry| off that
    pattern.  A NaN is either such an entry or makes rho NaN."""
    mags = np.abs(w)
    rows, cols = mags.argmax(axis=0), np.arange(w.shape[1])
    values = w[rows, cols]
    mags[rows, cols] = 0.0
    return rows, values, float(mags.max())


def _adjoint_product(u, v):
    """W = U^dag V.  Row m of W is conj(U[p_m, m]) V[p_m, :] when U is
    monomial, with rho = 0 under _monomial_part, and V finite, which is
    exact (module docstring); otherwise W is a GEMM.  A sum is finite only
    when all its terms are, so a finite sum vouches for V."""
    rows, values, rho = _monomial_part(u)
    if rho == 0 and np.isfinite(v.sum()):
        return values.conj()[:, None] * v.take(rows, axis=0)
    return u.conj().T @ v


def criterion_magnitudes(ring, w):
    """(min, max) of the criterion sums |sum_r lambda(r xi) w_((r,j),(r+eta,l))|
    of w = U^dag V, kd x kd, over all xi, eta in the ring and all block indices j, l.

    The d terms of every sum are gathered by one cached flat index and
    transformed by K_a (x) K_b in two thin GEMMs, d^2 k^2 (a + b) complex
    multiply-adds; the sums come out in another order of xi (module
    docstring), which leaves their extremes alone."""
    w, k = construct._generator_order(ring, w)
    k_a, k_b = _digit_dft(ring)
    terms = np.take(w, _diagonal_index(ring, k))  # [r_a, (eta, j, l), r_b]
    sums = k_a @ (terms.reshape(-1, k_b.shape[0]) @ k_b).reshape(k_a.shape[0], -1)
    squares = sums.real ** 2 + sums.imag ** 2
    return float(np.sqrt(squares.min())), float(np.sqrt(squares.max()))


# The pair-class memo of criterion_check (module docstring): the bytes of
# the canonical matrices held, least recently used first, by serial number;
# the (weak reference, serial, order, position) recorded for each frozen
# input array, by id, oldest first; and the deviation of each class (ring,
# k, serial of C_U, serial of C_V, rel.tobytes()), oldest first.  One lock
# guards all three across threads.
_CANONICAL_LIMIT = 4
_canonicals = {}
_recalled = {}
_pair_memo = {}
_serials = itertools.count()
_memo_lock = threading.Lock()


def _canonical(u):
    """(C, order, position): the rows of u + 0.0 (which clears signed zeros)
    sorted by their bytes, C = (u + 0.0)[order], and the inverse p of order,
    so that u + 0.0 = C[p]."""
    rows = np.ascontiguousarray(u + 0.0)
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                       kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return rows[order], order, position


def _slot(c):
    """The serial of the held canonical matrix equal to c bit for bit, which
    becomes the most recently used; else c is held under a new serial, and
    the least recently used matrix is dropped, with every class naming it,
    once _CANONICAL_LIMIT are held.  A record naming it stays (_recall).
    Each comparison is one memcmp of bytes."""
    c = c.tobytes()
    for serial, held in reversed(_canonicals.items()):
        if held == c:
            _canonicals[serial] = _canonicals.pop(serial)
            return serial
    if len(_canonicals) >= _CANONICAL_LIMIT:
        dropped = next(iter(_canonicals))
        del _canonicals[dropped]
        for key in [key for key in _pair_memo if dropped in key[2:4]]:
            del _pair_memo[key]
    serial = next(_serials)
    _canonicals[serial] = c
    return serial


def _recall(u):
    """(C, order, position, serial) of u, as _canonical and _slot give them.

    They are recalled when u is frozen (construct.is_frozen) and the record
    under its id refers to u itself, and C is held again as
    (u + 0.0)[order] if it was dropped (module docstring).  Else they are
    computed, and recorded for a frozen u, the oldest record dropped once
    8 kd are held.  Call under _memo_lock."""
    frozen = construct.is_frozen(u)
    record = _recalled.get(id(u)) if frozen else None
    if record is not None and record[0]() is u:
        _, serial, order, position = record
        held = _canonicals.get(serial)
        if held is not None:
            _canonicals[serial] = _canonicals.pop(serial)
            return np.frombuffer(held, complex).reshape(u.shape), order, position, serial
        c = (u + 0.0)[order]
    else:
        c, order, position = _canonical(u)
    serial = _slot(c)
    if frozen:
        _recalled.pop(id(u), None)
        if len(_recalled) >= 2 * _CANONICAL_LIMIT * len(u):
            del _recalled[next(iter(_recalled))]
        _recalled[id(u)] = (weakref.ref(u), serial, order, position)
    return c, order, position, serial


def criterion_check(ring, k, u, v):
    """Max deviation of the criterion sums of U^dag V from the target 1/sqrt(k).

    With U + 0.0 = C_U[p_U] and V + 0.0 = C_V[p_V] (_canonical),
    U^dag V = C_U^dag C_V[rel], rel = p_V[order_U], up to the order of
    summation.  The sums are those of that canonical product, computed once
    per class (ring, k, C_U, C_V, rel) and then recalled, so a repeated class
    returns the bits of its first call.  The canonical form of a frozen
    array (construct.frozen), such as a family's generator, is recalled
    too, which gives exactly the (C, order, p) that sorting its rows again
    would (module docstring); any other array is sorted on every call."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    kd = k * ring.d
    if u.shape != (kd, kd) or v.shape != (kd, kd):
        raise ValueError(f"need {kd} x {kd} matrices for d={ring.d}, k={k}")
    with _memo_lock:
        c_u, order_u, _, serial_u = _recall(u)
        c_v, _, position_v, serial_v = _recall(v)
        rel = position_v[order_u]
        key = (ring, k, serial_u, serial_v, rel.tobytes())
        if key not in _pair_memo:
            if len(_pair_memo) >= 2 * _CANONICAL_LIMIT * kd:
                del _pair_memo[next(iter(_pair_memo))]
            _pair_memo[key] = deviation(
                *criterion_magnitudes(ring, _adjoint_product(c_u, c_v[rel])), 1.0 / float(np.sqrt(k)))
        return _pair_memo[key]


def bruteforce_unbiased(basis_a, basis_b):
    """(min, max) magnitude over all cross inner products of two bases.

    basis_a is an N x N array or its linalg.ColumnBlocks; basis_b is an
    N x N array or N x c columns of one, such as the slab 0 that
    _slab_zero returns.  The products run over the column groups of
    basis_a, which share one block, else one dense group.  A NaN stays in
    both.
    """
    if not isinstance(basis_a, linalg.ColumnBlocks):
        basis_a = linalg.ColumnBlocks(basis_a)
    basis_b = np.asarray(basis_b, dtype=complex)
    if basis_b.ndim != 2 or basis_b.shape[0] != basis_a.shape[0]:
        raise ValueError("bases have different shapes")
    mags = np.abs(basis_a.adjoint_product(basis_b)[1])
    return float(mags.min()), float(mags.max())


def sparse_unbiased(basis_a, rows, values):
    """(min, max) magnitude over all N^2 entries of B^dag (I_d (x) W) B, for
    B the N x N basis held as linalg.ColumnBlocks basis_a, an expanded
    basis, whose groups share one block, and W the kd x kd monomial matrix
    with the entry values[n] at (rows[n], n); None when two rows of B meet
    in one block, a class for the streamed route.  Holds no N x N array.
    The proofs are in the module docstring.
    """
    group, row_lo, row_hi = basis_a.row_groups()
    n_groups = len(basis_a.rows)
    n = group.size
    col = np.arange(n) % rows.size
    dst = np.arange(n) - col + rows[col]  # row (iA, rows[n]) for row (iA, n)
    reached = np.bincount(group[dst] * n_groups + group, minlength=n_groups * n_groups)
    if reached.max() > 1:
        return None
    w_sq = (values.real ** 2 + values.imag ** 2)[col]
    lo = np.minimum((row_lo[dst] * w_sq * row_lo).min(), np.inf if reached.all() else 0.0)
    hi = (row_hi[dst] * w_sq * row_hi).max()
    return float(np.sqrt(lo)), float(np.sqrt(hi))


def _permutes_columns(basis_a, sigma):
    """Whether A[sigma] = A Pi, bit for bit, for some column permutation Pi,
    A being the N x N basis held as linalg.ColumnBlocks basis_a, an expanded
    basis, whose groups share one block, and sigma a permutation of its
    rows.  Row R of A[sigma] is row sigma[R] of A.  The moved support
    sigma(S_h) of each group h must be the support S_g of one group g, and
    the columns of g read at the rows sigma(S_h), the block's columns taken
    in h's row map, must be the block's as a multiset of byte strings; then
    every column of A[sigma] is a column of A, one for one.  O(N), and one
    d x d sort per distinct row map."""
    group = basis_a.row_groups()[0]
    rows, block = basis_a.rows, basis_a.block  # block[i, j] = conj(A[rows[g, j], cols[g, i]])
    moved = sigma[rows]
    to = group[moved]
    if (to != to[:, :1]).any():
        return False
    slot = np.empty_like(group)  # of each row within its group's support
    slot[rows] = np.arange(rows.shape[1])
    maps = {q.tobytes(): q for q in slot[moved]}.values()  # h's row map: the slots of sigma(S_h)
    column = np.dtype((np.void, block.itemsize * block.shape[1]))
    want = np.sort(block.view(column), axis=0)
    return all(np.array_equal(np.sort(block.take(q, axis=1).view(column), axis=0), want)
               for q in maps)


def _orbit_unit(w, rep, units, perms, one):
    """The position h of a unit units[h] = m with w[q_m][:, q_m] = rep entry
    for entry, q_m = perms[h] being index(m x), or None.  Row `one` of
    w[q_m][:, q_m] is w[m, q_m], which picks the candidates for the whole
    matrix, all units at once."""
    for h in np.flatnonzero((w[units[:, None], perms] == rep[one]).all(axis=1)):
        if np.array_equal(w[np.ix_(perms[h], perms[h])], rep):
            return int(h)
    return None


def _basis_deviations(b_id, u, slab, x, norms, q=None):
    """(orthonormality, entanglement) of the basis of A (x) U from slab 0 of
    the expansion of U (_slab_zero), given the Gram matrix x = A^dag A and
    the squared column norms of A (figures 1 and 2 of the module
    docstring).  For A = [1] they are max |((I_d (x) U) B_I)^dag B_U - I|
    and the largest deviation of a reduced density from I_d / d.  Given q,
    slab is slab 0 of the expansion of M with U = M[q] bit for bit, whose
    rows (iA, iB) read at (iA, q[iB]) are slab 0 of U's, bit for bit
    (module docstring).  The rows are gathered 8 columns at a time for
    the entanglement, whose reduced densities are each computed and folded
    alone, and one row block iA at a time for (I_d (x) U^dag) B_U, so that
    no copy of slab 0 is held beside the products.

    The first is B_I^dag ((I_d (x) U^dag) B_U) - I over the column blocks
    of B_I.  For a unitary U it equals the Gram defect max |B_U^dag B_U - I|,
    since B_U = (I_d (x) U) B_I; unlike the Gram defect it also catches
    columns of B_U that are out of place.  I is subtracted where a row of
    the product block, a column id of B_I, is below kd, one of slab 0's
    (module docstring).  The figures are folded with np.max, so a NaN
    stays.
    """
    kd = u.shape[0]
    n = slab.shape[0]
    x_diag = np.diagonal(x)
    on_scale = float(np.abs(x_diag).max())  # max_a |X_aa|
    off_scale = float(np.abs(x - np.diag(x_diag)).max())  # max_(a != b) |X_ab|
    row_blocks = slab.reshape(n // kd, kd, kd)  # [iA]: the row block iA
    rows = slice(None) if q is None else q
    ent = np.max([linalg.max_entanglement_deviation(row_blocks[:, rows, c:c + 8].reshape(n, -1),
                                                    n // kd, kd, norms)
                  for c in range(0, kd, 8)])  # NaN stays
    u_dag = u.conj().T
    y = np.empty_like(row_blocks)
    for i_a, block in enumerate(row_blocks):  # the products of one stacked matmul, bit for bit
        np.matmul(u_dag, block[rows], out=y[i_a])
    ids, block = b_id.adjoint_product(y.reshape(n, kd))
    at = (np.flatnonzero(ids < kd), ids[ids < kd])  # I's entries, at slab 0's columns
    diag = block[at]
    block[at] = 0.0
    off = float(np.abs(block).max())
    g_max = np.max((off, np.abs(diag).max()))
    ortho = np.max((on_scale * off, np.abs(x_diag[:, None] * diag - 1.0).max()))
    return float(np.max((ortho, off_scale * g_max))), float(ent)


def _slab_zero(ring, u, stages):
    """Expand U (construct.expand_slabs), check that every eta-slab of the
    expansion is slab 0 with its rows moved, slab eta at row (iA, iB) being
    slab 0 at row (iA - eta, iB), and return slab 0, the N x kd array of the
    columns (xi, 0, j) in (xi, j) order, as a read-only view of its bytes.

    Slab 0 is kept once as bytes, and each row block iA + eta of slab eta
    is compared in place with its row block iA, one memcmp that copies
    neither, so -0.0 and NaN count as they are stored.  A mismatch raises
    RuntimeError.  stages["slabs_checked"] counts the slabs eta != 0
    compared.  The module docstring proves that slab 0 then carries every
    figure of the whole basis."""
    d = ring.d
    add = fields.add_index_table(ring)  # [iA, eta]: iA + eta
    slabs = construct.expand_slabs(ring, u)
    first = next(slabs)
    shape, zero = first.shape, first.tobytes()
    size = len(zero) // d  # the bytes of one kd x kd row block
    for eta, slab in enumerate(slabs, 1):
        moved = slab.reshape(d, -1)  # [iA]: the row block iA
        for i_a in range(d):
            if not zero.startswith(moved[add[i_a, eta]], i_a * size):
                raise RuntimeError(f"slab {eta} of an expansion over {ring} is not slab 0 "
                                   f"with its rows moved by {eta}")
        stages["slabs_checked"] += 1
    return np.frombuffer(zero, complex).reshape(shape)


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
    invertible c, or NaN if any sum is NaN.  Only rings of odd size qualify."""
    if ring.d % 2 == 0:
        raise ValueError("quadratic sums need 2 invertible, so odd size")
    target = np.sqrt(ring.d)
    worst = 0.0
    for c in ring.units().tolist():
        worst = _nan_max(worst, abs(abs(quadratic_sum_direct(ring, c)) - target))
    return worst


# ---------------------------------------------------------------------------
# full certification

# Largest kd * max |U - A (x) C| for which U is certified from A and C
_FACTOR_LIMIT = 2.0 ** -40


def _kron_factors(u, d):
    """(A, C, rho) with U within rho = max |U - A (x) C| of A (x) C, A
    being k x k and C d x d, or None when kd rho exceeds _FACTOR_LIMIT.

    C is the d x d block of U holding its first largest |entry|, at row
    i0 d + r0 and column j0 d + s0, and A_ij = U[i d + r0, j d + s0] / that
    entry.  For U = A' (x) C' this is A = A' / A'_(i0 j0) and
    C = A'_(i0 j0) C', so A (x) C = U up to rounding.
    """
    kd = u.shape[0]
    at = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    (i0, r0), (j0, s0) = divmod(int(at[0]), d), divmod(int(at[1]), d)
    c = u[i0 * d:(i0 + 1) * d, j0 * d:(j0 + 1) * d]
    a = u[r0::d, s0::d] / u[at]
    rho = float(np.abs(np.kron(a, c) - u).max())
    return (a, c, rho) if kd * rho <= _FACTOR_LIMIT else None


def _digest(rows):
    """A digest of the bytes of a contiguous array, their CRC-32, read in
    place.  Equal digests do not prove equal bytes; the caller confirms each
    match."""
    return zlib.crc32(rows)


def _pair_classes(mats):
    """(i, j, class) for every pair i < j, in itertools.combinations order,
    the first pair (i, j) of each class, and the canonical id of each
    generator, numbered by first appearance.

    Each generator is a row gather U_i = C_i[p_i] of its canonical matrix
    C_i: the rows of U_i + 0.0 (which clears signed zeros) sorted by their
    bytes (_canonical).  Then U_i^dag U_j = C_i^dag C_j[p_j[p_i^-1]] up to
    summation order, so the pairs with equal (C_i, C_j, p_j[p_i^-1]) share one
    W = U_i^dag U_j.  The key is read off the matrices, never off the labels,
    which a loaded file does not vouch for.  Generators with one id are
    row gathers of one another, which makes the id their basis class.

    The ids are looked up by a digest of C_i (_digest), not by its bytes,
    so that no second copy of the generators is held; a digest hit counts
    only when C_i equals the canonical matrix of that id's first generator
    bit for bit.
    """
    firsts, ids, orders, positions = {}, [], [], []  # digest -> the first generator of each id
    for u in mats:
        rows, order, position = _canonical(u)
        rows = rows.view(np.uint8)  # the bytes of C_i
        known = firsts.setdefault(_digest(rows), [])
        same = next((ids[f] for f in known if np.array_equal(
            np.ascontiguousarray(mats[f] + 0.0)[orders[f]].view(np.uint8), rows)), None)
        if same is None:
            known.append(len(ids))
            same = max(ids, default=-1) + 1  # numbered by first appearance
        ids.append(same)
        orders.append(order)
        positions.append(position)
    classes, pairs, first = {}, [], []
    for i, j in itertools.combinations(range(len(mats)), 2):
        key = (ids[i], ids[j], positions[j][orders[i]].tobytes())
        if key not in classes:
            classes[key] = len(first)
            first.append((i, j))
        pairs.append((i, j, classes[key]))
    return pairs, first, ids


def _bits(a):
    """The uint64 words of a's values, C-contiguous, so that two arrays
    compare equal only bit for bit: -0.0 is not 0.0, and a NaN is itself."""
    return np.ascontiguousarray(a).view(np.uint64)


def certify_family(family, tolerance=1e-8, pairs_only=False, progress=None):
    """Check everything the family claims, holding no N x N array.

    Unitarity is checked once per canonical matrix: on the first generator
    of each class of generators that are row gathers of one another (see
    _pair_classes), since U = C[p] gives U^dag U = C^dag C up to the order
    of summation.  Every generator of a failing class keeps its own
    generator_errors row, in generator order, with its class's deviation,
    and certification stops there.

    Every generator U has a factor triple (A, C, rho): A (x) C when k >= 2
    and U factors (_kron_factors), else the trivial A = [1], C = U, rho = 0
    (module docstring).  The route is "factored" when U really factored,
    else "streamed"; the code is the same.

    The run is planned before anything but I is expanded.  The plan lists
    the matrices to expand, each once, and what reads each of them:
    - I at each level that the basis classes or the pair classes use, whose
      checked slab 0 (_slab_zero) is read into the column blocks of B_I or
      B_{I_d} at once;
    - per basis class (skipped when pairs_only), C of its first generator,
      whose basis figures are those of the whole class (module docstring);
    - per pair class, in class order, the Y = C_s^dag C_t of its first pair
      (the factors of both when both factor, else the trivial factors of
      both) when Y is neither sparse nor an orbit member (below).
    A matrix u joins the planned matrix M with u = M[q] bit for bit, if one
    is (q from their canonical forms, _canonical), else it is planned
    itself.  Then each planned matrix is expanded once, every slab compared
    with slab 0, and every reader runs on slab 0 with rows (iA, iB) read
    at (iA, q[iB]), which is slab 0 of the expansion of u itself bit for
    bit, B_{M[q]} = (I_d (x) Q) B_M (module docstring), before the next
    matrix is expanded.

    Per basis class, the figures of slab 0 against the column blocks of
    the identity basis of C's level, scaled by A^dag A and the column norms
    of A, are those of the basis (figures 1 and 2 of the module docstring).
    Every basis keeps its own report row, in generator order, with its
    class's figures, the class id under "class", the route, and for a
    factored class its "factor_residual" rho.

    Per pair class (see _pair_classes), the overlap extremes are those of
    the identity basis of Y's level against B_Y, and the criterion extremes
    those of Y, each times min and max |A_s^dag A_t| (figure 3).  The
    overlaps of B_Y are "sparse" by sparse_unbiased when Y is monomial,
    else brute force against slab 0 of B_Y, "streamed".  A streamed Y at
    the d-level is first matched against the representative of each orbit
    found so far: "orbit" when P_m Y P_m^T equals it for a unit m
    (_orbit_unit), which takes its overlap extremes once
    (P_m (x) P_m) B_I = B_I Pi_m is checked for that m (_permutes_columns,
    RuntimeError when it fails); else Y becomes a representative.  These
    routes are decided in the plan, in class order.  The overlaps are held
    against 1/sqrt(kd^2), the criterion against 1/sqrt(k), and the two
    routes must agree after the factor-d rescaling.  Every pair keeps its
    own report row, in combinations order, with its class's figures, the
    class id under "class", the route, for a sparse Y its
    "monomial_residual" rho, and for an orbit the class id of its
    representative under "orbit_of".  Each figure includes the bound on how
    far the residuals can move it, so every pass test holds for the
    generators as they stand.

    report.stages records the wall time of each stage: unitarity_s,
    identity_blocks_s (expanding I and building its column blocks),
    classes_s (the plan of the pair classes and their brute force),
    bases_s (the basis figures) and expansions_s (the expansions other than
    I's); and the counts of bases, basis classes and factored basis
    classes, pairs, pair classes, factored pair classes, pair classes whose
    W or Y took the sparse product and those whose W or Y took an orbit's
    figures, the expansions, and, as _slab_zero reads each expansion
    itself, the slabs checked as translates of slab 0, d - 1 per expansion.

    progress, when given, is called as progress(stage, done, total) as each
    stage starts, with done = 0, and after each of its items: "unitarity"
    over the canonical matrices, "pair classes" over the plan's pair
    classes and "expansions" over the planned matrices.
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
    stages = report.stages
    stages.update(bases=family.n_bases, basis_classes=0, factored_basis_classes=0, pairs=0,
                  classes=0, factored_pair_classes=0, sparse_pair_classes=0,
                  orbit_pair_classes=0, expansions=0, slabs_checked=0, identity_blocks_s=0.0,
                  classes_s=0.0, bases_s=0.0, expansions_s=0.0)

    progress = progress or (lambda stage, done, total: None)
    ring = family.ring
    mats = [mat for _, mat in family.generators]
    pairs, first, ids = _pair_classes(mats)
    basis_first = {}  # class id -> its first generator, in class order
    for i, c in enumerate(ids):
        basis_first.setdefault(c, i)
    stages.update(basis_classes=len(basis_first), pairs=len(pairs), classes=len(first))

    progress("unitarity", 0, len(basis_first))
    unitary = {}
    for c, i in basis_first.items():
        unitary[c] = linalg.is_unitary(mats[i], 1e-9)
        progress("unitarity", len(unitary), len(basis_first))
    for (label, _), c in zip(family.generators, ids):
        ok, dev = unitary[c]
        if not ok:
            report.generator_errors.append({"label": label, "deviation": dev})
    stages["unitarity_s"] = time.perf_counter() - t0
    if report.generator_errors:
        report.wall_time_s = time.perf_counter() - t0
        return report

    factors = [_kron_factors(u, d) if k > 1 else None for u in mats]

    def factor_triples(*gens):
        """Whether all the generators factor, and the triple (A, C, rho) of
        each: its factors if so, else the trivial A = [1], C = U, rho = 0."""
        if all(factors[i] is not None for i in gens):
            return True, [factors[i] for i in gens]
        return False, [(np.ones((1, 1)), mats[i], 0.0) for i in gens]

    basis_triples = {} if pairs_only else {c: factor_triples(i) for c, i in basis_first.items()}
    pair_triples = [factor_triples(i, j) for i, j in first]

    plan = []  # (M, the order of M's canonical form, its readers (q, kind, class id))
    known = {}  # the bytes of a canonical form -> the planned matrices that have it

    def planned(u, kind, c):
        """Plan a read of u's slab 0 by class c of this kind ("basis" or
        "pair", None for no read) from a planned M with u = M[q] bit for
        bit, q None when u = M, or from u itself, planned anew when no M
        is; return M's place in the plan."""
        rows, order, position = _canonical(u)
        same = known.setdefault(rows.tobytes(), [])
        for m in same:
            q = plan[m][1][position]  # u + 0.0 = (M + 0.0)[q]
            if np.array_equal(_bits(u), _bits(plan[m][0][q])):
                q = None if np.array_equal(q, np.arange(len(q))) else q
                plan[m][2].append((q, kind, c))
                return m
        same.append(len(plan))
        plan.append((u, order, [(None, kind, c)] if kind else []))
        return len(plan) - 1

    blocks, held = {}, {}  # the column blocks of B_I per level; I's slab 0 until it is read

    def identity_blocks(size):
        """Plan and expand I of this size, kd or d, hold its checked slab 0
        for its readers, and build from it the column blocks of B_I or B_{I_d}
        with the moves T_eta of its rows."""
        t = time.perf_counter()
        m = planned(np.eye(size, dtype=complex), None, None)
        held[m] = _slab_zero(ring, plan[m][0], stages)
        stages["expansions"] += 1
        added = fields.add_index_table(ring).T  # [eta, iA]: iA + eta
        moves = (added[:, :, None] * size + np.arange(size)).reshape(d, -1)  # [eta, (iA, iB)]
        blocks[size] = linalg.ColumnBlocks(held[m], moves)
        stages["identity_blocks_s"] += time.perf_counter() - t

    for size in dict.fromkeys(len(triples[0][1]) for _, triples in  # C's size, kd or d
                              [*basis_triples.values(), *pair_triples]):
        identity_blocks(size)

    for c, (factored, [(_, c_mat, _)]) in basis_triples.items():
        planned(c_mat, "basis", c)
        stages["factored_basis_classes"] += factored

    t = time.perf_counter()
    orbits = []  # (Y, class id) of each d-level orbit's representative
    units = ring.units()
    perms = fields.mul_index_vector(ring, units[:, None])  # row h: index(m x), m = units[h]
    checked = set()  # the h whose (P_m (x) P_m) B_I = B_I Pi_m holds
    extremes = {}  # pair class -> the overlap extremes of its Y

    def overlap_route(w, c):
        """(e, route fields) of the overlaps of B^dag B_W, for B the identity
        basis of W's level and c the pair class of W, with e how far the
        sparse product can move them.  Their extremes go to extremes[c] now
        when sparse, else when the plan runs."""
        rows, values, rho = _monomial_part(w)
        if kd * rho <= _FACTOR_LIMIT:
            found = sparse_unbiased(blocks[len(w)], rows, values)
            if found is not None:
                extremes[c] = found
                stages["sparse_pair_classes"] += 1
                return kd * rho, {"route": "sparse", "monomial_residual": rho}
        for rep, r in orbits if len(w) == d else ():
            h = _orbit_unit(w, rep, units, perms, ring.one)
            if h is None:
                continue
            if h not in checked:
                sigma = (perms[h][:, None] * d + perms[h]).ravel()  # row (iA, iB) -> (m iA, m iB)
                if not _permutes_columns(blocks[d], sigma):
                    raise RuntimeError(f"the rows of B_I moved by the unit {units[h]} of {ring} "
                                       f"are not a column permutation of B_I")
                checked.add(h)
            stages["orbit_pair_classes"] += 1
            return 0.0, {"route": "orbit", "orbit_of": r}
        planned(w, "pair", c)
        if len(w) == d:
            orbits.append((w, c))
        return 0.0, {"route": "streamed"}

    partial = []  # per pair class: its figures but the overlap extremes of Y
    progress("pair classes", 0, len(first))
    for c, (factored, [(a_s, c_s, rho_s), (a_t, c_t, rho_t)]) in enumerate(pair_triples):
        x = np.abs(a_s.conj().T @ a_t)
        y = _adjoint_product(c_s, c_t)
        e_y, route = overlap_route(y, c)
        if factored:
            route = {**route, "route": "factored"}
            stages["factored_pair_classes"] += 1
        partial.append((float(x.min()), float(x.max()), *criterion_magnitudes(ring, y), e_y,
                        kd * rho_s, kd * rho_t, route))
        progress("pair classes", c + 1, len(first))
    stages["classes_s"] += time.perf_counter() - t

    figures = {}  # basis class -> (orthonormality, entanglement, route fields)
    progress("expansions", 0, len(plan))
    for m, (mat, _, readers) in enumerate(plan):
        if m in held:
            slab = held.pop(m)
        else:
            t = time.perf_counter()
            slab = _slab_zero(ring, mat, stages)
            stages["expansions"] += 1
            stages["expansions_s"] += time.perf_counter() - t
        for q, kind, c in readers:
            t = time.perf_counter()
            if kind == "pair":
                read = slab if q is None else \
                    np.take(slab.reshape(d, len(mat), -1), q, axis=1).reshape(slab.shape)
                extremes[c] = bruteforce_unbiased(blocks[len(mat)], read)
                del read
                stages["classes_s"] += time.perf_counter() - t
                continue
            factored, [(a, c_mat, rho)] = basis_triples[c]
            ortho, ent = _basis_deviations(blocks[len(mat)], c_mat, slab, a.conj().T @ a,
                                           (np.abs(a) ** 2).sum(axis=0), q)
            e = kd * rho
            shift = 2 * e + e * e
            route = {"route": "factored", "factor_residual": rho} if factored else \
                {"route": "streamed"}
            figures[c] = (ortho + shift, ent + shift, route)
            stages["bases_s"] += time.perf_counter() - t
        del slab  # before the next expansion
        progress("expansions", m + 1, len(plan))

    if not pairs_only:
        for (label, _), c in zip(family.generators, ids):
            ortho, ent, route = figures[c]
            report.basis_results.append({
                "label": label,
                "orthonormality": ortho,
                "entanglement": ent,
                "pass": ortho <= tolerances["orthonormality"]
                        and ent <= tolerances["entanglement"],
                "class": c,
                **route,
            })

    class_results = []
    for c, (x_lo, x_hi, cr_lo, cr_hi, e_y, e_s, e_t, route) in enumerate(partial):
        ov_lo, ov_hi = extremes[route.get("orbit_of", c)]
        ov_lo, ov_hi, cr_lo, cr_hi = x_lo * ov_lo, x_hi * ov_hi, x_lo * cr_lo, x_hi * cr_hi
        e_w = x_hi * e_y
        shift = e_s + e_t + e_s * e_t
        ov_dev = deviation(ov_lo, ov_hi, target) + shift + e_w
        cr_dev = deviation(cr_lo, cr_hi, crit_target) + d * shift
        class_results.append({
            "overlap_min": ov_lo,
            "overlap_max": ov_hi,
            "overlap_deviation": ov_dev,
            "criterion_deviation": cr_dev,
            "agreement": max(abs(cr_hi / d - ov_hi), abs(cr_lo / d - ov_lo)) + 2 * shift + e_w,
            "pass": ov_dev <= tolerance,
            "criterion_pass": cr_dev <= tolerance,
            **route,
        })
    for i, j, c in pairs:
        report.pair_results.append({"a": family.generators[i][0], "b": family.generators[j][0],
                                    **class_results[c], "class": c})

    report.agreement_deviation = functools.reduce(_nan_max, [r["agreement"] for r in
                                                             class_results] or [0.0])
    report.passed = (
        all(b["pass"] for b in report.basis_results)
        and all(c["pass"] and c["criterion_pass"] for c in class_results)
        and report.agreement_deviation <= tolerances["agreement"]
    )
    report.wall_time_s = time.perf_counter() - t0
    return report
