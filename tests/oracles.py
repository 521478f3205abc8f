"""Independent reference implementations that only the tests use.

Each one recomputes a quantity by a route the package itself does not take:
field arithmetic by polynomials and Frobenius powers instead of exp/log and
trace vectors, the GR(4,a) trace by the 2-adic Frobenius, characters from
that arithmetic, Pauli operators as monomial matrices, entanglement one
vector at a time, and quadratic sums through multiplicative characters.
"""

import numpy as np

from mumeb import fields


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
