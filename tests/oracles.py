"""Independent reference implementations that only the tests use.

Each one recomputes a quantity by a route the package itself does not take:
characters from element arithmetic instead of index tables, Pauli operators
as explicit monomial matrices, entanglement one vector at a time, and
quadratic sums through multiplicative-character Gauss sums.
"""

import numpy as np

from mumeb import fields


def generic_character(x):
    """Additive character lambda(x) = prod_t exp(2 pi i T_t(x_t) / p_t)."""
    phase = 0.0
    for part in x.parts:
        phase += fields.field_trace(part) / part.field.p
    return complex(np.exp(2j * np.pi * phase))


def pauli_matrix(ring, xi, eta):
    """Monomial unitary with entry lambda(r*xi) at position (index(r+eta), index(r))."""
    d = ring.d
    h = np.zeros((d, d), dtype=complex)
    rows = fields.add_index_table(ring)[:, eta.index]
    h[rows, np.arange(d)] = fields.char_table(ring)[:, xi.index]
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


def _least_primitive_element(field):
    for g in field.units():
        el, order = g, 1
        while el != field.one:
            el, order = el * g, order + 1
        if order == field.q - 1:
            return g
    raise RuntimeError("no primitive element found")


def gauss_sum_reference(field, c, order=2):
    """g(c, order) = sum over the nontrivial powers chi^j of the order-`order`
    multiplicative character of sum_(r != 0) zeta_p^(T(c r)) chi^j(r).

    This equals sum_r zeta_p^(T(c r^order)) by counting order-th power roots,
    which gives an independent route to the quadratic sums.  Each component
    Gauss sum is checked to have magnitude sqrt(q).
    """
    if c.is_zero:
        raise ValueError("c must be nonzero")
    q = field.q
    if order < 2 or (q - 1) % order:
        raise ValueError(f"character order {order} does not divide q - 1 = {q - 1}")
    g = _least_primitive_element(field)
    dlog = {}
    el = field.one
    for m in range(q - 1):
        dlog[el.index] = m
        el = el * g
    zeta_p = np.exp(2j * np.pi / field.p)
    chi_base = np.exp(2j * np.pi / order)
    total = 0.0 + 0.0j
    for j in range(1, order):
        gsum = 0.0 + 0.0j
        for r in field.units():
            add_char = zeta_p ** fields.field_trace(c * r)
            mult_char = chi_base ** ((j * dlog[r.index]) % order)
            gsum += add_char * mult_char
        if abs(abs(gsum) - np.sqrt(q)) > 1e-9:
            raise AssertionError(f"component Gauss sum magnitude {abs(gsum)} != sqrt({q})")
        total += gsum
    return complex(total)
