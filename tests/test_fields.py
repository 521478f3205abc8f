import random
import time

import numpy as np
import pytest

from mumeb import fields
from mumeb.fields import (FiniteField, GaloisRing, ProductRing, default_modulus,
                          factor_into_prime_powers, galois_trace_z4, is_prime,
                          prime_power_split, ring_for_dimension, unit_difference_set)
from oracles import (coeffs, field_add, field_mul, field_trace, from_coeffs,
                     generic_character, gr_trace, ring_op)

# exhaustive up to q = 81, randomized spot checks above
SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
                (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)]
BIG_FIELDS = [(5, 3), (5, 4), (7, 3), (7, 4), (11, 2), (11, 3), (11, 4),
              (13, 2), (13, 3), (13, 4)]


def test_integer_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert factor_into_prime_powers(45) == [(5, 1), (3, 2)]  # sorted by prime power
    assert factor_into_prime_powers(15) == [(3, 1), (5, 1)]
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(12) is None
    with pytest.raises(ValueError):
        factor_into_prime_powers(1)


@pytest.mark.parametrize("p,a", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, a):
    field = FiniteField(p, a)
    els = np.arange(field.q)
    m = field.mul(els[:, None], els)
    assert (m == m.T).all()                       # commutative
    left = m[m, :]                                # left[a,b,c] = (ab)c
    right = np.empty_like(left)
    for ai in range(field.q):
        right[ai] = m[ai][m]                      # right[a,b,c] = a(bc)
    assert (left == right).all()
    one_idx = 1
    assert (m[one_idx] == els).all()  # index 1 is the identity
    # every nonzero element has an inverse: row contains 1 against some unit
    assert all(any(m[i, j] == one_idx for j in range(1, field.q))
               for i in range(1, field.q))


@pytest.mark.parametrize("p,a", BIG_FIELDS)
def test_field_axioms_randomized(p, a):
    field = FiniteField(p, a)
    rng = random.Random(20240 + p * 10 + a)
    x, y, z = (np.array([rng.randrange(field.q) for _ in range(10_000)]) for _ in range(3))
    assert (field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))).all()
    assert (field.mul(x, y) == field.mul(y, x)).all()
    units = np.array([rng.randrange(1, field.q) for _ in range(200)])
    inverse = field.exp[-field.log[units] % (field.q - 1)]
    assert (field.mul(units, inverse) == 1).all()
    # spot checks of the tables against polynomial arithmetic
    for xi, yi in zip(x[:200].tolist(), y[:200].tolist()):
        assert field.mul(xi, yi) == field_mul(field, xi, yi)
        assert field.add(xi, yi) == field_add(field, xi, yi)


@pytest.mark.parametrize("p,a", SMALL_FIELDS)
def test_trace_surjective_with_even_fibers(p, a):
    field = FiniteField(p, a)
    counts = np.bincount(field.trace)
    assert len(counts) == p
    assert (counts == p ** (a - 1)).all()


def test_trace_examples():
    f3 = FiniteField(3)
    assert f3.trace[0] == 0
    assert f3.trace[1] == 1
    f9 = FiniteField(3, 2)
    assert f9.modulus == (1, 0, 1)
    t = 3  # coefficient vector (0, 1)
    # independent oracle: t^3 = t * t^2 and t^2 = -1 under this modulus,
    # so the trace t + t^3 = t - t = 0
    t3 = field_mul(f9, field_mul(f9, t, t), t)
    assert t3 == f9.neg(t)
    assert f9.trace[t] == 0


def test_trace_additive():
    f27 = FiniteField(3, 3)
    rng = random.Random(7)
    for _ in range(300):
        x = rng.randrange(27)
        y = rng.randrange(27)
        assert f27.trace[f27.add(x, y)] == (f27.trace[x] + f27.trace[y]) % 3


@pytest.mark.parametrize("p,a", SMALL_FIELDS)
def test_field_tables_match_polynomial_oracle_exhaustive(p, a):
    field = FiniteField(p, a)
    els = np.arange(field.q)
    add, mul = field.add(els[:, None], els), field.mul(els[:, None], els)
    for x in range(field.q):
        assert field.trace[x] == field_trace(field, x)
        assert field.neg(x) == from_coeffs(field, [-c for c in coeffs(field, x)])
        for y in range(field.q):
            assert add[x, y] == field_add(field, x, y)
            assert mul[x, y] == field_mul(field, x, y)


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
def test_galois_tables_match_frobenius_oracle_exhaustive(a):
    ring = GaloisRing(a)
    teich = [tuple(t) for t in ring.teichmuller.tolist()]
    pos = np.arange(ring.q)
    mul = ring.mul(pos[:, None], pos)
    for u in range(ring.q):
        assert ring.trace[u] == gr_trace(ring, teich[u])
        for v in range(ring.q):
            assert teich[mul[u, v]] == fields._poly_mul_mod(teich[u], teich[v], ring.modulus, 4)


# The modulus of every field the package has shipped, low degree first; the
# search must keep finding exactly these, or every element index moves.
MODULUS_TABLE = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (11, 4): (2, 1, 0, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (13, 4): (2, 0, 0, 0, 1),
}


def test_modulus_search_reproduces_the_pinned_table():
    assert {pa: default_modulus(*pa) for pa in MODULUS_TABLE} == MODULUS_TABLE


def test_modulus_table_is_lexicographically_first():
    # hand check for F_9: key 0 gives t^2 (root 0), key 1 gives t^2 + 1 which
    # has no roots since squares in F_3 are {0, 1}
    assert default_modulus(3, 2) == (1, 0, 1)
    # every table entry must be monic, irreducible, and minimal by base-p key
    for p, a in MODULUS_TABLE:
        mod = default_modulus(p, a)
        assert len(mod) == a + 1 and mod[-1] == 1
        assert fields._is_irreducible(mod, p)
        key = sum(c * p ** i for i, c in enumerate(mod[:-1]))
        for smaller in range(key):
            c, t = [], smaller
            for _ in range(a):
                c.append(t % p)
                t //= p
            assert not fields._is_irreducible(tuple(c) + (1,), p)


def test_field_construction_errors():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(3, 0)
    with pytest.raises(ValueError):
        FiniteField(3, 2, modulus=(2, 0, 1))  # t^2 + 2 = (t+1)(t+2)
    with pytest.raises(ValueError):
        FiniteField(3, 2, modulus=(1, 0, 2))  # not monic
    f3 = FiniteField(3)
    assert not (f3.mul(0, np.arange(3)) == 1).any()  # zero has no inverse


def test_largest_table_field_builds_fast():
    # only length-q vectors: q = 28,561 must not allocate q x q tables
    t0 = time.perf_counter()
    field = FiniteField(13, 4)
    assert time.perf_counter() - t0 < 2.0
    assert sorted(field.exp.tolist()) == list(range(1, field.q))
    assert field.trace[1] == 4  # Tr(1) = a mod p


def test_element_index_round_trip():
    f49 = FiniteField(7, 2)
    for i in range(49):
        assert from_coeffs(f49, f49.digits[i].tolist()) == i
        assert tuple(f49.digits[i].tolist()) == coeffs(f49, i)
    ring = ring_for_dimension(15)
    for i in range(15):
        assert ring.from_components(ring.components(i)) == i
    # factor-major: first factor most significant; 7 = 1*5 + 2 over F_3 + F_5
    assert ring.components(7) == [1, 2]


def test_product_ring_construction_rules():
    f3, f5, f9 = FiniteField(3), FiniteField(5), FiniteField(3, 2)
    with pytest.raises(ValueError):
        ProductRing([f5, f3])  # must ascend
    with pytest.raises(ValueError):
        ProductRing([f3, f9])  # repeated prime
    with pytest.raises(ValueError):
        ring_for_dimension(4)
    with pytest.raises(ValueError):
        ring_for_dimension(6)
    assert ring_for_dimension(45).d == 45
    assert [f.q for f in ring_for_dimension(45).factors] == [5, 9]


def _is_unit(ring, x):
    # invertible iff some y has x * y = 1
    return any(ring_op(ring, field_mul, x, y) == ring.one for y in range(ring.d))


def test_units_counts():
    assert ProductRing([FiniteField(3)]).units().tolist() == [1, 2]
    assert len(ring_for_dimension(15).units()) == 8
    ring9 = ring_for_dimension(9)
    assert len(ring9.units()) == 8
    # unit iff every component nonzero
    ring = ring_for_dimension(15)
    units = set(ring.units().tolist())
    for x in range(15):
        assert (x in units) == _is_unit(ring, x) == all(c != 0 for c in ring.components(x))


def _sub(ring, x, y):
    return ring.from_components(
        field_add(f, u, from_coeffs(f, [-c for c in coeffs(f, v)]))
        for f, u, v in zip(ring.factors, ring.components(x), ring.components(y)))


def test_unit_difference_set():
    ring15 = ring_for_dimension(15)
    s = unit_difference_set(ring15)
    assert len(s) == 2
    assert _is_unit(ring15, _sub(ring15, s[0], s[1]))
    assert s[0] == ring15.one
    assert unit_difference_set(ring_for_dimension(3)) == [1, 2]
    assert all(type(x) is int for x in s)
    ring45 = ring_for_dimension(45)
    s45 = unit_difference_set(ring45)
    assert len(s45) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert _is_unit(ring45, _sub(ring45, s45[i], s45[j]))


def test_generic_character_values():
    ring3 = ring_for_dimension(3)
    assert generic_character(ring3, 0) == 1
    assert abs(generic_character(ring3, 1) - np.exp(2j * np.pi / 3)) < 1e-12
    ring15 = ring_for_dimension(15)
    total = sum(generic_character(ring15, ring_op(ring15, field_mul, ring15.one, r))
                for r in range(15))
    assert abs(total) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 9, 15, 21, 25, 225])
def test_generic_character_genericity_exhaustive(d):
    # sum_r lambda(a r) = 0 for every nonzero a; the full table row a holds
    # exactly the values lambda(a r)
    ring = ring_for_dimension(d)
    table = fields.char_table(ring)
    sums = np.abs(table.sum(axis=1))
    assert sums[0] == pytest.approx(d)
    assert sums[1:].max() < 1e-10
    assert np.abs(np.abs(table) - 1).max() < 1e-12


def test_character_is_multiplicative_in_addition():
    ring = ring_for_dimension(21)
    rng = random.Random(3)
    for _ in range(100):
        x = rng.randrange(21)
        y = rng.randrange(21)
        lhs = generic_character(ring, ring_op(ring, field_add, x, y))
        assert abs(lhs - generic_character(ring, x) * generic_character(ring, y)) < 1e-12


def test_index_tables_match_element_arithmetic():
    ring = ring_for_dimension(15)
    add = fields.add_index_table(ring)
    neg = fields.neg_index_vector(ring)
    for i in range(15):
        for j in range(15):
            assert add[i, j] == ring_op(ring, field_add, i, j)
        assert neg[i] == _sub(ring, 0, i)
    a = 7
    mul = fields.mul_index_vector(ring, a)
    for i in range(15):
        assert mul[i] == ring_op(ring, field_mul, a, i)
    table = fields.char_table(ring)
    for i in range(15):
        for j in range(15):
            expected = generic_character(ring, ring_op(ring, field_mul, i, j))
            assert abs(table[i, j] - expected) < 1e-12


# ---------------------------------------------------------------------------
# Galois rings

def test_galois_ring_moduli():
    assert GaloisRing(1).modulus == (3, 1)
    assert GaloisRing(2).modulus == (1, 1, 1)
    assert GaloisRing(3).modulus == (3, 1, 2, 1)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_teichmuller_set(a):
    ring = GaloisRing(a)
    teich = [tuple(t) for t in ring.teichmuller.tolist()]
    one = (1,) + (0,) * (a - 1)
    assert ring.q == len(teich) == 2 ** a
    assert len(set(teich)) == 2 ** a
    assert teich[0] == (0,) * a and teich[1] == one

    def mul(u, v):
        return fields._poly_mul_mod(u, v, ring.modulus, 4)

    # the generator has multiplicative order exactly 2^a - 1
    if a >= 2:
        xi = teich[2]
        acc = one
        for j in range(1, 2 ** a):
            acc = mul(acc, xi)
            assert (acc == one) == (j == 2 ** a - 1)
    # closure: products of nonzero members stay in the set
    for u in teich[1:]:
        for v in teich[1:]:
            assert mul(u, v) in teich[1:]


def test_galois_trace():
    g1 = GaloisRing(1)
    for v in range(4):
        assert gr_trace(g1, (v,)) == v  # degree 1: identity on Z_4
    assert g1.trace.tolist() == [0, 1]
    g2 = GaloisRing(2)
    assert gr_trace(g2, (0, 0)) == 0 and g2.trace[0] == 0
    assert gr_trace(g2, (1, 0)) == 2 and g2.trace[1] == 2  # 1 + 1 over the two conjugates
    # additivity, exhaustive over all 16 x 16 pairs
    els = [(u, v) for u in range(4) for v in range(4)]
    for x in els:
        for y in els:
            xy = tuple((s + t) % 4 for s, t in zip(x, y))
            assert gr_trace(g2, xy) == (gr_trace(g2, x) + gr_trace(g2, y)) % 4
    assert galois_trace_z4(g2).tolist() == g2.trace.tolist()


def test_descriptors_round_trip():
    f9 = FiniteField(3, 2)
    assert f9.descriptor() == {"p": 3, "a": 2, "modulus": [1, 0, 1]}
    ring = ring_for_dimension(15)
    rebuilt = fields.ring_from_descriptor(ring.descriptor())
    assert rebuilt == ring
