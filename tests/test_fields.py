import random

import numpy as np
import pytest

from mumeb import fields
from mumeb.fields import (FiniteField, GaloisRing, ProductRing, default_modulus,
                          factor_into_prime_powers, field_trace, galois_trace_z4,
                          is_prime, prime_power_split, ring_for_dimension,
                          unit_difference_set)
from oracles import generic_character

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


def _mult_index_table(field):
    els = field.elements()
    return np.array([[(a * b).index for b in els] for a in els], dtype=np.int64)


@pytest.mark.parametrize("p,a", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, a):
    field = FiniteField(p, a)
    m = _mult_index_table(field)
    assert (m == m.T).all()                       # commutative
    left = m[m, :]                                # left[a,b,c] = (ab)c
    right = np.empty_like(left)
    for ai in range(field.q):
        right[ai] = m[ai][m]                      # right[a,b,c] = a(bc)
    assert (left == right).all()
    one_idx = field.one.index
    assert one_idx == 1
    # every nonzero element has an inverse: row contains 1 against some unit
    assert all(any(m[i, j] == one_idx for j in range(1, field.q))
               for i in range(1, field.q))


@pytest.mark.parametrize("p,a", BIG_FIELDS)
def test_field_axioms_randomized(p, a):
    field = FiniteField(p, a)
    rng = random.Random(20240 + p * 10 + a)
    for _ in range(10_000):
        x = field.element(rng.randrange(field.q))
        y = field.element(rng.randrange(field.q))
        z = field.element(rng.randrange(field.q))
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
    for _ in range(200):
        x = field.element(rng.randrange(1, field.q))
        assert x * x.inverse() == field.one


@pytest.mark.parametrize("p,a", SMALL_FIELDS)
def test_trace_surjective_with_even_fibers(p, a):
    field = FiniteField(p, a)
    counts = {}
    for x in field.elements():
        counts[field_trace(x)] = counts.get(field_trace(x), 0) + 1
    assert sorted(counts) == list(range(p))
    assert all(c == p ** (a - 1) for c in counts.values())


def test_trace_examples():
    f3 = FiniteField(3)
    assert field_trace(f3.zero) == 0
    assert field_trace(f3.one) == 1
    f9 = FiniteField(3, 2)
    assert f9.modulus == (1, 0, 1)
    t = f9.element(3)  # coefficient vector (0, 1)
    # independent oracle: t^3 = t * t^2 and t^2 = -1 under this modulus,
    # so the trace t + t^3 = t - t = 0
    t3 = t * t * t
    assert t3 == -t
    assert field_trace(t) == 0


def test_trace_additive():
    f27 = FiniteField(3, 3)
    rng = random.Random(7)
    for _ in range(300):
        x = f27.element(rng.randrange(27))
        y = f27.element(rng.randrange(27))
        assert field_trace(x + y) == (field_trace(x) + field_trace(y)) % 3


def test_modulus_table_is_lexicographically_first():
    # hand check for F_9: key 0 gives t^2 (root 0), key 1 gives t^2 + 1 which
    # has no roots since squares in F_3 are {0, 1}
    assert default_modulus(3, 2) == (1, 0, 1)
    # every table entry must be monic, irreducible, and minimal by base-p key
    for p, a in SMALL_FIELDS + BIG_FIELDS:
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
    f3, f5 = FiniteField(3), FiniteField(5)
    with pytest.raises(ValueError):
        f3.one + f5.one
    with pytest.raises(ZeroDivisionError):
        f3.zero.inverse()


def test_element_index_round_trip():
    f49 = FiniteField(7, 2)
    for i in range(49):
        assert f49.element(i).index == i
    ring = ring_for_dimension(15)
    for i in range(15):
        assert ring.element(i).index == i
    # factor-major: first factor most significant; 7 = 1*5 + 2 over F_3 + F_5
    el = ring.element(7)
    assert [p.index for p in el.parts] == [1, 2]


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


def test_units_counts():
    assert [u.index for u in FiniteField(3).units()] == [1, 2]
    assert len(ring_for_dimension(15).units()) == 8
    ring9 = ring_for_dimension(9)
    assert len(ring9.units()) == 8
    # unit iff every component nonzero
    ring = ring_for_dimension(15)
    for x in ring.elements():
        assert x.is_unit == all(not p.is_zero for p in x.parts)


def test_unit_difference_set():
    ring15 = ring_for_dimension(15)
    s = unit_difference_set(ring15)
    assert len(s) == 2
    assert (s[0] - s[1]).is_unit
    assert s[0] == ring15.one
    assert unit_difference_set(ring_for_dimension(3)) == [
        ring_for_dimension(3).element(1), ring_for_dimension(3).element(2)]
    ring45 = ring_for_dimension(45)
    s45 = unit_difference_set(ring45)
    assert len(s45) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert (s45[i] - s45[j]).is_unit


def test_generic_character_values():
    ring3 = ring_for_dimension(3)
    assert generic_character(ring3.zero) == 1
    assert abs(generic_character(ring3.element(1)) - np.exp(2j * np.pi / 3)) < 1e-12
    ring15 = ring_for_dimension(15)
    total = sum(generic_character(ring15.one * r) for r in ring15.elements())
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
        x = ring.element(rng.randrange(21))
        y = ring.element(rng.randrange(21))
        lhs = generic_character(x + y)
        assert abs(lhs - generic_character(x) * generic_character(y)) < 1e-12


def test_index_tables_match_element_arithmetic():
    ring = ring_for_dimension(15)
    add = fields.add_index_table(ring)
    neg = fields.neg_index_vector(ring)
    for i in range(15):
        for j in range(15):
            assert add[i, j] == (ring.element(i) + ring.element(j)).index
        assert neg[i] == (-ring.element(i)).index
    a = ring.element(7)
    mul = fields.mul_index_vector(ring, a)
    for i in range(15):
        assert mul[i] == (a * ring.element(i)).index
    table = fields.char_table(ring)
    for i in range(15):
        for j in range(15):
            expected = generic_character(ring.element(i) * ring.element(j))
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
    teich = ring.teichmuller
    assert len(teich) == 2 ** a
    assert len(set(teich)) == 2 ** a
    assert teich[0] == ring.zero and teich[1] == ring.one
    # the generator has multiplicative order exactly 2^a - 1
    if a >= 2:
        xi = teich[2]
        acc = ring.one
        for j in range(1, 2 ** a):
            acc = ring.mul(acc, xi)
            assert (acc == ring.one) == (j == 2 ** a - 1)
    # closure: products of nonzero members stay in the set
    for u in teich[1:]:
        for v in teich[1:]:
            assert ring.mul(u, v) in teich[1:]


def test_galois_trace():
    g1 = GaloisRing(1)
    for v in range(4):
        assert galois_trace_z4(g1, (v,)) == v  # degree 1: identity on Z_4
    g2 = GaloisRing(2)
    assert galois_trace_z4(g2, g2.zero) == 0
    assert galois_trace_z4(g2, g2.one) == 2  # 1 + 1 over the two conjugates
    # additivity, exhaustive over all 16 x 16 pairs
    els = [(u, v) for u in range(4) for v in range(4)]
    for x in els:
        for y in els:
            assert galois_trace_z4(g2, g2.add(x, y)) == \
                (galois_trace_z4(g2, x) + galois_trace_z4(g2, y)) % 4


def test_descriptors_round_trip():
    f9 = FiniteField(3, 2)
    assert f9.descriptor() == {"p": 3, "a": 2, "modulus": [1, 0, 1]}
    ring = ring_for_dimension(15)
    rebuilt = fields.ring_from_descriptor(ring.descriptor())
    assert rebuilt == ring
