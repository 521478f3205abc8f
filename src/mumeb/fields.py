"""Exact arithmetic in finite fields F_{p^a}, Galois rings GR(4,a), and products of fields.

A ring element is its canonical integer index and nothing else: base-p
coefficient digits (low degree first) for a field, the position in the
Teichmuller set for GR(4,a), and factor-major mixed radix for a product ring
(first factor most significant).  Each field keeps length-q vectors (digits,
exp/log of the least primitive element, and the trace), so its arithmetic is
a vectorised lookup on ints or index arrays: addition adds digits mod p,
multiplication adds logs mod q - 1, and the trace sums the Frobenius images
x^(p^k), whose logs are p^k log x (Lidl & Niederreiter, Finite Fields).
"""

import math
from functools import lru_cache
from itertools import product as iter_product

import numpy as np


def factor_into_prime_powers(n):
    """Factor n into prime powers, returned as (p, a) pairs sorted by p**a."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            a = 0
            while m % f == 0:
                m //= f
                a += 1
            out.append((f, a))
        f += 1
    if m > 1:
        out.append((m, 1))
    out.sort(key=lambda pa: pa[0] ** pa[1])
    return out

def prime_power_split(n):
    """Return (p, a) if n = p^a for a single prime p, else None."""
    if n < 2:
        return None
    parts = factor_into_prime_powers(n)
    if len(parts) == 1:
        return parts[0]
    return None


def is_prime(n):
    return n >= 2 and factor_into_prime_powers(n) == [(n, 1)]


# ---------------------------------------------------------------------------
# polynomial helpers over F_p, coefficients low degree first

def _poly_mul_mod(u, v, modulus, m):
    a = len(modulus) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % m
    rem = _poly_rem(prod, modulus, m)
    return tuple(rem + [0] * (a - len(rem)))


def _poly_rem(num, den, p):
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _is_irreducible(coeffs, p):
    # monic over F_p; trial division by every monic divisor of degree <= a/2
    a = len(coeffs) - 1
    if a == 1:
        return True
    for deg in range(1, a // 2 + 1):
        for den in _monic(p, deg):
            if not any(_poly_rem(coeffs, den, p)):
                return False
    return True


def _monic(m, a):
    """Every monic polynomial of degree a over Z_m, ascending by the base-m
    integer of its non-leading coefficients."""
    for tail in iter_product(range(m), repeat=a):
        yield tail[::-1] + (1,)


def default_modulus(p, a):
    """The lexicographically first monic irreducible of degree a over F_p,
    keyed by the base-p integer of its non-leading coefficients; this fixes
    the element indexing of every field."""
    return next(cand for cand in _monic(p, a) if _is_irreducible(cand, p))


class FiniteField:
    """F_{p^a} as polynomial residues modulo a monic irreducible of degree a.

    digits[x] are the coefficients of x, exp[m] = index(g^m) for the least
    primitive element g, log inverts exp on the units (log[0] is unused), and
    trace[x] = Tr(x) in Z_p.
    """

    def __init__(self, p, a=1, modulus=None):
        if a < 1:
            raise ValueError("exponent must be positive")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if modulus is None:
            modulus = default_modulus(p, a)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != a + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree a")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.a = a
        self.modulus = modulus
        self.q = p ** a
        self._place = p ** np.arange(a)
        self.digits = np.arange(self.q)[:, None] // self._place % p
        for g in range(1, self.q):  # stop at the least primitive element
            self.exp = self._powers(g)
            # the powers of g cycle, so they are distinct iff 1 (index 1)
            # comes back only at g^(q-1)
            if np.count_nonzero(self.exp == 1) == 1:
                break
        self.log = np.zeros(self.q, dtype=np.int64)
        self.log[self.exp] = np.arange(self.q - 1)
        self.trace = field_trace(self)

    def _powers(self, g):
        """index(g^m) for m = 0..q-2, doubling the run each step: g^(n+i) = g^n g^i."""
        p = self.p
        # row c holds the coefficients of g * t^c, so v @ mat multiplies v by g
        mat = np.array([_poly_mul_mod(self.digits[g].tolist(), row, self.modulus, p)
                        for row in np.eye(self.a, dtype=int).tolist()])
        pows = np.zeros((self.q - 1, self.a), dtype=np.int64)
        pows[0, 0] = 1
        n = 1
        while n < self.q - 1:
            m = min(n, self.q - 1 - n)
            pows[n:n + m] = pows[:m] @ mat % p
            mat = mat @ mat % p
            n += m
        return pows @ self._place

    def add(self, x, y):
        return ((self.digits[x] + self.digits[y]) % self.p) @ self._place

    def neg(self, x):
        return (-self.digits[x] % self.p) @ self._place

    def mul(self, x, y):
        x, y = np.asarray(x), np.asarray(y)
        prod = self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]
        return np.where((x == 0) | (y == 0), 0, prod)

    def descriptor(self):
        return {"p": self.p, "a": self.a, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and self.p == other.p
                and self.a == other.a and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __repr__(self):
        return f"FiniteField(p={self.p}, a={self.a})"


def _frobenius_trace(powers, logs, p, m):
    """Trace down to Z_m of zero and of every unit, the sum of its a Frobenius
    images g^e -> g^(e p): powers[e] holds the a coefficients of g^e for a
    generator g of the units, and logs[i] is the e of the (i + 1)-th element."""
    n, a = powers.shape
    total = np.zeros((n + 1, a), dtype=np.int64)
    e = logs
    for _ in range(a):
        total[1:] += powers[e]
        e = e * p % n
    total %= m
    if total[:, 1:].any():
        raise AssertionError(f"trace left Z_{m}")
    return total[:, 0]


def field_trace(field):
    """Trace down to the prime field of every element, x + x^p + ... + x^(p^(a-1)) mod p."""
    return _frobenius_trace(field.digits[field.exp], field.log[1:], field.p, field.p)


# ---------------------------------------------------------------------------
# Galois ring GR(4,a) = Z_4[x] / (modulus)

class GaloisRing:
    """The Teichmuller set T_a = {0, 1, x, ..., x^(q-2)} of GR(4,a), q = 2^a.

    The modulus is the lexicographically first monic degree-a polynomial over
    Z_4 whose mod-2 reduction is irreducible and whose root x has
    multiplicative order q - 1.  A Teichmuller element is its position in
    T_a: 0 for zero and e + 1 for x^e.  teichmuller[i] holds the Z_4
    coefficients of position i and trace[i] its trace down to Z_4.
    """

    def __init__(self, a):
        if a < 1:
            raise ValueError("exponent must be positive")
        self.a = a
        self.q = 2 ** a
        self.modulus, self.teichmuller = self._find_modulus(a)
        self.trace = galois_trace_z4(self)

    @staticmethod
    def _find_modulus(a):
        """The modulus and the Teichmuller rows 0, 1, x, ..., x^(q-2), read off
        the walk through the powers of the root x that accepts the modulus.

        A power of x is one int holding its a Z_4 coefficients in 3-bit
        fields, so multiplying by x is a shift plus the top coefficient c
        times x^a = -(cand_0 + ... + cand_(a-1) x^(a-1)), then each field
        mod 4, which also drops the shifted-out field: two coefficients sum
        to at most 6, so no field carries into the next.
        """
        q = 2 ** a
        top = 3 * (a - 1)
        low = sum(3 << 3 * i for i in range(a))  # the two low bits of fields 0..a-1
        irreducible = {}  # mod-2 reduction -> whether it is irreducible
        for cand in _monic(4, a):
            reduced = tuple(ci % 2 for ci in cand)
            if reduced not in irreducible:
                irreducible[reduced] = _is_irreducible(reduced, 2)
            if not irreducible[reduced]:
                continue
            wrap = [sum((-c * ci) % 4 << 3 * i for i, ci in enumerate(cand[:-1]))
                    for c in range(4)]  # c x^a, reduced
            # require x^(q - 1) = 1 and no smaller power, so that the powers
            # of x enumerate the Teichmuller set
            powers, power = [], 1
            while len(powers) < q - 1:
                powers.append(power)
                power = (power << 3) + wrap[power >> top] & low
                if power == 1:
                    break
            if power == 1 and len(powers) == q - 1:
                rows = np.array([0] + powers)[:, None] >> 3 * np.arange(a) & 3
                return cand, rows.astype(np.int64)
        raise RuntimeError(f"no basic irreducible modulus for GR(4,{a})")

    def mul(self, u, v):
        """Product of Teichmuller positions: x^e x^f = x^((e + f) mod (q - 1))."""
        u, v = np.asarray(u), np.asarray(v)
        return np.where((u == 0) | (v == 0), 0, (u + v - 2) % (self.q - 1) + 1)

    def __repr__(self):
        return f"GaloisRing(4, {self.a})"


def galois_trace_z4(ring):
    """Trace GR(4,a) -> Z_4 of every Teichmuller position.  The Frobenius
    squares a Teichmuller element, so Tr(x^e) = sum_k x^(e 2^k)."""
    return _frobenius_trace(ring.teichmuller[1:], np.arange(ring.q - 1), 2, 4)


# ---------------------------------------------------------------------------
# product rings R = F_{q_1} + ... + F_{q_s}

class ProductRing:
    """Direct sum of finite fields with strictly ascending sizes q_1 <= ... <= q_s.

    components(x) splits a ring index (or index array) into per-factor field
    indices, and from_components joins them back.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        sizes = [f.q for f in factors]
        if sizes != sorted(sizes):
            raise ValueError("factors must be sorted by ascending size")
        primes = [f.p for f in factors]
        if len(set(primes)) != len(primes):
            raise ValueError("factor primes must be distinct")
        self.factors = factors
        self.d = math.prod(sizes)
        self._strides = [math.prod(sizes[t + 1:]) for t in range(len(sizes))]
        self.one = self.from_components([1] * len(factors))

    def components(self, x):
        return [x // stride % f.q for f, stride in zip(self.factors, self._strides)]

    def from_components(self, parts):
        return sum(c * stride for c, stride in zip(parts, self._strides))

    def units(self):
        """All invertible elements (every component nonzero), ascending."""
        x = np.arange(self.d)
        return x[np.all([c != 0 for c in self.components(x)], axis=0)]

    def descriptor(self):
        return {"factors": [f.descriptor() for f in self.factors]}

    def __eq__(self, other):
        return isinstance(other, ProductRing) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"ProductRing(d={self.d}, factors={[f.q for f in self.factors]})"


def ring_from_descriptor(desc):
    factors = [FiniteField(f["p"], f["a"], f.get("modulus")) for f in desc["factors"]]
    return ProductRing(factors)


@lru_cache(maxsize=None)
def ring_for_dimension(d):
    """Canonical product ring of size d for the entangled-basis constructions.

    Factors are the prime-power parts of d in ascending order.  Only odd d is
    accepted: the constructions need 2 to be invertible in the ring.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"d={d} unsupported: d must be odd and at least 3")
    return ProductRing([FiniteField(p, a) for p, a in factor_into_prime_powers(d)])


def unit_difference_set(ring):
    """The aligned-unit set S with |S| = q_1 - 1 and all pairwise differences units.

    S runs the i-th nonzero element of every factor in parallel (the canonical
    injections F_{q_1}^* -> F_{q_t}^* send the i-th unit to the i-th unit), so
    distinct members differ in every component.  1 is always a member.
    """
    return [ring.from_components([i] * len(ring.factors))
            for i in range(1, ring.factors[0].q)]


# ---------------------------------------------------------------------------
# d x d and length-d index tables used by the dense construction/verification code

@lru_cache(maxsize=None)
def add_index_table(ring):
    """d x d table of index(x + y)."""
    comps = ring.components(np.arange(ring.d))
    return ring.from_components(f.add(c[:, None], c) for f, c in zip(ring.factors, comps))


@lru_cache(maxsize=None)
def neg_index_vector(ring):
    """index(-x) for every x."""
    comps = ring.components(np.arange(ring.d))
    return ring.from_components(f.neg(c) for f, c in zip(ring.factors, comps))


def mul_index_vector(ring, a):
    """index(a * x) for every x, for a fixed ring index a; for a column
    a[:, None] of indices, one such row per entry of a."""
    comps = ring.components(np.arange(ring.d))
    return ring.from_components(f.mul(ca, c)
                                for f, ca, c in zip(ring.factors, ring.components(a), comps))


@lru_cache(maxsize=None)
def char_table(ring):
    """d x d complex table of lambda(x * y); symmetric, row/col by canonical index."""
    phase = np.zeros((ring.d, ring.d))
    for f, c in zip(ring.factors, ring.components(np.arange(ring.d))):
        phase += f.trace[f.mul(c[:, None], c)] / f.p
    return np.exp(2j * np.pi * phase)
