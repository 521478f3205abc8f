"""Exact arithmetic in finite fields F_{p^a}, Galois rings GR(4,a), and products of fields.

Elements are immutable; a field element is a coefficient tuple over F_p
(low degree first), an element of a product ring is a tuple of field
elements, one per factor.  Every element has a canonical integer index:
base-p digits for a field, factor-major mixed radix for a product ring
(first factor most significant).
"""

from functools import lru_cache
from itertools import product as iter_product

import numpy as np


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


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


# ---------------------------------------------------------------------------
# polynomial helpers over F_p, coefficients low degree first

def _poly_mul_mod(u, v, modulus, m):
    a = len(modulus) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % m
    for deg in range(len(prod) - 1, a - 1, -1):
        c = prod[deg]
        if c:
            for i in range(a + 1):
                prod[deg - a + i] = (prod[deg - a + i] - c * modulus[i]) % m
    prod = prod[:a]
    prod += [0] * (a - len(prod))
    return tuple(prod)


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
        for tail in iter_product(range(p), repeat=deg):
            den = list(tail) + [1]
            if not any(_poly_rem(coeffs, den, p)):
                return False
    return True


# Lexicographically first monic irreducible of degree a over F_p, keyed by the
# base-p integer of the non-leading coefficients.  Fixed table keeps element
# indexing reproducible; the search below regenerates any entry and extends
# past the table.
_MODULUS_TABLE = {
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


def default_modulus(p, a):
    if (p, a) in _MODULUS_TABLE:
        return _MODULUS_TABLE[(p, a)]
    for key in range(p ** a):
        c, t = [], key
        for _ in range(a):
            c.append(t % p)
            t //= p
        cand = tuple(c) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class FieldElement:
    """Element of a FiniteField; supports +, -, *, unary -, ** and inverse()."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldElement(self.field, (-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, _poly_mul_mod(self.coeffs, other.coeffs, f.modulus, f.p))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        return self ** (self.field.q - 2)

    @property
    def is_zero(self):
        return not any(self.coeffs)

    @property
    def index(self):
        """Canonical integer index: base-p value of the coefficient digits."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.a, self.coeffs))

    def __repr__(self):
        return f"FieldElement(q={self.field.q}, index={self.index})"


class FiniteField:
    """F_{p^a} as polynomial residues modulo a monic irreducible of degree a."""

    def __init__(self, p, a=1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if a < 1:
            raise ValueError("exponent must be positive")
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
        self.zero = FieldElement(self, (0,) * a)
        one = [0] * a
        one[0] = 1
        self.one = FieldElement(self, one)

    def element(self, index):
        """Element whose base-p digits (low to high) are the coefficients."""
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for q={self.q}")
        digits = []
        for _ in range(self.a):
            digits.append(index % self.p)
            index //= self.p
        return FieldElement(self, digits)

    def elements(self):
        return [self.element(i) for i in range(self.q)]

    def units(self):
        """Nonzero elements in canonical index order."""
        return [self.element(i) for i in range(1, self.q)]

    def descriptor(self):
        return {"p": self.p, "a": self.a, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and self.p == other.p
                and self.a == other.a and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __repr__(self):
        return f"FiniteField(p={self.p}, a={self.a})"


def field_trace(x):
    """Trace down to the prime field: x + x^p + ... + x^(p^(a-1)), as an int mod p."""
    f = x.field
    total = f.zero
    cur = x
    for _ in range(f.a):
        total = total + cur
        cur = cur ** f.p
    # the trace lands in the prime subfield, so only the constant term survives
    if any(total.coeffs[1:]):
        raise AssertionError("trace left the prime subfield")
    return total.coeffs[0]


# ---------------------------------------------------------------------------
# Galois ring GR(4,a) = Z_4[x] / (modulus)

class GaloisRing:
    """GR(4,a) with a fixed basic irreducible modulus and its Teichmuller set.

    Elements are coefficient tuples of length a over Z_4.  The modulus is the
    lexicographically first monic degree-a polynomial over Z_4 whose mod-2
    reduction is irreducible and whose root x has multiplicative order 2^a - 1,
    so the Teichmuller set is T_a = {0, 1, x, ..., x^(2^a - 2)}.
    """

    def __init__(self, a):
        if a < 1:
            raise ValueError("exponent must be positive")
        self.a = a
        self.modulus = self._find_modulus(a)
        self.zero = (0,) * a
        one = [0] * a
        one[0] = 1
        self.one = tuple(one)
        self.teichmuller = self._build_teichmuller()
        self._teich_pos = {t: i for i, t in enumerate(self.teichmuller)}

    @staticmethod
    def _find_modulus(a):
        for key in range(4 ** a):
            c, t = [], key
            for _ in range(a):
                c.append(t % 4)
                t //= 4
            cand = tuple(c) + (1,)
            if not _is_irreducible(tuple(ci % 2 for ci in cand), 2):
                continue
            # require x^(2^a - 1) = 1 so powers of x enumerate the Teichmuller set
            one = (1,) + (0,) * (a - 1)
            x = ((0, 1) + (0,) * (a - 2)) if a >= 2 else ((-cand[0]) % 4,)
            acc = one
            ok = True
            for j in range(1, 2 ** a):
                acc = _poly_mul_mod(acc, x, cand, 4)
                if acc == one and j < 2 ** a - 1:
                    ok = False
                    break
            if ok and acc == one:
                return cand
        raise RuntimeError(f"no basic irreducible modulus for GR(4,{a})")

    def _build_teichmuller(self):
        a = self.a
        x = ((0, 1) + (0,) * (a - 2)) if a >= 2 else ((-self.modulus[0]) % 4,)
        out = [self.zero, self.one]
        cur = x
        for _ in range(2 ** a - 2):
            out.append(cur)
            cur = self.mul(cur, x)
        return out

    def add(self, u, v):
        return tuple((a + b) % 4 for a, b in zip(u, v))

    def mul(self, u, v):
        return _poly_mul_mod(u, v, self.modulus, 4)

    def scale(self, c, u):
        return tuple((c * a) % 4 for a in u)

    def _teichmuller_lift(self, residue):
        # unique Teichmuller element with the given mod-2 reduction
        for t in self.teichmuller:
            if tuple(c % 2 for c in t) == residue:
                return t
        raise ValueError("no Teichmuller lift")

    def frobenius(self, u):
        """phi(a + 2b) = a^2 + 2b^2 for the 2-adic decomposition a, b Teichmuller."""
        ta = self._teichmuller_lift(tuple(c % 2 for c in u))
        diff = tuple((c - d) % 4 for c, d in zip(u, ta))
        tb = self._teichmuller_lift(tuple((c // 2) % 2 for c in diff))
        return self.add(self.mul(ta, ta), self.scale(2, self.mul(tb, tb)))

    def descriptor(self):
        return {"p": 2, "a": self.a, "modulus": list(self.modulus), "ring": "GR4"}

    def __repr__(self):
        return f"GaloisRing(4, {self.a})"


def galois_trace_z4(ring, x):
    """Frobenius-sum trace GR(4,a) -> Z_4."""
    total = ring.zero
    cur = x
    for _ in range(ring.a):
        total = ring.add(total, cur)
        cur = ring.frobenius(cur)
    if any(total[1:]):
        raise AssertionError("trace left Z_4")
    return total[0]


# ---------------------------------------------------------------------------
# product rings R = F_{q_1} + ... + F_{q_s}

class ProductRingElement:
    __slots__ = ("ring", "parts")

    def __init__(self, ring, parts):
        parts = tuple(parts)
        if len(parts) != len(ring.factors):
            raise ValueError("wrong number of components")
        self.ring = ring
        self.parts = parts

    def _check(self, other):
        if not isinstance(other, ProductRingElement) or other.ring != self.ring:
            raise ValueError("elements belong to different rings")

    def __add__(self, other):
        self._check(other)
        return ProductRingElement(self.ring, (a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other):
        self._check(other)
        return ProductRingElement(self.ring, (a - b for a, b in zip(self.parts, other.parts)))

    def __neg__(self):
        return ProductRingElement(self.ring, (-a for a in self.parts))

    def __mul__(self, other):
        self._check(other)
        return ProductRingElement(self.ring, (a * b for a, b in zip(self.parts, other.parts)))

    @property
    def is_unit(self):
        return all(not p.is_zero for p in self.parts)

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.parts)

    def inverse(self):
        if not self.is_unit:
            raise ZeroDivisionError("not a unit")
        return ProductRingElement(self.ring, (p.inverse() for p in self.parts))

    @property
    def index(self):
        """Factor-major mixed-radix index; the first factor is most significant."""
        v = 0
        for part, factor in zip(self.parts, self.ring.factors):
            v = v * factor.q + part.index
        return v

    def __eq__(self, other):
        return (isinstance(other, ProductRingElement)
                and self.ring == other.ring and self.parts == other.parts)

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"ProductRingElement(d={self.ring.d}, index={self.index})"


class ProductRing:
    """Direct sum of finite fields with strictly ascending sizes q_1 <= ... <= q_s."""

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
        self.d = 1
        for f in factors:
            self.d *= f.q
        self.zero = ProductRingElement(self, (f.zero for f in factors))
        self.one = ProductRingElement(self, (f.one for f in factors))

    def element(self, index):
        if not 0 <= index < self.d:
            raise ValueError(f"index {index} out of range for d={self.d}")
        parts = []
        for f in reversed(self.factors):
            parts.append(f.element(index % f.q))
            index //= f.q
        return ProductRingElement(self, reversed(parts))

    def element_from_parts(self, parts):
        return ProductRingElement(self, parts)

    def elements(self):
        return [self.element(i) for i in range(self.d)]

    def units(self):
        """All invertible elements, ascending by canonical index."""
        return [x for x in self.elements() if x.is_unit]

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
    q1 = ring.factors[0].q
    out = []
    for i in range(1, q1):
        out.append(ring.element_from_parts(f.element(i) for f in ring.factors))
    return out


# ---------------------------------------------------------------------------
# integer index tables (numpy) used by the dense construction/verification code

def _factor_indices(ring):
    d = ring.d
    idx = []
    stride = d
    for f in ring.factors:
        stride //= f.q
        idx.append(((np.arange(d) // stride) % f.q, stride))
    return idx


@lru_cache(maxsize=None)
def add_index_table(ring):
    """d x d table of index(x + y)."""
    table = np.zeros((ring.d, ring.d), dtype=np.int64)
    for (idx, stride), f in zip(_factor_indices(ring), ring.factors):
        els = f.elements()
        local = np.array([[(a + b).index for b in els] for a in els], dtype=np.int64)
        table += local[np.ix_(idx, idx)] * stride
    return table


@lru_cache(maxsize=None)
def neg_index_vector(ring):
    """index(-x) for every x."""
    vec = np.zeros(ring.d, dtype=np.int64)
    for (idx, stride), f in zip(_factor_indices(ring), ring.factors):
        local = np.array([(-a).index for a in f.elements()], dtype=np.int64)
        vec += local[idx] * stride
    return vec


def mul_index_vector(ring, a):
    """index(a * x) for every x, for a fixed ring element a."""
    vec = np.zeros(ring.d, dtype=np.int64)
    for (idx, stride), part, f in zip(_factor_indices(ring), a.parts, ring.factors):
        local = np.array([(part * x).index for x in f.elements()], dtype=np.int64)
        vec += local[idx] * stride
    return vec


@lru_cache(maxsize=None)
def char_table(ring):
    """d x d complex table of lambda(x * y); symmetric, row/col by canonical index."""
    phase = np.zeros((ring.d, ring.d))
    for (idx, stride), f in zip(_factor_indices(ring), ring.factors):
        els = f.elements()
        tr = np.array([[field_trace(a * b) for b in els] for a in els], dtype=np.int64)
        phase += tr[np.ix_(idx, idx)] / f.p
    return np.exp(2j * np.pi * phase)
