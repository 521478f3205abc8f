"""Lower bounds on the number of pairwise-unbiased maximally entangled bases
of C^d (x) C^kd reachable by the constructions in this package.

The d-by-d family contributes m_dd = 2(q_1 - 1) with q_1 the least
prime-power factor of d (odd d; the same count is reported for d = 2^m,
where the construction lives outside this package).  For k >= 2 the k side
offers q'_1 + 1 flat blocks, and for square k = x^2 also N_MOLS(x) + 2 net
bases; the final bound is the best k-side value capped by m_dd.
"""

from dataclasses import asdict, dataclass

from . import fields

# published square counts beyond prime powers and the MacNeish product;
# x >= 76 always admits at least 6
_LITERATURE_NMOLS = {26: 4}
_LITERATURE_FLOOR_AT = 76


@dataclass
class BoundBreakdown:
    d: int
    k: int
    m_dd: int
    pp_bound: int | None
    mols_bound: int | None
    mols_provenance: str | None
    combined: int
    rule: str

    def to_dict(self):
        """The fields plus the prime-power factors of d and of k (none for k = 1)."""
        k_factors = fields.factor_into_prime_powers(self.k) if self.k >= 2 else []
        return {**asdict(self),
                "d_factors": [[p, a] for p, a in fields.factor_into_prime_powers(self.d)],
                "k_factors": [[p, a] for p, a in k_factors]}


def bound_dd(d):
    """2(q_1 - 1) for odd d or d = 2^m; other even d is out of range."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if d % 2:
        parts = fields.factor_into_prime_powers(d)
        return 2 * (parts[0][0] ** parts[0][1] - 1)
    split = fields.prime_power_split(d)
    if split and split[0] == 2:
        return 2 * (d - 1)
    raise ValueError(f"d={d} unsupported: no bound known for even d that is not a power of 2")


def nmols_lower(x, imported=None):
    """Best known-here lower bound on N_MOLS(x) with its provenance tag.

    Sources: exact x - 1 for prime powers, the built-in literature entries,
    the MacNeish product min(q_i) - 1, and an optional imported square count.
    """
    if x < 2:
        raise ValueError("order must be at least 2")
    candidates = []
    if fields.prime_power_split(x):
        candidates.append((x - 1, 0, "prime-power"))
    else:
        parts = fields.factor_into_prime_powers(x)
        candidates.append((min(p ** a for p, a in parts) - 1, 3, "macneish"))
    if imported is not None:
        candidates.append((int(imported), 1, "imported"))
    if x in _LITERATURE_NMOLS:
        candidates.append((_LITERATURE_NMOLS[x], 2, "literature"))
    if x >= _LITERATURE_FLOOR_AT:
        candidates.append((6, 2, "literature"))
    value, _, tag = max(candidates, key=lambda c: (c[0], -c[1]))
    return value, tag


def bound_dkd(d, k, imported_mols=None):
    """Breakdown of the lower bound on unbiased maximally entangled bases of
    C^d (x) C^kd.  imported_mols, when given, is (order, count) from a
    validated squares file and feeds the N_MOLS table."""
    if k < 1:
        raise ValueError("k must be at least 1")
    m_dd = bound_dd(d)
    if k == 1:
        return BoundBreakdown(d, k, m_dd, None, None, None, m_dd, "dd")

    parts = fields.factor_into_prime_powers(k)
    pp_bound = parts[0][0] ** parts[0][1] + 1
    mols_bound = None
    provenance = None
    x = int(round(k ** 0.5))
    if x * x == k and x >= 2:
        imported = None
        if imported_mols is not None and imported_mols[0] == x:
            imported = imported_mols[1]
        nm, provenance = nmols_lower(x, imported)
        mols_bound = nm + 2
        k_side = max(pp_bound, mols_bound)
        rule = "mols-net" if mols_bound > pp_bound else "prime-power"
    else:
        k_side = pp_bound
        rule = "prime-power"
    combined = min(k_side, m_dd)
    if combined < k_side:
        rule = "dd-cap"
    return BoundBreakdown(d, k, m_dd, pp_bound, mols_bound, provenance, combined, rule)
