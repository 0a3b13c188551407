"""The four series representations of the rank-one Macdonald-type index
for odd D-series Dynkin data, the parametrized single-sum/multisum
identity, and the multisum Rogers-Ramanujan identity.

Summation bounds are derived from exponent prefactors, never guessed:
a summand is enumerated only while its guaranteed minimum q- and
t-degree fits the caps, and the enumeration orders make those tails
monotone.  The four representations are computed independently so that
their equality is a genuine cross-check, and all outputs share one
canonical term order so a difference localizes to a single monomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .errors import DomainError, InternalConsistencyError
from .qfunctions import (binom2, combined_poch, hermite, inv_poch, inv_qq,
                         inv_poch_infinite, poch_finite, poch_infinite, qt_poch,
                         ultraspherical)
from .report import IdentityReport, Stopwatch, series_report
from .series import TruncatedSeries, Truncation

# the four representations of the index; each name's builder is <name>_index
REPRESENTATIONS = ("bosonic", "fermionic", "fermionic2", "original")


@dataclass(frozen=True)
class DynkinData:
    """Adjacency matrix of the odd D-series Dynkin diagram on 2k+1
    nodes: a path 1..(2k-1) with the two fork nodes 2k and 2k+1 both
    attached to node 2k-1."""

    k: int
    adjacency: tuple

    @classmethod
    def build(cls, k: int) -> "DynkinData":
        if k < 1:
            raise DomainError("k must be >= 1")
        size = 2 * k + 1
        a = [[0] * size for _ in range(size)]
        for i in range(2 * k - 2):          # path edges 1-2, ..., (2k-2)-(2k-1)
            a[i][i + 1] = a[i + 1][i] = 1
        a[2 * k - 2][2 * k - 1] = a[2 * k - 1][2 * k - 2] = 1   # fork edge to 2k
        a[2 * k - 2][2 * k] = a[2 * k][2 * k - 2] = 1           # fork edge to 2k+1
        return cls(k, tuple(tuple(row) for row in a))

    def __post_init__(self):
        size = 2 * self.k + 1
        if len(self.adjacency) != size or any(len(r) != size for r in self.adjacency):
            raise InternalConsistencyError("adjacency matrix has wrong shape")
        for i in range(size):
            if any(a not in (0, 1) for a in self.adjacency[i]):
                raise InternalConsistencyError("adjacency entries must be 0 or 1")
            if self.adjacency[i][i] != 0:
                raise InternalConsistencyError("adjacency diagonal must vanish")
            for j in range(size):
                if self.adjacency[i][j] != self.adjacency[j][i]:
                    raise InternalConsistencyError("adjacency must be symmetric")

    def edges(self) -> set[tuple[int, int]]:
        """1-based edge set {(i, j) : i < j, a_ij = 1}."""
        size = 2 * self.k + 1
        return {(i + 1, j + 1) for i in range(size) for j in range(i + 1, size)
                if self.adjacency[i][j]}


@functools.cache
def _tq_qq_inf_power(k: int, trunc: Truncation) -> TruncatedSeries:
    # ((t;q)_inf (q;q)_inf)^k, memoized
    return (poch_infinite((1, 0, 1, 0, 0), trunc) * poch_infinite((1, 1, 0, 0, 0), trunc)) ** k


def bosonic_index(k: int, trunc: Truncation) -> TruncatedSeries:
    """Single-sum (alternating, product-prefactored) representation:
    1/(t,tz^2,t z^-2;q)_inf * sum_n (-1)^n t^((k+1)n) q^(k n^2 + binom(n,2))
      (q^(n+1);q)_n (t^2 q^(2n);q)_inf / ((t q^n;q)_n (t q^(2n+1);q)_inf)
      * sum_j (t;q)_j (t;q)_{2n-j} / ((q;q)_j (q;q)_{2n-j}) z^(2j-2n),
    the j-sum being C_{2n}(z,t;q)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return _bosonic_side(k, [0] * k, [0] * k, trunc)


def fermionic_index(k: int, trunc: Truncation) -> TruncatedSeries:
    """Multisum ("exclusion") representation over chains
    n_k >= ... >= n_1 >= 0:
    t^(sum n_i) q^(n_1^2+...+n_{k-1}^2) / ((q;q)_{n_k-n_{k-1}} ... (q;q)_{n_1})
      * sum_j [2 n_k, j]_q z^(2j-2n_k)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return _fermionic_side(k, [0] * k, [0] * k, trunc)


@functools.cache
def _r_geometric(c: int, trunc: Truncation) -> TruncatedSeries:
    # sum_{r>=0} q^(r c) / ((t;q)_r (q;q)_r), truncated at r c <= max_q, memoized
    total = TruncatedSeries.zero(trunc)
    r = 0
    while r * c <= trunc.max_q:
        total = total + (inv_poch((1, 0, 1, 0, 0), r, trunc) * inv_qq(r, trunc)).shift(e_q=r * c)
        r += 1
    return total


def fermionic2_index(k: int, trunc: Truncation) -> TruncatedSeries:
    """Second multisum representation with auxiliary geometric sums:
    (t,q;q)_inf^k * sum over r_1..r_k, s_1..s_k >= 0 of
    t^(sum s_i) q^(sum r_i (s_{i-1}+s_i+1)) /
      (prod (t,q;q)_{r_i} * prod (q;q)_{s_i}^2)
      * sum_{u1,u2} [s_k,u1]_q [s_k,u2]_q z^(2u1-2u2),  with s_0 = 0.

    The r-sums factor per level into memoized one-dimensional series, and
    the (u1,u2)-sum is H_{s_k}(z;q)^2."""
    if k < 1:
        raise DomainError("k must be >= 1")
    total = TruncatedSeries.zero(trunc)
    for svec in _svectors(k, trunc.max_t):
        val = TruncatedSeries.monomial(trunc, 1, e_t=sum(svec))
        s_full = (0,) + svec
        for i in range(k):
            val = val * _r_geometric(s_full[i] + s_full[i + 1] + 1, trunc)
            val = val * inv_qq(svec[i], trunc) ** 2
        h = hermite(svec[-1], trunc)
        total = total + val * h * h
    return _tq_qq_inf_power(k, trunc) * total


def _svectors(k: int, cap: int):
    # all tuples (s_1..s_k) of nonnegative ints with sum <= cap, in
    # lexicographic order
    return (v for v in product(range(cap + 1), repeat=k) if sum(v) <= cap)


def original_index(k: int, trunc: Truncation) -> TruncatedSeries:
    """Dynkin-data form of the second multisum: a sum over two index
    vectors (l, m) tied by Kronecker deltas, with the q-exponent built
    from the adjacency quadratic form sum a_ij l_i m_j / 2.

    The entries at the nodes 1, 3, ..., 2k-1 (1-based) form one free
    vector rho with l = m = rho; svec, u1 and u2 fix all the others.  For
    each such block the exponents are read off the adjacency as doubled
    integers: a constant over pairs of fixed nodes, one weight per rho
    node and the rho-rho couplings give the doubled q-exponent, and the
    fixed entries the doubled t-exponent.  They are checked even once per
    block, which makes every exponent of the block integral.  Blocks with
    the same exponent data share one rho-sum, enumerated depth first and
    cut off exactly at max_q.  Nothing here uses the factored r-sums of
    fermionic2_index, so this stays an independent witness of the
    adjacency data rather than a restatement of the factored multisum."""
    if k < 1:
        raise DomainError("k must be >= 1")
    adj = DynkinData.build(k).adjacency
    rho_nodes = range(0, 2 * k, 2)                  # 1-based 1, 3, ..., 2k-1
    fixed_nodes = [j for j in range(2 * k + 1) if j % 2 or j == 2 * k]
    # rho-rho couplings a_ij (j < i); the same for every block of this call
    couplings = tuple(tuple(adj[r][p] for p in rho_nodes[:i])
                      for i, r in enumerate(rho_nodes))
    factor = [inv_poch((1, 0, 1, 0, 0), r, trunc) * inv_qq(r, trunc)    # 1/(t,q;q)_r
              for r in range(trunc.max_q + 1)]
    rho_sums: dict = {}
    total = TruncatedSeries.zero(trunc)
    for svec in _svectors(k, trunc.max_t):
        sigma_k = svec[-1]
        for u1 in range(sigma_k + 1):
            for u2 in range(sigma_k + 1):
                l, m = _fixed_entries(k, svec, u1, u2)
                const2 = sum(adj[i][j] * l[i] * m[j]
                             for i in fixed_nodes for j in fixed_nodes)
                weights = tuple(sum(adj[r][j] * (l[j] + m[j]) for j in fixed_nodes) + 2
                                for r in rho_nodes)
                e_t2 = sum(l[j] + m[j] for j in fixed_nodes)
                if const2 % 2 or e_t2 % 2 or any(w % 2 for w in weights):
                    raise InternalConsistencyError(
                        f"non-integral exponent for l={l}, m={m}: doubled q-constant "
                        f"{const2}, rho weights {weights}, doubled t-exponent {e_t2}")
                if e_t2 > 2 * trunc.max_t:
                    continue
                # the couplings are the same for the whole call, and for
                # the D-series graph the weights do not depend on (u1, u2)
                key = (const2, weights)
                rho_sum = rho_sums.get(key)
                if rho_sum is None:
                    rho_sum = rho_sums[key] = _rho_sum(
                        const2, weights, couplings, factor, trunc)
                fixed = TruncatedSeries.one(trunc)
                for j in fixed_nodes:
                    fixed = fixed * inv_qq(l[j], trunc) * inv_qq(m[j], trunc)
                total = total + rho_sum.shift(
                    e_t=e_t2 // 2, e_z=2 * (m[2 * k] - l[2 * k])) * fixed
    return _tq_qq_inf_power(k, trunc) * total


def _fixed_entries(k, svec, u1, u2):
    # l and m with the entries that svec, u1 and u2 fix; rho entries are 0
    l = [0] * (2 * k + 1)
    m = [0] * (2 * k + 1)
    for i in range(k - 1):
        l[2 * i + 1] = m[2 * i + 1] = svec[i]   # l_{2i} (1-based) = s_i
    sigma_k = svec[-1]
    l[2 * k - 1] = u1                           # l_{2k}
    m[2 * k - 1] = u2                           # m_{2k}
    l[2 * k] = sigma_k - u1                     # l_{2k+1}
    m[2 * k] = sigma_k - u2                     # m_{2k+1}
    return l, m


def _rho_sum(const2, weights, couplings, factor, trunc):
    # sum over rho of q^(e/2) prod_i factor[rho_i], with the doubled
    # exponent e = const2 + sum_i rho_i (w_i + 2 sum_{j<i} a_ij rho_j).
    # Adjacency entries are 0 or 1, so every w_i >= 2 and every increment
    # grows with rho_i: a level stops at the first rho_i that takes e past
    # 2 max_q, and the pruning is exact.
    budget = 2 * trunc.max_q

    def descend(rho, e2, val):
        # val = q^(e2/2) times the factors of the entries of rho
        i = len(rho)
        if i == len(weights):
            return val
        slope = weights[i] + 2 * sum(a * r for a, r in zip(couplings[i], rho))
        total = TruncatedSeries.zero(trunc)
        r = 0
        while e2 + r * slope <= budget:
            step = val if r == 0 else val * factor[r].shift(e_q=r * slope // 2)
            total = total + descend(rho + (r,), e2 + r * slope, step)
            r += 1
        return total

    return descend((), const2, TruncatedSeries.monomial(trunc, 1, e_q=const2 // 2))


def generalized_sides(k: int, b, c,
                      trunc: Truncation) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the parametrized single-sum/multisum identity,
    computed independently.  b and c are length-k rational vectors;
    zeros are allowed, and at b = c = 0 the sides are fermionic_index and
    bosonic_index."""
    if k < 1:
        raise DomainError("k must be >= 1")
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    if len(b) != k or len(c) != k:
        raise DomainError("parameter vectors must have length k")
    return _fermionic_side(k, b, c, trunc), _bosonic_side(k, b, c, trunc)


def _fermionic_side(k, b, c, trunc):
    # sum over chains n_1 <= ... <= n_k (n_0 = 0) of
    #   t^(sum n_i) q^(n_1+...+n_{k-1}) H_{2n_k}(z;q)
    #   * prod_i (b_i c_i q t;q)_{n_i-n_{i-1}}
    #            / ((q;q)_{n_i-n_{i-1}} (b_i q t, c_i q t;q)_{n_i})
    #   * prod_{i>1} P(b_i, n_{i-1}) P(c_i, n_{i-1}),   P = combined_poch.
    # A zero parameter's P is the monomial (-1)^n q^binom(n,2), folded into
    # the leading monomial, and its Pochhammers are 1.  Every other factor
    # starts at q^0, so the leading q-exponent is the exact pruning bound.
    params = [[x for x in (b[i], c[i]) if x] for i in range(k)]
    zeros = [0] + [2 - len(p) for p in params[1:]]
    total = TruncatedSeries.zero(trunc)
    for chain in combinations_with_replacement(range(trunc.max_t + 1), k):
        e_t = sum(chain)
        lower = (0,) + chain[:-1]
        e_q = sum(n + z * binom2(n) for z, n in zip(zeros, lower))
        if e_t > trunc.max_t or e_q > trunc.max_q:
            continue
        sign = -1 if sum(z * n for z, n in zip(zeros, lower)) % 2 else 1
        val = TruncatedSeries.monomial(trunc, sign, e_q=e_q, e_t=e_t)
        for i, (prev, n) in enumerate(zip(lower, chain)):
            val = val * inv_qq(n - prev, trunc)
            if len(params[i]) == 2:
                val = val * qt_poch(b[i] * c[i], n - prev, trunc)
            for x in params[i]:
                val = val * inv_poch((x, 1, 1, 0, 0), n, trunc)     # 1/(x q t;q)_n
                if i:
                    val = val * combined_poch(x, prev, trunc)
        total = total + val * hermite(2 * chain[-1], trunc)
    return total


def _bosonic_side(k, b, c, trunc):
    # 1/(t,tz^2,t z^-2;q)_inf * sum_n (-1)^n t^((k+1)n) q^(k n + binom(n,2))
    #   (q^(n+1);q)_n (t^2 q^(2n);q)_inf / ((t q^n;q)_n (t q^(2n+1);q)_inf)
    #   * prod_i P(b_i, n) P(c_i, n) / (b_i q t, c_i q t;q)_n * C_{2n}(z,t;q).
    # Zero parameters fold into the leading monomial as in _fermionic_side;
    # at b = c = 0 its q-exponent is k n^2 + binom(n,2).
    params = [x for x in (*b, *c) if x]
    fold = 1 + 2 * k - len(params)          # binom(n,2) multiples in the exponent
    pref = (inv_poch_infinite((1, 0, 1, 0, 0), trunc) * inv_poch_infinite((1, 0, 1, 0, 2), trunc)
            * inv_poch_infinite((1, 0, 1, 0, -2), trunc))
    total = TruncatedSeries.zero(trunc)
    n = 0
    while True:
        e_q, e_t = k * n + fold * binom2(n), (k + 1) * n
        if e_t > trunc.max_t or e_q > trunc.max_q:
            break
        mono = TruncatedSeries.monomial(trunc, -1 if fold * n % 2 else 1, e_q=e_q, e_t=e_t)
        val = (mono * poch_finite((1, n + 1, 0, 0, 0), n, trunc)
               * poch_infinite((1, 2 * n, 2, 0, 0), trunc) * inv_poch((1, n, 1, 0, 0), n, trunc)
               * inv_poch_infinite((1, 2 * n + 1, 1, 0, 0), trunc))
        for x in params:
            val = val * combined_poch(x, n, trunc) * inv_poch((x, 1, 1, 0, 0), n, trunc)
        total = total + val * ultraspherical(2 * n, trunc, "t")
        n += 1
    return pref * total


def generalized_identity(k: int, b, c, trunc: Truncation) -> IdentityReport:
    """Compare the two independently computed sides of the parametrized
    identity."""
    watch = Stopwatch()
    lhs, rhs = generalized_sides(k, b, c, trunc)
    b = [Fraction(x) for x in b]
    c = [Fraction(x) for x in c]
    params = {"k": k,
              "b": [f"{x.numerator}/{x.denominator}" for x in b],
              "c": [f"{x.numerator}/{x.denominator}" for x in c]}
    return series_report("parametrized-duality", lhs, rhs, params, watch)


def multi_rogers_ramanujan(k: int, max_q: int) -> IdentityReport:
    """Multisum Rogers-Ramanujan identity in the single variable q:
    sum over chains of q^(n_1^2+...+n_k^2) / ((q;q)_{n_k-n_{k-1}} ...)
      = (1/(q;q)_inf) sum_{n in Z} (-1)^n q^((k+1)n^2 + binom(n,2))."""
    if k < 1:
        raise DomainError("k must be >= 1")
    watch = Stopwatch()
    trunc = Truncation(max_q, 0)
    lhs = TruncatedSeries.zero(trunc)
    for chain in combinations_with_replacement(range(math.isqrt(max_q) + 1), k):
        qexp = sum(v * v for v in chain)
        if qexp > max_q:
            continue
        val = TruncatedSeries.monomial(trunc, 1, e_q=qexp)
        val = val * inv_qq(chain[0], trunc)
        for a, bb in zip(chain, chain[1:]):
            val = val * inv_qq(bb - a, trunc)
        lhs = lhs + val

    bilateral = TruncatedSeries.zero(trunc)
    reach = int(math.isqrt(max_q // (k + 1))) + 2
    for n in range(-reach, reach + 1):
        e = (k + 1) * n * n + binom2(n)
        if e <= max_q:
            bilateral = bilateral + TruncatedSeries.monomial(
                trunc, -1 if n % 2 else 1, e_q=e)
    rhs = inv_poch_infinite((1, 1, 0, 0, 0), trunc) * bilateral
    return series_report("multisum-rogers-ramanujan", lhs, rhs,
                         {"k": k, "max_q": max_q}, watch)


def specialize_index(f: TruncatedSeries, mode: str) -> TruncatedSeries:
    """Standard specializations: schur (t -> q; needs max_t >= max_q),
    hall-littlewood (q -> 0), unrefined (z -> 1)."""
    if mode == "schur":
        return f.specialize("t", "q")
    if mode == "hall-littlewood":
        return f.specialize("q", 0)
    if mode == "unrefined":
        return f.specialize("z", 1)
    raise DomainError(f"unknown specialization mode {mode!r}")


def coefficient_rows(f: TruncatedSeries) -> list[tuple[int, int, int, int, int]]:
    """Coefficient table rows (e_q, e_t, e_z, num, den) in canonical
    monomial order.  Index series carry no s-exponent."""
    rows = []
    for mono, coeff in f.terms():
        if mono.e_s != 0:
            raise DomainError("coefficient tables are for s-free series")
        num, den = (coeff, 1) if isinstance(coeff, int) else \
            (coeff.numerator, coeff.denominator)
        rows.append((mono.e_q, mono.e_t, mono.e_z, num, den))
    return rows


def rows_to_csv(rows) -> str:
    return "".join(f"{eq},{et},{ez},{num},{den}\n" for eq, et, ez, num, den in rows)


def rows_to_json_obj(rows) -> dict:
    return {"columns": ["e_q", "e_t", "e_z", "num", "den"],
            "rows": [list(r) for r in rows]}
