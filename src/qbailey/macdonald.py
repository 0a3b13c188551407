"""The four series representations of the rank-one Macdonald-type index
for odd D-series Dynkin data, and both sides of the parametrized
single-sum/multisum identity and of the multisum Rogers-Ramanujan
identity.  The module builds series only: it returns each index and each
pair of sides, and the caller (cli.py) compares, labels and formats them.

Summation bounds are derived from exponent prefactors, never guessed:
a summand is enumerated only while its guaranteed minimum q- and
t-degree fits the caps, and the enumeration orders make those tails
monotone.  The fermionic multisum is the beta-delta side of the Bailey
transform, the lift bailey.chain_lift against t^n H_{2n}(z;q).  The
four representations are computed independently, sharing only the ring
kernel and the primitive builders, so that their equality is a genuine
cross-check; all outputs share one canonical term order so a difference
localizes to a single monomial.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .bailey import ChainParams, chain_lift, seed_pair
from .errors import DomainError, InternalConsistencyError
from .qfunctions import (binom2, combined_poch, hermite, infinite_product, inv_poch,
                         inv_qq, inv_poch_infinite, poch_finite, poch_infinite, ultraspherical)
from .series import TruncatedSeries, Truncation

# the four representations of the index; each name's builder is <name>_index
REPRESENTATIONS = ("bosonic", "fermionic", "fermionic2", "original")


class DynkinData(namedtuple("DynkinData", "k adjacency")):
    """Adjacency matrix of the odd D-series Dynkin diagram on 2k+1
    nodes: a path 1..(2k-1) with the two fork nodes 2k and 2k+1 both
    attached to node 2k-1.  original_index reads its summation order off
    this matrix by a walk from node 1, so the structure, not the node
    numbers, decides which entries are free and which are fixed.  A
    validated, immutable tuple (k, adjacency): construction refuses a
    matrix that is not square of size 2k+1, 0/1, symmetric and with a
    zero diagonal."""

    __slots__ = ()

    def __new__(cls, k: int, adjacency: tuple):
        size = 2 * k + 1
        if len(adjacency) != size or any(len(r) != size for r in adjacency):
            raise InternalConsistencyError("adjacency matrix has wrong shape")
        for i in range(size):
            if any(a not in (0, 1) for a in adjacency[i]):
                raise InternalConsistencyError("adjacency entries must be 0 or 1")
            if adjacency[i][i] != 0:
                raise InternalConsistencyError("adjacency diagonal must vanish")
            for j in range(size):
                if adjacency[i][j] != adjacency[j][i]:
                    raise InternalConsistencyError("adjacency must be symmetric")
        return super().__new__(cls, k, adjacency)

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
      * sum_j [2 n_k, j]_q z^(2j-2n_k),
    summed as sum_n beta_n t^n H_{2n}(z;q), beta the k-fold Bailey-lemma
    lift of the unit pair at b = c = 0 (Andrews, Pacific J. Math. 114 (1984))."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return _fermionic_side(ChainParams.of([0] * k, [0] * k), trunc)


@functools.cache
def _r_geometric(c: int, trunc: Truncation) -> TruncatedSeries:
    # sum_{r>=0} q^(r c) / ((t;q)_r (q;q)_r), truncated at r c <= max_q, memoized
    return TruncatedSeries.sum_of_products(
        trunc, ((inv_poch((1, 0, 1, 0, 0), r, trunc), inv_qq(r, trunc).shift(e_q=r * c))
                for r in range(trunc.max_q // c + 1)))


def fermionic2_index(k: int, trunc: Truncation) -> TruncatedSeries:
    """Second multisum representation with auxiliary geometric sums:
    (t,q;q)_inf^k * sum over r_1..r_k, s_1..s_k >= 0 of
    t^(sum s_i) q^(sum r_i (s_{i-1}+s_i+1)) /
      (prod (t,q;q)_{r_i} * prod (q;q)_{s_i}^2)
      * sum_{u1,u2} [s_k,u1]_q [s_k,u2]_q z^(2u1-2u2),  with s_0 = 0.

    Each r_i-sum is the memoized series G(s_{i-1}+s_i+1), G = _r_geometric,
    and the (u1,u2)-sum is H_{s_k}(z;q)^2.  The s-sums run one level at a
    time from F_0 = {0: 1}: F_i(s) = t^s/(q;q)_s^2 sum_p F_{i-1}(p) G(p+s+1),
    and the multisum is sum_s F_k(s) H_s^2.  A packed product costs about
    one bigint multiply per pair of (t, s, z)-rows, so F_k(s), wide in t
    and z, meets the narrow H_s^2 (2s+1 rows) once, rather than
    F_k(s) H_s, as wide as F_k(s), meeting H_s.  The prefactor keeps one
    product: multiplying its factors into the sum one at a time measured
    slower."""
    if k < 1:
        raise DomainError("k must be >= 1")
    squares = [inv_qq(s, trunc) ** 2 for s in range(trunc.max_t + 1)]     # 1/(q;q)_s^2
    level = [TruncatedSeries.one(trunc)]
    for _ in range(k):
        next_level = []
        for s in range(trunc.max_t + 1):
            # F_{i-1}(p) t^s is past the t-cap once p + s > max_t; t^s
            # goes on F_{i-1}(p), so no term past the t-cap is formed
            inner = TruncatedSeries.sum_of_products(
                trunc, ((f.shift(e_t=s), _r_geometric(p + s + 1, trunc))
                        for p, f in enumerate(level[:trunc.max_t - s + 1])))
            next_level.append(inner * squares[s])
        level = next_level
    total = TruncatedSeries.sum_of_products(
        trunc, ((f, hermite(s, trunc) ** 2) for s, f in enumerate(level)))
    pref = infinite_product(((1, 0, 1, 0, 0), (1, 1, 0, 0, 0)), (), trunc) ** k
    return pref * total


def original_index(k: int, trunc: Truncation) -> TruncatedSeries:
    """Dynkin-data form of the second multisum: a sum over two index
    vectors (l, m) tied by Kronecker deltas, with the q-exponent built
    from the adjacency quadratic form sum a_ij l_i m_j / 2.

    _dynkin_walk, the one structural check, splits the tree into its
    two colour classes: the rho nodes, with l = m = rho free, and the
    fixed nodes, with l = m = s at a path node and l = (u1, sigma - u1),
    m = (u2, sigma - u2) at the two fork nodes.  So the quadratic form
    has no rho-rho and no fixed-fixed term.  The sum over one rho entry
    is then the node sum S(w) = sum_r q^(r w/2) / (t,q;q)_r of its
    doubled weight w = sum_j a_rj (l_j + m_j) + 2 over its fixed
    neighbours j, read off the adjacency and checked even, which makes
    every exponent integral.

    A rho node couples only its fixed neighbours, so the sum is done one
    node at a time along the tree (variable elimination), in the walk's
    order.  A path fixed node with l = m = s gives t^s/(q;q)_s^2, and
    from Phi = {0: 1} its level is
    Phi'(s') = t^s'/(q;q)_s'^2 sum_s Phi(s) S(w(s, s')), one
    sum_of_products per s'.  The last rho node carries the fork.  Its
    weight is linear in (u1, u2), and a unit of either moves it by
    a_(r,2k) - a_(r,2k+1), which is -1, 0 or 1, so it is read at (0,0)
    and (1,0): any dependence on the fork entries makes it odd at (1,0).
    The (u1, u2)-sum then splits into t^sigma L_sigma flip_z(L_sigma), with
    L_sigma = sum_u z^(-2(sigma-u)) / ((q;q)_u (q;q)_(sigma-u)) over the
    l-entries of the fork nodes, and z^(2(m_(2k+1) - l_(2k+1))) read at
    the second one.  Nothing here uses the level sums of
    fermionic2_index, so this stays an independent witness."""
    if k < 1:
        raise DomainError("k must be >= 1")
    adj = DynkinData.build(k).adjacency
    path, (last, (a, b)) = _dynkin_walk(adj)

    def weight(r, entries):
        # sum_j a_rj (l_j + m_j) + 2 over the fixed entries (j, l_j, m_j)
        w = sum(adj[r][j] * (l + m) for j, l, m in entries) + 2
        if w % 2:
            raise InternalConsistencyError(
                f"odd weight {w} of rho node {r + 1} at the fixed entries "
                f"{[(j + 1, l, m) for j, l, m in entries]}")
        return w

    factor = [inv_poch((1, 0, 1, 0, 0), r, trunc) * inv_qq(r, trunc)    # 1/(t,q;q)_r
              for r in range(trunc.max_q + 1)]
    node_sum = functools.cache(lambda w: _node_sum(w, factor, trunc))
    square = functools.cache(lambda s: inv_qq(s, trunc) * inv_qq(s, trunc))
    # Phi(s) carries t^s, so the entries past the t-cap are skipped; the
    # t-power of the next node goes on Phi(s) before its product.  Node 1
    # has no fixed node before it, so Phi starts as {0: 1}.
    cap = trunc.max_t
    level, before = [TruncatedSeries.one(trunc)], []
    for r, fixed in path:
        level = [TruncatedSeries.sum_of_products(
            trunc, ((phi.shift(e_t=s2),
                     node_sum(weight(r, [(j, s, s) for j in before] + [(fixed, s2, s2)])))
                    for s, phi in enumerate(level[:cap - s2 + 1]))) * square(s2)
            for s2 in range(cap + 1)]
        before = [fixed]
    pairs = []
    for sigma in range(cap + 1):
        inner = []
        for s, phi in enumerate(level[:cap - sigma + 1]):
            path_entries = [(j, s, s) for j in before]
            # odd if the weight depends on the fork entries
            weight(last, path_entries + [(a, 1, 0), (b, sigma - 1, sigma)])
            w = weight(last, path_entries + [(a, 0, 0), (b, sigma, sigma)])
            inner.append((phi.shift(e_t=sigma), node_sum(w)))
        # L_sigma over the l-entries (u, sigma - u) of the fork nodes; the
        # m-side of the fork sum is its z-mirror
        l_side = TruncatedSeries.sum_of_products(
            trunc, ((inv_qq(u, trunc).shift(e_z=2 * (u - sigma)), inv_qq(sigma - u, trunc))
                    for u in range(sigma + 1)))
        pairs.append((TruncatedSeries.sum_of_products(trunc, inner), l_side * l_side.flip_z()))
    pref = infinite_product(((1, 0, 1, 0, 0), (1, 1, 0, 0, 0)), (), trunc) ** k
    return pref * TruncatedSeries.sum_of_products(trunc, pairs)


def _dynkin_walk(adj):
    # the elimination order read off the adjacency: from node 1 (1-based),
    # the end of the path, the pairs (rho node, its fixed neighbour ahead)
    # up to the rho node whose two neighbours ahead are leaves, returned
    # with those fork nodes.  Every node the walk passes has no neighbour
    # but the one behind and the one ahead, and the walk must reach every
    # node, so each rho node couples only its two slots.
    size = len(adj)
    nbrs = [[j for j in range(size) if adj[i][j]] for i in range(size)]
    path, rho, behind = [], 0, None
    while True:
        ahead = [j for j in nbrs[rho] if j != behind]
        if len(ahead) == 2 and all(nbrs[j] == [rho] for j in ahead):
            break
        if len(ahead) != 1:
            raise InternalConsistencyError(
                f"rho node {rho + 1} has the neighbours {[j + 1 for j in ahead]} "
                f"ahead, not one path node or two fork nodes")
        fixed = ahead[0]
        beyond = [j for j in nbrs[fixed] if j != rho]
        if len(beyond) != 1:
            raise InternalConsistencyError(
                f"the walk along the path cannot continue at node {fixed + 1}")
        path.append((rho, fixed))
        behind, rho = fixed, beyond[0]
    if 2 * len(path) + 3 != size:
        raise InternalConsistencyError(
            f"the walk from node 1 reaches {2 * len(path) + 3} of the {size} nodes")
    return path, (rho, tuple(ahead))


def _node_sum(w, factor, trunc):
    # S(w) = sum_r factor[r] q^(r w/2) for an even weight w >= 2; a term
    # starts at q^(r w/2), so the sum stops at the q-cap and a weight
    # above 2 max_q leaves factor[0] = 1
    half = w // 2
    return sum((factor[r].shift(e_q=r * half) for r in range(1, trunc.max_q // half + 1)),
               factor[0])


def generalized_sides(k: int, b, c,
                      trunc: Truncation) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the parametrized single-sum/multisum identity,
    computed independently.  b and c are length-k vectors of ints and
    Fractions; zeros are allowed, and at b = c = 0 the sides are
    fermionic_index and bosonic_index."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if len(b) != k or len(c) != k:
        raise DomainError("parameter vectors must have length k")
    params = ChainParams.of(b, c)
    return _fermionic_side(params, trunc), _bosonic_side(k, params.b, params.c, trunc)


def _fermionic_side(params, trunc):
    # sum_n beta_n t^n H_{2n}(z;q), beta the k-fold Bailey-lemma lift of
    # the unit pair with the parameter pairs (b_i, c_i); t^n past the
    # t-cap ends the sum
    _, beta = chain_lift(*seed_pair(trunc), params, trunc)
    return TruncatedSeries.sum_of_products(
        trunc, ((beta[n].shift(e_t=n), hermite(2 * n, trunc))
                for n in range(trunc.max_t + 1)))


def _bosonic_side(k, b, c, trunc):
    # 1/(t,tz^2,t z^-2;q)_inf * sum_n (-1)^n t^((k+1)n) q^(k n + binom(n,2))
    #   (q^(n+1);q)_n (t^2 q^(2n);q)_inf / ((t q^n;q)_n (t q^(2n+1);q)_inf)
    #   * prod_i P(b_i, n) P(c_i, n) / (b_i q t, c_i q t;q)_n * C_{2n}(z,t;q).
    # A zero's P is (-1)^n q^binom(n,2) and its Pochhammers are 1, folded into
    # the leading monomial (reading combined_poch(0, n) instead measured 7-8%
    # slower); at b = c = 0 its q-exponent is k n^2 + binom(n,2).
    # A packed product costs about one bigint multiply per pair of
    # (t, s, z)-rows, so the three Euler factors, one row per power of t,
    # go into the sum one at a time: their product has (max_t + 1)^2
    # rows (169 at (16,12)) and would meet the wide sum in one product.
    params = [x for x in (*b, *c) if x]
    fold = 1 + 2 * k - len(params)          # binom(n,2) multiples in the exponent
    pairs = []
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
        pairs.append((val, ultraspherical(2 * n, trunc, "t")))
        n += 1
    total = TruncatedSeries.sum_of_products(trunc, pairs)
    for base in ((1, 0, 1, 0, 0), (1, 0, 1, 0, 2), (1, 0, 1, 0, -2)):
        total = total * infinite_product((), (base,), trunc)
    return total


def multi_rogers_ramanujan(k: int, max_q: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the multisum Rogers-Ramanujan identity in the single
    variable q, over Truncation(max_q, 0):
    sum over chains of q^(n_1^2+...+n_k^2) / ((q;q)_{n_k-n_{k-1}} ...)
      = (1/(q;q)_inf) sum_{n in Z} (-1)^n q^((k+1)n^2 + binom(n,2))."""
    if k < 1:
        raise DomainError("k must be >= 1")
    trunc = Truncation(max_q, 0)
    # the chains n_1 <= ... <= n_k are summed one level at a time from
    # F_0 = {0: 1}: F_i(m) = sum_{n <= m} F_(i-1)(n) q^(m^2)/(q;q)_(m-n),
    # one sum_of_products per m up to m^2 <= max_q, and the multisum is
    # sum_m F_k(m).  q^(m^2) goes on the narrow 1/(q;q)_(m-n).
    level = [TruncatedSeries.one(trunc)]
    for _ in range(k):
        level = [TruncatedSeries.sum_of_products(
            trunc, ((f, inv_qq(m - n, trunc).shift(e_q=m * m))
                    for n, f in enumerate(level[:m + 1])))
            for m in range(math.isqrt(max_q) + 1)]
    lhs = sum(level[1:], level[0])

    # the exponents are distinct for distinct n, so each is one term
    reach = int(math.isqrt(max_q // (k + 1))) + 2
    exps = ((n, (k + 1) * n * n + binom2(n)) for n in range(-reach, reach + 1))
    bilateral = TruncatedSeries(trunc, {(e, 0, 0, 0): -1 if n % 2 else 1
                                        for n, e in exps if e <= max_q})
    return lhs, inv_poch_infinite((1, 1, 0, 0, 0), trunc) * bilateral

