"""q-Pochhammer symbols, q-binomials, the two orthogonal polynomial
families on the unit circle, and the constant-term functional.

Every Pochhammer base is one monomial, passed as the tuple
(c, e_q, e_t, e_s, e_z) for c q^e_q t^e_t s^e_s z^e_z, c an int or a
Fraction: any other c is refused before a memo table is read, since a
float equal to a cached exact c would hit its table.  Products are
binomial updates of 1 and inverses are binomial divisions or Euler's
series, so no series is inverted.  An infinite product stops at the
q-cap, past which every factor is 1.  Integrals of symmetric Laurent
series against d(theta)/pi are realized as z-constant-term extraction;
ct_z(a, b) checks the symmetry hypothesis on each factor rather than
trusting the caller, and forms only the z^0 terms of a * b, from the
z-slices of a and b whose exponents cancel (TruncatedSeries.z_slices).

The memoized builders are wrapped in functools.cache, keyed by their
arguments including the truncation; cached series are shared between
callers, which is safe because series are immutable.  Each table's
cache_info() and cache_clear() report on and empty it.  Every finite
Pochhammer-type product is a read of one prefix table per base, kind and
truncation, kept in the cache of _prefixes.  The four kinds are (a;q)_n
(poch_finite), 1/(a;q)_n (inv_poch), (a;q)_j / (q;q)_j (poch_ratio) and
prod_{i<n} (b - q^i) (combined_poch).  Every n-free product of infinite
Pochhammers, (a_1,...;q)_inf / (b_1,...;q)_inf, is a read of
infinite_product, kept in the cache of _infinite_product keyed by its
two tuples of bases in their order; the orthogonality weights and the
package's prefactors are such reads.  These two reads check their bases
before they read a table.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError, NonInvertible
from .series import TruncatedSeries, Truncation


def _exact(x):
    """x itself if it is an int or a Fraction.  A float base coefficient
    or chain parameter is refused: it would enter the exact ring as its
    binary expansion, or read a table cached under an equal exact key."""
    if not isinstance(x, (int, Fraction)):
        raise DomainError(f"bases and parameters must be int or Fraction, "
                          f"got {type(x).__name__} {x!r}")
    return x


def binom2(n: int) -> int:
    """binom(n, 2) = n(n-1)/2, the q-exponent of (-1)^n q^binom(n,2)."""
    return n * (n - 1) // 2


@functools.cache
def _prefixes(a: tuple, step, trunc: Truncation) -> list:
    # [1, step(1, a, 0), step(step(1, a, 0), a, 1), ...], extended on demand by _prefix
    return [TruncatedSeries.one(trunc)]


def _prefix(a: tuple, n: int, trunc: Truncation, step) -> TruncatedSeries:
    # entry n of base a's table of the kind step, entry k + 1 = step(entry k, a, k);
    # n and a[0] are checked before the read: 0.5 would hit Fraction(1, 2)'s table
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"a finite Pochhammer needs an int n >= 0, got {n!r}")
    _exact(a[0])
    table = _prefixes(a, step, trunc)
    while len(table) <= n:
        table.append(step(table[-1], a, len(table) - 1))
    return table[n]


def _times(p, a, k):        # p (1 - a q^k), the step of (a;q)_n
    return p.mul_binomial(a[0], a[1] + k, *a[2:])


def _over(p, a, k):         # p / (1 - a q^k), the step of 1/(a;q)_n
    return p.div_binomial(a[0], a[1] + k, *a[2:])


def _ratio(p, a, k):        # p (1 - a q^k) / (1 - q^(k+1)), the step of (a;q)_j / (q;q)_j
    return _times(p.div_binomial(1, k + 1), a, k)


def _less_q(p, b, k):       # p (b - q^k) for the base (b,), the step of prod_{i<n} (b - q^i)
    return p.scale(b[0]) - p.shift(k)


def poch_finite(a: tuple, n: int, trunc: Truncation) -> TruncatedSeries:
    """(a;q)_n = prod_{k=0}^{n-1} (1 - a q^k) for the monomial
    a = (c, e_q, e_t, e_s, e_z) and n >= 0, memoized: binomial updates
    of 1."""
    return _prefix(a, n, trunc, _times)


def poch_infinite(a: tuple, trunc: Truncation) -> TruncatedSeries:
    """(a;q)_inf for the monomial a: the factors past the q-cap are 1."""
    return poch_finite(a, max(trunc.max_q + 1 - a[1], 0), trunc)


def inv_poch_infinite(a: tuple, trunc: Truncation) -> TruncatedSeries:
    """1/(a;q)_inf for the monomial a, by Euler's series
    sum_n a^n / (q;q)_n.  The powers of a vanish modulo the caps unless
    a is a nonzero base of (q,t,s)-degree 0, which is not a unit."""
    c, e_q, e_t, e_s, e_z = a
    if _exact(c) and not (e_q or e_t or e_s):
        raise NonInvertible(f"(a;q)_inf with a = {c} z^{e_z} is not a unit")
    base = TruncatedSeries.monomial(trunc, *a)
    pairs = []
    power = TruncatedSeries.one(trunc)
    while not power.is_zero():
        pairs.append((power, inv_qq(len(pairs), trunc)))
        power = power * base
    return TruncatedSeries.sum_of_products(trunc, pairs)


def infinite_product(num: tuple, den: tuple, trunc: Truncation) -> TruncatedSeries:
    """(num;q)_inf / (den;q)_inf for tuples of monomial bases, memoized:
    (a;q)_inf for each a in num, then 1/(b;q)_inf for each b in den,
    multiplied in the order given.  The bases are checked before the
    table read."""
    for a in num + den:
        _exact(a[0])
    return _infinite_product(num, den, trunc)


@functools.cache
def _infinite_product(num: tuple, den: tuple, trunc: Truncation) -> TruncatedSeries:
    product = TruncatedSeries.one(trunc)
    for a in num:
        product = product * poch_infinite(a, trunc)
    for b in den:
        product = product * inv_poch_infinite(b, trunc)
    return product


def combined_poch(b, n: int, trunc: Truncation) -> TruncatedSeries:
    """prod_{i<n} (b - q^i) for rational b: (1/b;q)_n b^n, and (-1)^n q^binom(n,2)
    at b = 0.  Memoized as the prefix table of the base (b,)."""
    return _prefix((b,), n, trunc, _less_q)


@functools.cache
def qbinomial(M: int, N: int, trunc: Truncation) -> TruncatedSeries:
    """Gaussian binomial coefficient as a truncated q-polynomial;
    zero unless 0 <= N <= M.  q-Pascal recursion, memoized."""
    if N < 0 or N > M or M < 0:
        return TruncatedSeries.zero(trunc)
    if N == 0 or N == M:
        return TruncatedSeries.one(trunc)
    return qbinomial(M - 1, N - 1, trunc) + qbinomial(M - 1, N, trunc).shift(e_q=N)


def inv_poch(a: tuple, n: int, trunc: Truncation) -> TruncatedSeries:
    """1/(a;q)_n for the monomial a = (c, e_q, e_t, e_s, e_z) and n >= 0,
    memoized: binomial divisions of 1, so no series is inverted."""
    return _prefix(a, n, trunc, _over)


def inv_qq(n: int, trunc: Truncation) -> TruncatedSeries:
    """1/(q;q)_n."""
    return inv_poch((1, 1, 0, 0, 0), n, trunc)


def inv_tq(n: int, trunc: Truncation) -> TruncatedSeries:
    """1/(tq;q)_n."""
    return inv_poch((1, 1, 1, 0, 0), n, trunc)


def poch_ratio(a: tuple, j: int, trunc: Truncation) -> TruncatedSeries:
    """(a;q)_j / (q;q)_j for the monomial a, memoized: binomial updates
    and divisions of 1."""
    return _prefix(a, j, trunc, _ratio)


@functools.cache
def hermite(n: int, trunc: Truncation) -> TruncatedSeries:
    """Continuous q-Hermite polynomial H_n(z;q) = sum_j [n,j]_q z^(n-2j),
    memoized: the q-binomials are its z-slices."""
    if n < 0:
        raise DomainError("hermite degree must be >= 0")
    return TruncatedSeries.from_z_slices(
        trunc, {n - 2 * j: qbinomial(n, j, trunc) for j in range(n + 1)})


def ultraspherical(n: int, trunc: Truncation, param: str) -> TruncatedSeries:
    """Continuous q-ultraspherical polynomial
    C_n(z,x;q) = sum_j (x;q)_j (x;q)_{n-j} / ((q;q)_j (q;q)_{n-j}) z^(n-2j),
    with parameter x one of the ring variables t or s, named by param."""
    if n < 0:
        raise DomainError("ultraspherical degree must be >= 0")
    x = {"t": (1, 0, 1, 0, 0), "s": (1, 0, 0, 1, 0)}.get(param)
    if x is None:
        raise DomainError(f"ultraspherical parameter must be 't' or 's', got {param!r}")
    ratios = [poch_ratio(x, j, trunc) for j in range(n + 1)]
    return TruncatedSeries.sum_of_products(
        trunc, ((ratios[j].shift(e_z=n - 2 * j), ratios[n - j]) for j in range(n + 1)))


def ct_z(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """z-constant term of the product a * b of two series symmetric
    under z -> 1/z.

    On such series this equals the normalized circle integral
    (1/pi) * int_0^pi (a b) d(theta); the symmetry hypothesis is checked
    on each factor, and a product of symmetric factors is symmetric.
    Only the terms that reach z^0 are formed: the sum over j of the
    z-free z^j-slice of a times the z^-j-slice of b, in one sum of products.
    """
    if a.flip_z() != a or b.flip_z() != b:
        raise DomainError("ct_z requires factors symmetric under z -> 1/z")
    slices_b = b.z_slices()
    return TruncatedSeries.sum_of_products(
        a.trunc, ((part, slices_b[-j]) for j, part in a.z_slices().items() if -j in slices_b))


def hermite_weight(trunc: Truncation) -> TruncatedSeries:
    """(z^2, z^-2; q)_inf, the q-Hermite orthogonality weight."""
    return infinite_product(((1, 0, 0, 0, 2), (1, 0, 0, 0, -2)), (), trunc)


def ultraspherical_weight(trunc: Truncation) -> TruncatedSeries:
    """(z^2, z^-2; q)_inf / (s z^2, s z^-2; q)_inf."""
    if trunc.max_s is None:
        raise DomainError("ultraspherical weight needs a truncation with s")
    return infinite_product(((1, 0, 0, 0, 2), (1, 0, 0, 0, -2)),
                            ((1, 0, 0, 1, 2), (1, 0, 0, 1, -2)), trunc)


def hermite_inner(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """Constant-term pairing of H_m and H_n against the Hermite weight."""
    if m < 0 or n < 0:
        raise DomainError("inner product degrees must be >= 0")
    return ct_z(hermite(m, trunc) * hermite(n, trunc), hermite_weight(trunc))


def ultraspherical_inner(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """Constant-term pairing of C_m(z,s) and C_n(z,s) against the
    s-parameter weight."""
    if m < 0 or n < 0:
        raise DomainError("inner product degrees must be >= 0")
    cm = ultraspherical(m, trunc, "s")
    cn = ultraspherical(n, trunc, "s")
    return ct_z(cm * cn, ultraspherical_weight(trunc))


def hermite_inner_closed(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """2 (q;q)_n / (q;q)_inf * delta_{m,n}."""
    if m != n:
        return TruncatedSeries.zero(trunc)
    q = (1, 1, 0, 0, 0)
    return (poch_finite(q, n, trunc) * inv_poch_infinite(q, trunc)).scale(2)


def ultraspherical_inner_closed(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """2 (1-s) (s^2;q)_n (s,sq;q)_inf / ((1-s q^n) (q;q)_n (q,s^2;q)_inf)
    * delta_{m,n}."""
    if m != n:
        return TruncatedSeries.zero(trunc)
    ss = (1, 0, 0, 2, 0)
    num = poch_finite(ss, n, trunc).mul_binomial(1, e_s=1)
    den_inv = inv_qq(n, trunc).div_binomial(1, e_q=n, e_s=1)
    return (num * den_inv * infinite_product(((1, 0, 0, 1, 0), (1, 1, 0, 1, 0)),
                                             ((1, 1, 0, 0, 0), ss), trunc)).scale(2)


def hermite_linearize(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """Expansion of H_m * H_n in the Hermite basis:
    sum_l [m,l]_q [n,l]_q (q;q)_l H_{m+n-2l}."""
    return TruncatedSeries.sum_of_products(
        trunc, ((qbinomial(m, l, trunc) * qbinomial(n, l, trunc)
                 * poch_finite((1, 1, 0, 0, 0), l, trunc), hermite(m + n - 2 * l, trunc))
                for l in range(min(m, n) + 1)))


def hermite_expansion_coeff(n: int, l: int, trunc: Truncation) -> TruncatedSeries:
    """Coefficient of H_{2l} in the Hermite expansion of
    C_{2n}(z,t;q) / (t z^2, t z^-2;q)_inf, computed by the orthogonality
    route (constant-term pairing), independent of the closed form."""
    if n < 0 or l < 0:
        raise DomainError("expansion coefficient indices must be >= 0")
    integral = ct_z(_expansion_n_factor(n, trunc), _expansion_l_factor(l, trunc))
    return (integral * poch_infinite((1, 1, 0, 0, 0), trunc)
            * inv_qq(2 * l, trunc)).scale(Fraction(1, 2))


@functools.cache
def _expansion_n_factor(n: int, trunc: Truncation) -> TruncatedSeries:
    # C_{2n}(z,t;q) / (t z^2, t z^-2;q)_inf, the integrand's n-part
    return (ultraspherical(2 * n, trunc, "t")
            * infinite_product((), ((1, 0, 1, 0, 2), (1, 0, 1, 0, -2)), trunc))


@functools.cache
def _expansion_l_factor(l: int, trunc: Truncation) -> TruncatedSeries:
    # H_{2l}(z;q) (z^2, z^-2;q)_inf, the integrand's l-part
    return hermite(2 * l, trunc) * hermite_weight(trunc)


def hermite_expansion_coeff_closed(n: int, l: int, trunc: Truncation) -> TruncatedSeries:
    """Closed form of the same coefficient:
    (t,tq;q)_inf (t^2;q)_{2n} t^(l-n) /
    ((t^2;q)_inf (q;q)_{2n} (q;q)_{l-n} (tq;q)_{l+n}); zero for l < n."""
    if l < n:
        return TruncatedSeries.zero(trunc)
    # (t^2;q)_{2n} / (t^2;q)_inf = 1/(t^2 q^{2n};q)_inf; t^(l-n) goes on
    # the narrow 1/(q;q)_{l-n}, the first factor, so no product forms a
    # term past the t-cap
    return (inv_qq(l - n, trunc).shift(e_t=l - n) * inv_tq(l + n, trunc)
            * inv_qq(2 * n, trunc) * inv_poch_infinite((1, 2 * n, 2, 0, 0), trunc)
            * infinite_product(((1, 0, 1, 0, 0), (1, 1, 1, 0, 0)), (), trunc))


def weight_expansion_sides(trunc: Truncation) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the bilateral expansion of the weight ratio
    (z^2,z^-2;q)_inf / (t z^2,t z^-2;q)_inf in powers of z^2.

    The bilateral terms use index-combined polynomial forms so that no
    negative q- or t-power is ever formed:
      k >= 0:  prod_{i<k} (t - q^i) / (t;q)_k
      k = -m:  (-1)^m prod_{j=1..m} (q^j - t) / (1 - t q^j)
    and each side truncates because the minimum total degree of the
    k-th term grows with |k|.
    """
    lhs = infinite_product(((1, 0, 0, 0, 2), (1, 0, 0, 0, -2)),
                           ((1, 0, 1, 0, 2), (1, 0, 1, 0, -2)), trunc)

    t = TruncatedSeries.variable(trunc, "t")
    pairs = []

    # k >= 0 branch
    num = TruncatedSeries.one(trunc)
    k = 0
    while not num.is_zero():
        pairs.append((num.shift(e_z=2 * k), inv_poch((1, 0, 1, 0, 0), k, trunc)))
        num = num * (t - TruncatedSeries.monomial(trunc, 1, e_q=k))
        k += 1
    # k = -m branch
    num = TruncatedSeries.one(trunc)
    m = 1
    while True:
        num = num * (TruncatedSeries.monomial(trunc, 1, e_q=m) - t)
        if num.is_zero():
            break
        sign = -1 if m % 2 else 1
        pairs.append((num.scale(sign).shift(e_z=-2 * m), inv_tq(m, trunc)))
        m += 1
    bilateral = TruncatedSeries.sum_of_products(trunc, pairs)

    pref = infinite_product(((1, 0, 1, 0, 0), (1, 1, 1, 0, 0)),
                            ((1, 1, 0, 0, 0), (1, 0, 2, 0, 0)), trunc).mul_binomial(1, e_z=-2)
    return lhs, pref * bilateral
