"""q-Pochhammer symbols, q-binomials, the two orthogonal polynomial
families on the unit circle, and the constant-term functional.

Every Pochhammer base is one monomial, passed as the tuple
(c, e_q, e_t, e_s, e_z) for c q^e_q t^e_t s^e_s z^e_z.  Products are
binomial updates of 1 and inverses are binomial divisions or Euler's
series, so no series is inverted.  An infinite product stops at the
q-cap, past which every factor is 1.  Integrals of symmetric Laurent
series against d(theta)/pi are realized as z-constant-term extraction;
ct_z checks the symmetry hypothesis rather than trusting the caller.

The memoized builders are wrapped in functools.cache, keyed by their
arguments including the truncation; cached series are shared between
callers, which is safe because series are immutable.  Each builder's
cache_info() and cache_clear() report on and empty its table; inv_poch
keeps its prefix tables in the cache of _inv_poch_prefixes.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError, NonInvertible
from .series import TruncatedSeries, Truncation


def binom2(n: int) -> int:
    """binom(n, 2) = n(n-1)/2, the q-exponent of (-1)^n q^binom(n,2)."""
    return n * (n - 1) // 2


def poch_finite(a: tuple, n: int, trunc: Truncation) -> TruncatedSeries:
    """(a;q)_n = prod_{k=0}^{n-1} (1 - a q^k) for the monomial
    a = (c, e_q, e_t, e_s, e_z) and n >= 0: n binomial updates of 1."""
    if n < 0:
        raise DomainError("poch_finite needs n >= 0")
    c, e_q, e_t, e_s, e_z = a
    result = TruncatedSeries.one(trunc)
    for k in range(n):
        result = result.mul_binomial(c, e_q + k, e_t, e_s, e_z)
    return result


def poch_infinite(a: tuple, trunc: Truncation) -> TruncatedSeries:
    """(a;q)_inf for the monomial a: the factors past the q-cap are 1."""
    return poch_finite(a, max(trunc.max_q + 1 - a[1], 0), trunc)


def inv_poch_infinite(a: tuple, trunc: Truncation) -> TruncatedSeries:
    """1/(a;q)_inf for the monomial a, by Euler's series
    sum_n a^n / (q;q)_n.  The powers of a vanish modulo the caps unless
    a is a nonzero base of (q,t,s)-degree 0, which is not a unit."""
    c, e_q, e_t, e_s, e_z = a
    if c and not (e_q or e_t or e_s):
        raise NonInvertible(f"(a;q)_inf with a = {c} z^{e_z} is not a unit")
    base = TruncatedSeries.monomial(trunc, *a)
    total = TruncatedSeries.zero(trunc)
    power = TruncatedSeries.one(trunc)
    n = 0
    while not power.is_zero():
        total = total + power * inv_qq(n, trunc)
        power = power * base
        n += 1
    return total


def combined_poch(b, n: int, trunc: Truncation) -> TruncatedSeries:
    """prod_{i=0}^{n-1} (b - q^i) for rational b, the polynomial form of
    (1/b;q)_n b^n.  Valid at b = 0, where it collapses to
    (-1)^n q^(n(n-1)/2)."""
    if not b:
        return TruncatedSeries.monomial(trunc, -1 if n % 2 else 1, e_q=binom2(n))
    b = Fraction(b)
    return poch_finite((1 / b, 0, 0, 0, 0), n, trunc).scale(b ** n)


def qt_poch(x, n: int, trunc: Truncation) -> TruncatedSeries:
    """(x q t;q)_n for rational x, the parameter Pochhammer symbol of the
    parametrized identity and the chain lift."""
    return poch_finite((x, 1, 1, 0, 0), n, trunc)


@functools.cache
def qbinomial(M: int, N: int, trunc: Truncation) -> TruncatedSeries:
    """Gaussian binomial coefficient as a truncated q-polynomial;
    zero unless 0 <= N <= M.  q-Pascal recursion, memoized."""
    if N < 0 or N > M or M < 0:
        return TruncatedSeries.zero(trunc)
    if N == 0 or N == M:
        return TruncatedSeries.one(trunc)
    return qbinomial(M - 1, N - 1, trunc) + qbinomial(M - 1, N, trunc).shift(e_q=N)


@functools.cache
def _inv_poch_prefixes(a: tuple, trunc: Truncation) -> list:
    # [1/(a;q)_0, 1/(a;q)_1, ...], extended on demand by inv_poch
    return [TruncatedSeries.one(trunc)]


def inv_poch(a: tuple, n: int, trunc: Truncation) -> TruncatedSeries:
    """1/(a;q)_n for the monomial a = (c, e_q, e_t, e_s, e_z) and n >= 0,
    memoized: each prefix is the one before divided by the binomial
    1 - a q^(n-1), so no series is inverted."""
    if n < 0:
        raise DomainError("inv_poch needs n >= 0")
    table = _inv_poch_prefixes(a, trunc)
    c, e_q, e_t, e_s, e_z = a
    while len(table) <= n:
        table.append(table[-1].div_binomial(c, e_q + len(table) - 1, e_t, e_s, e_z))
    return table[n]


def inv_qq(n: int, trunc: Truncation) -> TruncatedSeries:
    """1/(q;q)_n."""
    return inv_poch((1, 1, 0, 0, 0), n, trunc)


def inv_tq(n: int, trunc: Truncation) -> TruncatedSeries:
    """1/(tq;q)_n."""
    return inv_poch((1, 1, 1, 0, 0), n, trunc)


@functools.cache
def poch_ratio(param: str, j: int, trunc: Truncation) -> TruncatedSeries:
    """(x;q)_j / (q;q)_j for a ring variable x in {q, t, s}, memoized."""
    a = {"q": (1, 1, 0, 0, 0), "t": (1, 0, 1, 0, 0), "s": (1, 0, 0, 1, 0)}[param]
    return poch_finite(a, j, trunc) * inv_qq(j, trunc)


@functools.cache
def hermite(n: int, trunc: Truncation) -> TruncatedSeries:
    """Continuous q-Hermite polynomial H_n(z;q) = sum_j [n,j]_q z^(n-2j),
    memoized."""
    if n < 0:
        raise DomainError("hermite degree must be >= 0")
    total = TruncatedSeries.zero(trunc)
    for j in range(n + 1):
        total = total + qbinomial(n, j, trunc).shift(e_z=n - 2 * j)
    return total


def ultraspherical(n: int, trunc: Truncation, param: str = "t") -> TruncatedSeries:
    """Continuous q-ultraspherical polynomial
    C_n(z,x;q) = sum_j (x;q)_j (x;q)_{n-j} / ((q;q)_j (q;q)_{n-j}) z^(n-2j),
    with parameter x one of the ring variables t or s."""
    if n < 0:
        raise DomainError("ultraspherical degree must be >= 0")
    total = TruncatedSeries.zero(trunc)
    for j in range(n + 1):
        term = poch_ratio(param, j, trunc) * poch_ratio(param, n - j, trunc)
        total = total + term.shift(e_z=n - 2 * j)
    return total


def ct_z(f: TruncatedSeries) -> TruncatedSeries:
    """z-constant term of a series symmetric under z -> 1/z.

    On such series this equals the normalized circle integral
    (1/pi) * int_0^pi (.) d(theta); the symmetry hypothesis is checked.
    """
    if f.flip_z() != f:
        raise DomainError("ct_z requires a series symmetric under z -> 1/z")
    return TruncatedSeries(f.trunc,
                           {k: c for (k, c) in f._terms.items() if k[3] == 0})


@functools.cache
def hermite_weight(trunc: Truncation) -> TruncatedSeries:
    """(z^2, z^-2; q)_inf, the q-Hermite orthogonality weight, memoized."""
    return poch_infinite((1, 0, 0, 0, 2), trunc) * poch_infinite((1, 0, 0, 0, -2), trunc)


@functools.cache
def ultraspherical_weight(trunc: Truncation) -> TruncatedSeries:
    """(z^2, z^-2; q)_inf / (s z^2, s z^-2; q)_inf, memoized."""
    if trunc.max_s is None:
        raise DomainError("ultraspherical weight needs a truncation with s")
    return (hermite_weight(trunc) * inv_poch_infinite((1, 0, 0, 1, 2), trunc)
            * inv_poch_infinite((1, 0, 0, 1, -2), trunc))


def hermite_inner(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """Constant-term pairing of H_m and H_n against the Hermite weight."""
    if m < 0 or n < 0:
        raise DomainError("inner product degrees must be >= 0")
    return ct_z(hermite(m, trunc) * hermite(n, trunc) * hermite_weight(trunc))


def ultraspherical_inner(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """Constant-term pairing of C_m(z,s) and C_n(z,s) against the
    s-parameter weight."""
    if m < 0 or n < 0:
        raise DomainError("inner product degrees must be >= 0")
    cm = ultraspherical(m, trunc, "s")
    cn = ultraspherical(n, trunc, "s")
    return ct_z(cm * cn * ultraspherical_weight(trunc))


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
    num = (poch_finite(ss, n, trunc).mul_binomial(1, e_s=1)
           * poch_infinite((1, 0, 0, 1, 0), trunc) * poch_infinite((1, 1, 0, 1, 0), trunc))
    den_inv = inv_qq(n, trunc).div_binomial(1, e_q=n, e_s=1) \
        * inv_poch_infinite((1, 1, 0, 0, 0), trunc) * inv_poch_infinite(ss, trunc)
    return (num * den_inv).scale(2)


def hermite_linearize(m: int, n: int, trunc: Truncation) -> TruncatedSeries:
    """Expansion of H_m * H_n in the Hermite basis:
    sum_l [m,l]_q [n,l]_q (q;q)_l H_{m+n-2l}."""
    total = TruncatedSeries.zero(trunc)
    for l in range(min(m, n) + 1):
        coeff = (qbinomial(m, l, trunc) * qbinomial(n, l, trunc)
                 * poch_finite((1, 1, 0, 0, 0), l, trunc))
        total = total + coeff * hermite(m + n - 2 * l, trunc)
    return total


def hermite_expansion_coeff(n: int, l: int, trunc: Truncation) -> TruncatedSeries:
    """Coefficient of H_{2l} in the Hermite expansion of
    C_{2n}(z,t;q) / (t z^2, t z^-2;q)_inf, computed by the orthogonality
    route (constant-term pairing), independent of the closed form."""
    if n < 0 or l < 0:
        raise DomainError("expansion coefficient indices must be >= 0")
    integrand = (ultraspherical(2 * n, trunc, "t")
                 * inv_poch_infinite((1, 0, 1, 0, 2), trunc)
                 * inv_poch_infinite((1, 0, 1, 0, -2), trunc)
                 * hermite(2 * l, trunc) * hermite_weight(trunc))
    return (ct_z(integrand) * poch_infinite((1, 1, 0, 0, 0), trunc)
            * inv_qq(2 * l, trunc)).scale(Fraction(1, 2))


def hermite_expansion_coeff_closed(n: int, l: int, trunc: Truncation) -> TruncatedSeries:
    """Closed form of the same coefficient:
    (t,tq;q)_inf (t^2;q)_{2n} t^(l-n) /
    ((t^2;q)_inf (q;q)_{2n} (q;q)_{l-n} (tq;q)_{l+n}); zero for l < n."""
    if l < n:
        return TruncatedSeries.zero(trunc)
    # (t^2;q)_{2n} / (t^2;q)_inf = 1/(t^2 q^{2n};q)_inf
    out = (poch_infinite((1, 0, 1, 0, 0), trunc) * poch_infinite((1, 1, 1, 0, 0), trunc)
           * inv_poch_infinite((1, 2 * n, 2, 0, 0), trunc)
           * inv_qq(2 * n, trunc) * inv_qq(l - n, trunc) * inv_tq(l + n, trunc))
    return out.shift(e_t=l - n)


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
    lhs = (hermite_weight(trunc) * inv_poch_infinite((1, 0, 1, 0, 2), trunc)
           * inv_poch_infinite((1, 0, 1, 0, -2), trunc))

    t = TruncatedSeries.variable(trunc, "t")
    bilateral = TruncatedSeries.zero(trunc)

    # k >= 0 branch
    num = TruncatedSeries.one(trunc)
    k = 0
    while not num.is_zero():
        bilateral = bilateral + (num * inv_poch((1, 0, 1, 0, 0), k, trunc)).shift(e_z=2 * k)
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
        bilateral = bilateral + (num * inv_tq(m, trunc)).scale(sign).shift(e_z=-2 * m)
        m += 1

    t_tq = poch_infinite((1, 0, 1, 0, 0), trunc) * poch_infinite((1, 1, 1, 0, 0), trunc)
    pref = (t_tq.mul_binomial(1, e_z=-2) * inv_poch_infinite((1, 1, 0, 0, 0), trunc)
            * inv_poch_infinite((1, 0, 2, 0, 0), trunc))
    return lhs, pref * bilateral
