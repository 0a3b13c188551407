"""Bailey pairs, conjugate pairs, chain lifts, the transform, and the
well-poised (s-parameter) conjugate pair.

Families are lazily generated, memoized sequences n -> series.  Each
constructor declares a sound support bound: the smallest index beyond
which entries vanish modulo the truncation (typically forced by a t^n
prefactor), which is what finitizes the infinite sums in the conjugate
relation and the transform.  Verification refuses families whose bound
is needed but missing.

The well-poised relation weight (s/t;q)_{l-n} carries a negative
t-power; it is absorbed against the t^l prefactor of the delta entries
through the polynomial form prod_i (t - s q^i), so the verifier works
on the t-free entry cores and never forms a negative exponent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable

from .errors import DomainError
from .qfunctions import (binom2, combined_poch, hermite, inv_poch, inv_qq, inv_tq,
                         poch_finite, poch_infinite, inv_poch_infinite, qt_poch,
                         ultraspherical)
from .report import IdentityReport, Stopwatch, first_mismatch, series_report
from .series import TruncatedSeries, Truncation


class PairFamily:
    """A memoized sequence n -> TruncatedSeries.

    support_bound, when set, promises that entries with index beyond it
    are identically zero modulo the truncation.  core_gen, when set,
    generates the t-free core of entry n (entry = t^n * core); the
    well-poised verifier needs cores past the point where the entries
    themselves have vanished.
    """

    def __init__(self, kind: str, trunc: Truncation,
                 gen: Callable[[int], TruncatedSeries],
                 support_bound: int | None = None,
                 core_gen: Callable[[int], TruncatedSeries] | None = None):
        if kind not in ("alpha", "beta", "gamma", "delta"):
            raise DomainError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.trunc = trunc
        self.support_bound = support_bound
        self._gen = gen
        self._core_gen = core_gen
        self._memo: dict[int, TruncatedSeries] = {}
        self._core_memo: dict[int, TruncatedSeries] = {}

    def __getitem__(self, n: int) -> TruncatedSeries:
        if n < 0:
            raise DomainError("family indices are nonnegative")
        got = self._memo.get(n)
        if got is None:
            got = self._gen(n)
            self._memo[n] = got
        return got

    def regenerate(self, n: int) -> TruncatedSeries:
        """Recompute entry n without the memo (reproducibility checks)."""
        return self._gen(n)

    @property
    def has_core(self) -> bool:
        return self._core_gen is not None

    def core(self, n: int) -> TruncatedSeries:
        if self._core_gen is None:
            raise DomainError(f"{self.kind} family carries no t-free core generator")
        got = self._core_memo.get(n)
        if got is None:
            got = self._core_gen(n)
            self._core_memo[n] = got
        return got


@dataclass(frozen=True)
class ChainParams:
    """Rational lift parameters; zeros are first-class (handled through
    the combined polynomial form of (1/b;q)_n b^n)."""

    b: tuple
    c: tuple

    def __post_init__(self):
        if len(self.b) != len(self.c) or not self.b:
            raise DomainError("chain parameter lists must be nonempty and equal length")

    @classmethod
    def of(cls, b, c) -> "ChainParams":
        return cls(tuple(Fraction(x) for x in b), tuple(Fraction(x) for x in c))

    @property
    def k(self) -> int:
        return len(self.b)


def _max_n_with(bound: int, weight: Callable[[int], int]) -> int:
    n = 0
    while weight(n + 1) <= bound:
        n += 1
    return n


def seed_pair(trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """The elementary unit Bailey pair:
    alpha_n = (-1)^n q^binom(n,2) (1 - t q^(2n)) (tq;q)_{n-1} / (q;q)_n
    (the (t;q)_n / (1-t) factor pre-cancelled), beta_n = [n = 0]."""
    one = TruncatedSeries.one(trunc)

    def alpha(n: int) -> TruncatedSeries:
        if n == 0:
            return one
        val = poch_finite((1, 1, 1, 0, 0), n - 1, trunc).mul_binomial(1, e_q=2 * n, e_t=1) \
            * inv_qq(n, trunc)
        sign = -1 if n % 2 else 1
        return val.scale(sign).shift(e_q=binom2(n))

    def beta(n: int) -> TruncatedSeries:
        return one if n == 0 else TruncatedSeries.zero(trunc)

    alpha_bound = _max_n_with(trunc.max_q, binom2)
    return (PairFamily("alpha", trunc, alpha, support_bound=alpha_bound),
            PairFamily("beta", trunc, beta, support_bound=0))


def chain_lift(alpha: PairFamily, beta: PairFamily, params: ChainParams,
               trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """k-fold chain lift of a Bailey pair."""
    k = params.k

    def lifted_alpha(n: int) -> TruncatedSeries:
        val = alpha[n].shift(e_q=k * n, e_t=k * n)
        for x in (*params.b, *params.c):        # P(x, n) / (x q t;q)_n
            val = val * combined_poch(x, n, trunc) * inv_poch((x, 1, 1, 0, 0), n, trunc)
        return val

    def lifted_beta(n: int) -> TruncatedSeries:
        total = TruncatedSeries.zero(trunc)
        for chain in combinations_with_replacement(range(n + 1), k):
            # chain = (n_0, ..., n_{k-1}); n_k = n
            seq = list(chain) + [n]
            e = sum(chain)
            if e > trunc.max_q or e > trunc.max_t:
                continue
            base = beta[chain[0]]
            if base.is_zero():
                continue
            val = base.shift(e_q=e, e_t=e)
            for i in range(k):
                d = seq[i + 1] - seq[i]
                val = val * inv_qq(d, trunc) * qt_poch(params.b[i] * params.c[i], d, trunc)
                for x in (params.b[i], params.c[i]):    # P(x, n_i) / (x q t;q)_{n_{i+1}}
                    val = val * inv_poch((x, 1, 1, 0, 0), seq[i + 1], trunc) \
                        * combined_poch(x, seq[i], trunc)
            total = total + val
        return total

    bounds = [trunc.max_t // k, trunc.max_q // k]
    if alpha.support_bound is not None:
        bounds.append(alpha.support_bound)
    return (PairFamily("alpha", trunc, lifted_alpha, support_bound=min(bounds)),
            PairFamily("beta", trunc, lifted_beta))


def verify_bailey_pair(alpha: PairFamily, beta: PairFamily,
                       n_max: int) -> IdentityReport:
    """Check beta_n = sum_{l<=n} alpha_l / ((q;q)_{n-l} (tq;q)_{n+l})
    for all n <= n_max."""
    watch = Stopwatch()
    trunc = alpha.trunc
    counts = {}
    for n in range(n_max + 1):
        rhs = TruncatedSeries.zero(trunc)
        for l in range(n + 1):
            rhs = rhs + alpha[l] * inv_qq(n - l, trunc) * inv_tq(n + l, trunc)
        counts = {"lhs": beta[n].term_count(), "rhs": rhs.term_count()}
        mismatch = first_mismatch(beta[n], rhs)
        if mismatch is not None:
            return IdentityReport(
                "bailey-pair-relation", {"n_max": n_max}, trunc, "fail",
                {"n": n, **mismatch}, watch.ms(), counts)
    return IdentityReport("bailey-pair-relation", {"n_max": n_max}, trunc,
                          "pass", None, watch.ms(), counts)


@functools.cache
def _conj_prefactor_inv(trunc: Truncation) -> TruncatedSeries:
    # 1 / (t, tq, tz, t/z; q)_inf, memoized
    return (inv_poch_infinite((1, 0, 1, 0, 0), trunc) * inv_poch_infinite((1, 1, 1, 0, 0), trunc)
            * inv_poch_infinite((1, 0, 1, 0, 1), trunc)
            * inv_poch_infinite((1, 0, 1, 0, -1), trunc))


def hermite_conjugate_pair(trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """The conjugate Bailey pair built from the q-Hermite expansion of
    the ultraspherical kernel:
    gamma_n = t^n (q;q)_{2n} (t^2;q)_inf / ((t^2;q)_{2n} (t,tq,tz,t/z;q)_inf)
              * sum_j (t;q)_j (t;q)_{2n-j} / ((q;q)_j (q;q)_{2n-j}) z^(j-n),
    delta_n = t^n sum_j [2n,j]_q z^(j-n).
    The j-sums are C_{2n}(z,t;q) and H_{2n}(z;q) with z^2 -> z."""
    def gamma(n: int) -> TruncatedSeries:
        # (t^2;q)_inf / (t^2;q)_{2n} = (t^2 q^{2n};q)_inf
        tail = poch_infinite((1, 2 * n, 2, 0, 0), trunc)
        pref = poch_finite((1, 1, 0, 0, 0), 2 * n, trunc) * tail * _conj_prefactor_inv(trunc)
        return (pref * ultraspherical(2 * n, trunc, "t").halve_z()).shift(e_t=n)

    def delta_core(n: int) -> TruncatedSeries:
        return hermite(2 * n, trunc).halve_z()

    def delta(n: int) -> TruncatedSeries:
        return delta_core(n).shift(e_t=n)

    return (PairFamily("gamma", trunc, gamma, support_bound=trunc.max_t),
            PairFamily("delta", trunc, delta, support_bound=trunc.max_t,
                       core_gen=delta_core))


def verify_conjugate_pair(gamma: PairFamily, delta: PairFamily,
                          n_max: int) -> IdentityReport:
    """Check gamma_n = sum_{l>=n} delta_l / ((q;q)_{l-n} (tq;q)_{l+n})
    for n <= n_max, the sum finitized by delta's support bound."""
    watch = Stopwatch()
    if delta.support_bound is None:
        raise DomainError("conjugate verification needs a support bound on delta")
    trunc = gamma.trunc
    counts = {}
    for n in range(n_max + 1):
        rhs = TruncatedSeries.zero(trunc)
        for l in range(n, delta.support_bound + 1):
            rhs = rhs + delta[l] * inv_qq(l - n, trunc) * inv_tq(l + n, trunc)
        counts = {"lhs": gamma[n].term_count(), "rhs": rhs.term_count()}
        mismatch = first_mismatch(gamma[n], rhs)
        if mismatch is not None:
            return IdentityReport(
                "conjugate-pair-relation", {"n_max": n_max}, trunc, "fail",
                {"n": n, **mismatch}, watch.ms(), counts)
    return IdentityReport("conjugate-pair-relation", {"n_max": n_max}, trunc,
                          "pass", None, watch.ms(), counts)


def bailey_transform_check(alpha: PairFamily, beta: PairFamily,
                           gamma: PairFamily, delta: PairFamily) -> IdentityReport:
    """Check sum_n alpha_n gamma_n = sum_n beta_n delta_n, both sides
    finitized by the declared support bounds."""
    watch = Stopwatch()
    trunc = alpha.trunc
    if not (alpha.trunc == beta.trunc == gamma.trunc == delta.trunc):
        raise DomainError("transform check needs families over one truncation")
    left_bounds = [b for b in (alpha.support_bound, gamma.support_bound) if b is not None]
    right_bounds = [b for b in (beta.support_bound, delta.support_bound) if b is not None]
    if not left_bounds or not right_bounds:
        raise DomainError("transform check needs a support bound on each side")
    lhs = TruncatedSeries.zero(trunc)
    for n in range(min(left_bounds) + 1):
        lhs = lhs + alpha[n] * gamma[n]
    rhs = TruncatedSeries.zero(trunc)
    for n in range(min(right_bounds) + 1):
        rhs = rhs + beta[n] * delta[n]
    return series_report("bailey-transform", lhs, rhs, params={}, watch=watch)


def wp_conjugate_pair(trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """The well-poised lift of the conjugate pair, relative to (s,t,q):
    gamma'_n gains the numerator (sz, s/z;q)_inf, and
    delta'_n = t^n (1-s q^(2n)) (q;q)_{2n} (s^2;q)_inf /
               ((1-s) (s^2;q)_{2n} (s,sq;q)_inf) * [s-weighted j-sum].
    The standalone 1/(1-s) is cancelled against the leading factor of
    (s^2;q)_inf, via (s^2;q)_inf / (1-s) = (1+s) (s^2 q;q)_inf, before
    any inversion."""
    if trunc.max_s is None:
        raise DomainError("the well-poised pair needs a truncation with s")
    one = TruncatedSeries.one(trunc)
    s = TruncatedSeries.variable(trunc, "s")

    def gamma(n: int) -> TruncatedSeries:
        tail = poch_infinite((1, 2 * n, 2, 0, 0), trunc)
        pref = (poch_finite((1, 1, 0, 0, 0), 2 * n, trunc) * tail
                * poch_infinite((1, 0, 0, 1, 1), trunc) * poch_infinite((1, 0, 0, 1, -1), trunc)
                * _conj_prefactor_inv(trunc))
        return (pref * ultraspherical(2 * n, trunc, "t").halve_z()).shift(e_t=n)

    def delta_core(n: int) -> TruncatedSeries:
        num = poch_finite((1, 1, 0, 0, 0), 2 * n, trunc).mul_binomial(1, e_q=2 * n, e_s=1) \
            * (one + s) * poch_infinite((1, 1, 0, 2, 0), trunc)
        den_inv = (inv_poch((1, 0, 0, 2, 0), 2 * n, trunc)      # 1/(s^2;q)_{2n}
                   * inv_poch_infinite((1, 0, 0, 1, 0), trunc)
                   * inv_poch_infinite((1, 1, 0, 1, 0), trunc))
        return num * den_inv * ultraspherical(2 * n, trunc, "s").halve_z()

    def delta(n: int) -> TruncatedSeries:
        return delta_core(n).shift(e_t=n)

    return (PairFamily("gamma", trunc, gamma, support_bound=trunc.max_t),
            PairFamily("delta", trunc, delta, support_bound=trunc.max_t,
                       core_gen=delta_core))


def verify_wp_conjugate(gamma_p: PairFamily, delta_p: PairFamily,
                        n_max: int) -> IdentityReport:
    """Check the well-poised conjugate relation
    gamma'_n = sum_{l>=n} (s/t;q)_{l-n} (s;q)_{l+n} /
                          ((q;q)_{l-n} (tq;q)_{l+n}) * delta'_l
    with (s/t;q)_{l-n} t^{l-n} realized as prod_i (t - s q^i), absorbed
    against the t^l prefactor of delta'_l, so only the t-free cores and
    nonnegative powers appear.  Contributions run past delta's own
    support bound, up to l = max_t + max_s."""
    watch = Stopwatch()
    if not delta_p.has_core:
        raise DomainError("well-poised verification needs delta's t-free cores")
    trunc = gamma_p.trunc
    t = TruncatedSeries.variable(trunc, "t")
    s_series = TruncatedSeries.variable(trunc, "s")
    l_max = trunc.max_t + trunc.s_cap
    counts = {}
    for n in range(n_max + 1):
        rhs = TruncatedSeries.zero(trunc)
        running = TruncatedSeries.one(trunc)   # prod_{i<l-n} (t - s q^i)
        for l in range(n, l_max + 1):
            if l > n:
                running = running * (t - s_series.shift(e_q=l - n - 1))
                if running.is_zero():
                    break
            term = (running * poch_finite((1, 0, 0, 1, 0), l + n, trunc)
                    * inv_qq(l - n, trunc) * inv_tq(l + n, trunc)
                    * delta_p.core(l))
            rhs = rhs + term
        rhs = rhs.shift(e_t=n)
        counts = {"lhs": gamma_p[n].term_count(), "rhs": rhs.term_count()}
        mismatch = first_mismatch(gamma_p[n], rhs)
        if mismatch is not None:
            return IdentityReport(
                "wp-conjugate-pair-relation", {"n_max": n_max}, trunc, "fail",
                {"n": n, **mismatch}, watch.ms(), counts)
    return IdentityReport("wp-conjugate-pair-relation", {"n_max": n_max}, trunc,
                          "pass", None, watch.ms(), counts)


def wp_collapse_check(trunc: Truncation, n_max: int) -> IdentityReport:
    """Setting s = 0 must collapse the well-poised families entrywise
    to the ordinary conjugate pair (exact term-map equality)."""
    watch = Stopwatch()
    gamma_p, delta_p = wp_conjugate_pair(trunc)
    gamma, delta = hermite_conjugate_pair(trunc)
    for n in range(n_max + 1):
        for label, wp_fam, plain_fam in (("gamma", gamma_p, gamma),
                                         ("delta", delta_p, delta)):
            mismatch = first_mismatch(wp_fam[n].specialize("s", 0), plain_fam[n])
            if mismatch is not None:
                return IdentityReport(
                    "wp-collapse-s0", {"n_max": n_max}, trunc, "fail",
                    {"n": n, "family": label, **mismatch}, watch.ms(), {})
    return IdentityReport("wp-collapse-s0", {"n_max": n_max}, trunc,
                          "pass", None, watch.ms(), {})
