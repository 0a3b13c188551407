"""Bailey pairs, conjugate pairs, chain lifts, the transform, and the
well-poised (s-parameter) conjugate pair.

Families are lazily generated sequences n -> series.  Each
constructor declares a sound support bound: the smallest index beyond
which entries vanish modulo the truncation (typically forced by a t^n
prefactor), which is what finitizes the infinite sums in the conjugate
relation and the transform.  Verification refuses families whose bound
is needed but missing.  A family builds its n-free factor once, at its
first read, so on the clock of the check that reads it, and a
delta entry t^n core(n) reads its core through the family's memo, so
each entry and each core is generated once per family.  Entry n is
factor * part(n), factor the family's n-free factor (1 unless given):
the gammas keep their conjugate prefactor there, and the transform
reads each part once, unmemoized, and multiplies the factors in once,
after its sum over the parts.  A
monomial such as t^n or q^binom(n,2) goes on a narrow factor before a
product, never on the product after it, so no product forms terms that
a shift would drop past a cap.  The s = 0
collapse check takes the well-poised families the relation check has
verified and compares them with an ordinary pair it builds itself.

The k-fold chain lift is Bailey's lemma applied k times (Andrews,
Pacific J. Math. 114 (1984)): one memoized beta table per level, each
built from the one below, lowest first.  N entries cost about k*N^2
summand pairs instead of C(N+k, k) chains, and no recursion.  The three
relation verifiers share one per-n sub-check generator, which the report
layer runs, and times, up to the first n that fails.

The well-poised relation weight (s/t;q)_{l-n} carries a negative
t-power; it is absorbed against the t^l prefactor of the delta entries
through the polynomial form prod_i (t - s q^i), so the verifier works
on the t-free entry cores and never forms a negative exponent.  The
weights are tabulated once per check, at its first sub-check and so on
its clock, A[d] = prod_{i<d} (t - s q^i) / (q;q)_d and
B[j] = (s;q)_j / (tq;q)_j, the latter from the shared Pochhammer prefix
tables, and the term l of the relation at n is the one pair
(t^n A[l-n] B[l+n], core(l)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

from .errors import DomainError
from .qfunctions import (_exact, binom2, combined_poch, hermite, infinite_product, inv_poch,
                         inv_qq, inv_tq, poch_finite, poch_infinite, poch_ratio, ultraspherical)
from .report import IdentityReport, _compare, _first_failure, first_mismatch
from .series import TruncatedSeries, Truncation


class PairFamily:
    """A memoized sequence n -> TruncatedSeries, entry n = factor * part(n).

    factor is the family's n-free factor, built by the zero-argument
    build_factor at its first read (1 unless given), and gen generates
    part(n); the entries and the cores are memoized, and a part is
    formed on each read.  A sum over n of products with the
    entries can read the parts, once per n, and multiply the factor in
    once, after the sum.  support_bound, when set, promises that
    entries with index beyond it are identically zero modulo the
    truncation.  core_gen, when set, generates the t-free
    core of entry n (entry = t^n * core); the well-poised verifier needs
    cores past the point where the entries themselves have vanished.
    """

    def __init__(self, trunc: Truncation, gen: Callable[[int], TruncatedSeries],
                 support_bound: int | None = None,
                 core_gen: Callable[[int], TruncatedSeries] | None = None,
                 build_factor: Callable[[], TruncatedSeries] | None = None):
        self.trunc = trunc
        self.support_bound = support_bound
        self._build_factor = build_factor or (lambda: TruncatedSeries.one(trunc))
        self._gen = gen
        self._core_gen = core_gen
        self._memo: dict[int, TruncatedSeries] = {}
        self._core_memo: dict[int, TruncatedSeries] = {}

    def __getitem__(self, n: int) -> TruncatedSeries:
        got = self._memo.get(n)
        if got is None:
            got = self.factor * self.part(n)      # 1 * part is part itself
            self._memo[n] = got
        return got

    @functools.cached_property
    def factor(self) -> TruncatedSeries:
        return self._build_factor()

    def part(self, n: int) -> TruncatedSeries:
        if n < 0:
            raise DomainError("family indices are nonnegative")
        return self._gen(n)

    def core(self, n: int) -> TruncatedSeries:
        if self._core_gen is None:
            raise DomainError("this family carries no t-free core generator")
        got = self._core_memo.get(n)
        if got is None:
            got = self._core_gen(n)
            self._core_memo[n] = got
        return got


@dataclass(frozen=True)
class ChainParams:
    """Rational lift parameters; zeros are first-class (handled through
    the combined polynomial form of (1/b;q)_n b^n).  `of` takes ints and
    Fractions only, since Fraction(0.1) would store the binary expansion
    of 0.1."""

    b: tuple
    c: tuple

    def __post_init__(self):
        if len(self.b) != len(self.c) or not self.b:
            raise DomainError("chain parameter lists must be nonempty and equal length")

    @classmethod
    def of(cls, b, c) -> "ChainParams":
        return cls(tuple(Fraction(_exact(x)) for x in b), tuple(Fraction(_exact(x)) for x in c))

    @property
    def k(self) -> int:
        return len(self.b)


def seed_pair(trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """The elementary unit Bailey pair:
    alpha_n = (-1)^n q^binom(n,2) (1 - t q^(2n)) (tq;q)_{n-1} / (q;q)_n
    (the (t;q)_n / (1-t) factor pre-cancelled), beta_n = [n = 0]."""
    one = TruncatedSeries.one(trunc)

    def alpha(n: int) -> TruncatedSeries:
        if n == 0:
            return one
        num = poch_finite((1, 1, 1, 0, 0), n - 1, trunc).mul_binomial(1, e_q=2 * n, e_t=1)
        sign = -1 if n % 2 else 1
        return num.scale(sign).shift(e_q=binom2(n)) * inv_qq(n, trunc)

    def beta(n: int) -> TruncatedSeries:
        return one if n == 0 else TruncatedSeries.zero(trunc)

    # the largest n with binom2(n) <= max_q
    alpha_bound = (1 + isqrt(1 + 8 * trunc.max_q)) // 2
    return (PairFamily(trunc, alpha, support_bound=alpha_bound),
            PairFamily(trunc, beta, support_bound=0))


def chain_lift(alpha: PairFamily, beta: PairFamily, params: ChainParams,
               trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """k-fold chain lift of a Bailey pair, one Bailey-lemma step per
    parameter pair (b_i, c_i):
    alpha'_n = alpha_n (q t)^n P(b_i,n) P(c_i,n) / (b_i q t, c_i q t;q)_n,
    beta'_m = (b_i q t, c_i q t;q)_m^-1 * sum_{r<=m} q^r t^r P(b_i,r)
              P(c_i,r) beta_r (b_i c_i q t;q)_{m-r} / (q;q)_{m-r},
    with P(x,n) = prod_{j<n} (x - q^j) (combined_poch)."""
    k = params.k

    def lifted_alpha(n: int) -> TruncatedSeries:
        val = alpha[n].shift(e_q=k * n, e_t=k * n)
        for x in (*params.b, *params.c):        # P(x, n) / (x q t;q)_n
            val = val * combined_poch(x, n, trunc) * inv_poch((x, 1, 1, 0, 0), n, trunc)
        return val

    # levels[i][m] = beta_m after i lemma steps; levels[0] is the input
    # beta.  weighted[i][r] is the factor of a step that depends on r
    # alone; the one that depends on d = m - r alone is the memoized
    # poch_ratio((b_i c_i, 1, 1, 0, 0), d) = (b_i c_i q t;q)_d / (q;q)_d.
    levels: list = [beta] + [[] for _ in range(k)]
    weighted: list[list] = [[] for _ in range(k)]

    def lemma_step(i: int, m: int) -> TruncatedSeries:
        # beta'_m of the docstring, from levels[i] with b, c = b_i, c_i
        b, c = params.b[i], params.c[i]
        below, wts = levels[i], weighted[i]
        top = min(m, trunc.max_q, trunc.max_t)    # q^r t^r vanishes past it
        while len(wts) <= top:
            r = len(wts)
            wts.append(below[r].shift(e_q=r, e_t=r) * combined_poch(b, r, trunc)
                       * combined_poch(c, r, trunc))
        total = TruncatedSeries.sum_of_products(
            trunc, ((wts[r], poch_ratio((b * c, 1, 1, 0, 0), m - r, trunc))
                    for r in range(top + 1) if wts[r]))
        return (total * inv_poch((b, 1, 1, 0, 0), m, trunc)
                * inv_poch((c, 1, 1, 0, 0), m, trunc))

    def lifted_beta(n: int) -> TruncatedSeries:
        # lowest level first, so no level recurses into the one below
        for i in range(k):
            level = levels[i + 1]
            upto = n if i == k - 1 else min(n, trunc.max_q, trunc.max_t)
            while len(level) <= upto:
                level.append(lemma_step(i, len(level)))
        return levels[k][n]

    bounds = [trunc.max_t // k, trunc.max_q // k]
    if alpha.support_bound is not None:
        bounds.append(alpha.support_bound)
    return (PairFamily(trunc, lifted_alpha, support_bound=min(bounds)),
            PairFamily(trunc, lifted_beta))


def _relation_report(identity: str, trunc: Truncation, n_max: int, lhs: PairFamily,
                     rhs_at: Callable[[int], TruncatedSeries]) -> IdentityReport:
    """Compare lhs[n] with rhs_at(n) for n = 0..n_max, each n one
    sub-check labelled n and counting the terms of both sides."""
    def subchecks():
        for n in range(n_max + 1):
            rhs = rhs_at(n)
            yield ({"n": n}, first_mismatch(lhs[n], rhs),
                   {"lhs": lhs[n].term_count(), "rhs": rhs.term_count()})

    return _first_failure(identity, {"n_max": n_max}, trunc, subchecks())


def verify_bailey_pair(alpha: PairFamily, beta: PairFamily,
                       n_max: int) -> IdentityReport:
    """Check beta_n = sum_{l<=n} alpha_l / ((q;q)_{n-l} (tq;q)_{n+l})
    for all n <= n_max."""
    trunc = alpha.trunc

    def rhs_at(n: int) -> TruncatedSeries:
        return TruncatedSeries.sum_of_products(
            trunc, ((alpha[l] * inv_qq(n - l, trunc), inv_tq(n + l, trunc))
                    for l in range(n + 1)))

    return _relation_report("bailey-pair-relation", trunc, n_max, beta, rhs_at)


# the bases t, tq, tz, t/z of the conjugate prefactor 1/(t,tq,tz,t/z;q)_inf
_CONJ_DEN = ((1, 0, 1, 0, 0), (1, 1, 1, 0, 0), (1, 0, 1, 0, 1), (1, 0, 1, 0, -1))


def _gamma_part(n: int, trunc: Truncation) -> TruncatedSeries:
    # gamma_n over its n-free factor, the same for gamma and gamma':
    # t^n on the narrow (q;q)_{2n} (t^2 q^{2n};q)_inf, where
    # (t^2;q)_inf / (t^2;q)_{2n} = (t^2 q^{2n};q)_inf
    tail = poch_infinite((1, 2 * n, 2, 0, 0), trunc)
    pref = poch_finite((1, 1, 0, 0, 0), 2 * n, trunc).shift(e_t=n) * tail
    return pref * ultraspherical(2 * n, trunc, "t").halve_z()


def _delta_family(trunc: Truncation,
                  core_gen: Callable[[int], TruncatedSeries]) -> PairFamily:
    # delta_n = t^n * core(n), the core read through the family's own
    # memo, so an entry and its core are built once between them
    family = PairFamily(trunc, lambda n: family.core(n).shift(e_t=n),
                        support_bound=trunc.max_t, core_gen=core_gen)
    return family


def hermite_conjugate_pair(trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """The conjugate Bailey pair built from the q-Hermite expansion of
    the ultraspherical kernel:
    gamma_n = t^n (q;q)_{2n} (t^2;q)_inf / ((t^2;q)_{2n} (t,tq,tz,t/z;q)_inf)
              * sum_j (t;q)_j (t;q)_{2n-j} / ((q;q)_j (q;q)_{2n-j}) z^(j-n),
    delta_n = t^n sum_j [2n,j]_q z^(j-n).
    The j-sums are C_{2n}(z,t;q) and H_{2n}(z;q) with z^2 -> z."""
    def delta_core(n: int) -> TruncatedSeries:
        return hermite(2 * n, trunc).halve_z()

    return (PairFamily(trunc, lambda n: _gamma_part(n, trunc), support_bound=trunc.max_t,
                       build_factor=lambda: infinite_product((), _CONJ_DEN, trunc)),
            _delta_family(trunc, delta_core))


def verify_conjugate_pair(gamma: PairFamily, delta: PairFamily,
                          n_max: int) -> IdentityReport:
    """Check gamma_n = sum_{l>=n} delta_l / ((q;q)_{l-n} (tq;q)_{l+n})
    for n <= n_max, the sum finitized by delta's support bound."""
    if delta.support_bound is None:
        raise DomainError("conjugate verification needs a support bound on delta")
    trunc = gamma.trunc

    def rhs_at(n: int) -> TruncatedSeries:
        return TruncatedSeries.sum_of_products(
            trunc, ((delta[l] * inv_qq(l - n, trunc), inv_tq(l + n, trunc))
                    for l in range(n, delta.support_bound + 1)))

    return _relation_report("conjugate-pair-relation", trunc, n_max, gamma, rhs_at)


def bailey_transform_check(alpha: PairFamily, beta: PairFamily, gamma: PairFamily,
                           delta: PairFamily, params: dict) -> IdentityReport:
    """Check sum_n alpha_n gamma_n = sum_n beta_n delta_n, both sides
    finitized by the declared support bounds; params label the report."""
    trunc = alpha.trunc
    if not (alpha.trunc == beta.trunc == gamma.trunc == delta.trunc):
        raise DomainError("transform check needs families over one truncation")
    left_bounds = [b for b in (alpha.support_bound, gamma.support_bound) if b is not None]
    right_bounds = [b for b in (beta.support_bound, delta.support_bound) if b is not None]
    if not left_bounds or not right_bounds:
        raise DomainError("transform check needs a support bound on each side")

    def side(x: PairFamily, y: PairFamily, bound: int) -> TruncatedSeries:
        # entry n = factor * part(n): the n-free factors multiply in
        # once, after the sum over the parts
        return x.factor * y.factor * TruncatedSeries.sum_of_products(
            trunc, ((x.part(n), y.part(n)) for n in range(bound + 1)))

    return _compare("bailey-transform", lambda: (side(alpha, gamma, min(left_bounds)),
                                                 side(beta, delta, min(right_bounds))), params)


def wp_conjugate_pair(trunc: Truncation) -> tuple[PairFamily, PairFamily]:
    """The well-poised lift of the conjugate pair, relative to (s,t,q):
    gamma'_n gains the numerator (sz, s/z;q)_inf, and
    delta'_n = t^n (1-s q^(2n)) (q;q)_{2n} (s^2;q)_inf /
               ((1-s) (s^2;q)_{2n} (s,sq;q)_inf) * [s-weighted j-sum],
    whose n-free factor is (s^2;q)_inf / (s;q)_inf^2, as
    (1-s) (sq;q)_inf = (s;q)_inf."""
    if trunc.max_s is None:
        raise DomainError("the well-poised pair needs a truncation with s")

    def delta_core(n: int) -> TruncatedSeries:
        num = poch_finite((1, 1, 0, 0, 0), 2 * n, trunc).mul_binomial(1, e_q=2 * n, e_s=1) \
            * inv_poch((1, 0, 0, 2, 0), 2 * n, trunc)      # / (s^2;q)_{2n}
        # the memoized n-free factor (s^2;q)_inf / (s;q)_inf^2
        delta_inf = infinite_product(((1, 0, 0, 2, 0),), ((1, 0, 0, 1, 0), (1, 0, 0, 1, 0)),
                                     trunc)
        return num * delta_inf * ultraspherical(2 * n, trunc, "s").halve_z()

    def gamma_inf() -> TruncatedSeries:
        # gamma'_n's n-free factor (sz, s/z;q)_inf / (t,tq,tz,t/z;q)_inf
        return (infinite_product(((1, 0, 0, 1, 1), (1, 0, 0, 1, -1)), (), trunc)
                * infinite_product((), _CONJ_DEN, trunc))

    return (PairFamily(trunc, lambda n: _gamma_part(n, trunc), support_bound=trunc.max_t,
                       build_factor=gamma_inf),
            _delta_family(trunc, delta_core))


def _wp_weight_tables(trunc: Truncation, l_max: int, j_max: int) -> tuple[list, list]:
    # A[d] for d <= l_max, up to the first vanishing product, and B[j]
    # for j <= j_max, the weight tables of verify_wp_conjugate
    t = TruncatedSeries.variable(trunc, "t")
    s_series = TruncatedSeries.variable(trunc, "s")
    a_table = [TruncatedSeries.one(trunc)]
    running = a_table[0]                     # prod_{i<d} (t - s q^i)
    while len(a_table) <= l_max:
        running = running * (t - s_series.shift(e_q=len(a_table) - 1))
        if running.is_zero():
            break
        a_table.append(running * inv_qq(len(a_table), trunc))
    b_table = [poch_finite((1, 0, 0, 1, 0), j, trunc) * inv_tq(j, trunc)
               for j in range(j_max + 1)]
    return a_table, b_table


def verify_wp_conjugate(gamma_p: PairFamily, delta_p: PairFamily,
                        n_max: int) -> IdentityReport:
    """Check the well-poised conjugate relation
    gamma'_n = sum_{l>=n} (s/t;q)_{l-n} (s;q)_{l+n} /
                          ((q;q)_{l-n} (tq;q)_{l+n}) * delta'_l
    with (s/t;q)_{l-n} t^{l-n} realized as prod_i (t - s q^i), absorbed
    against the t^l prefactor of delta'_l, so only the t-free cores and
    nonnegative powers appear.  Contributions run past delta's own
    support bound, up to l = max_t + max_s.

    The weight factors into two tables shared by every n:
    A[d] = prod_{i<d} (t - s q^i) / (q;q)_d, which ends at the first d
    whose product vanishes modulo the truncation, and
    B[j] = (s;q)_j / (tq;q)_j, read from the Pochhammer prefix tables,
    so each l costs the one pair
    (t^n A[l-n] B[l+n], core(l)), t^n on the narrow A[l-n].  The tables
    are built at the first rhs_at call, so on the chain's clock."""
    trunc = gamma_p.trunc
    l_max = trunc.max_t + trunc.s_cap
    tables: list = []

    def rhs_at(n: int) -> TruncatedSeries:
        if not tables:
            tables.extend(_wp_weight_tables(trunc, l_max, l_max + min(n_max, l_max)))
        a_table, b_table = tables
        top = min(l_max, n + len(a_table) - 1)
        return TruncatedSeries.sum_of_products(
            trunc, ((a_table[l - n].shift(e_t=n) * b_table[l + n], delta_p.core(l))
                    for l in range(n, top + 1)))

    return _relation_report("wp-conjugate-pair-relation", trunc, n_max, gamma_p, rhs_at)


def wp_collapse_check(gamma_p: PairFamily, delta_p: PairFamily,
                      n_max: int) -> IdentityReport:
    """Setting s = 0 must collapse the well-poised families entrywise
    to the ordinary conjugate pair (exact term-map equality).  The wp
    families are the caller's, typically the ones the relation check
    has just verified; the ordinary pair is built here, independently."""
    trunc = gamma_p.trunc
    gamma, delta = hermite_conjugate_pair(trunc)
    subchecks = (({"n": n, "family": label},
                  first_mismatch(wp_fam[n].specialize("s", 0), plain_fam[n]), {})
                 for n in range(n_max + 1)
                 for label, wp_fam, plain_fam in (("gamma", gamma_p, gamma),
                                                  ("delta", delta_p, delta)))
    return _first_failure("wp-collapse-s0", {"n_max": n_max}, trunc, subchecks)
