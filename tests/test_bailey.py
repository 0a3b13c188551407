"""Tests for pair families, chain lifts, conjugate pairs, the
transform, and the well-poised variant."""

import contextlib
import io
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from conftest import clear_caches
from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey import bailey as B
from qbailey import cli
from qbailey import qfunctions as qf
from qbailey import report
from qbailey import series as S
from qbailey.errors import DomainError
from qbailey.series import TruncatedSeries, Truncation

TR = Truncation(8, 6)
TRS = Truncation(6, 6, 4)


def one(trunc=TR):
    return TruncatedSeries.one(trunc)


def mono(coeff=1, e_q=0, e_t=0, e_s=0, e_z=0, trunc=TR):
    return TruncatedSeries.monomial(trunc, coeff, e_q=e_q, e_t=e_t, e_s=e_s, e_z=e_z)


def retruncate(f, small):
    return TruncatedSeries(small, dict(f.terms()))


def test_family_truncation_projection():
    # family entries at larger caps, cut down to smaller caps, equal the
    # entries computed at the smaller caps
    def families(trunc):
        alpha, beta = B.seed_pair(trunc)
        lifts = [B.chain_lift(alpha, beta, B.ChainParams.of(b, c), trunc)
                 for b, c in (([Fraction(2, 5), 0], [3, Fraction(-1, 2)]),
                              ([Fraction(1, 2), 2], [Fraction(-3, 4), Fraction(5, 3)]))]
        return (*lifts[0], *lifts[1], *B.hermite_conjugate_pair(trunc))

    for big, small in ((TR, Truncation(5, 3)), (Truncation(7, 8), Truncation(3, 5))):
        for wide, narrow in zip(families(big), families(small)):
            for n in range(6):
                assert retruncate(wide[n], small) == narrow[n]

    small_s = Truncation(4, 3, 2)
    wide_g, wide_d = B.wp_conjugate_pair(TRS)
    narrow_g, narrow_d = B.wp_conjugate_pair(small_s)
    for n in range(4):
        assert retruncate(wide_g[n], small_s) == narrow_g[n]
        assert retruncate(wide_d[n], small_s) == narrow_d[n]
        assert retruncate(wide_d.core(n), small_s) == narrow_d.core(n)


def test_seed_pair_entries():
    alpha, beta = B.seed_pair(TR)
    assert beta[0] == one()
    for n in range(1, 5):
        assert beta[n].is_zero()
    assert alpha[0] == one()
    q = TruncatedSeries.variable(TR, "q")
    expected_a1 = (one() - mono(e_q=2, e_t=1)) * (one() - q).invert()
    assert alpha[1] == -expected_a1


def test_family_reproducibility_and_bounds():
    alpha, beta = B.seed_pair(TR)
    fresh, _ = B.seed_pair(TR)
    for n in (0, 2, 4):
        assert fresh[n] == alpha[n]
    # q^binom(n,2) kills entries past the declared bound
    bound = alpha.support_bound
    assert not alpha[bound].is_zero() or bound == 0
    assert alpha[bound + 1].is_zero()


def test_seed_pair_relation():
    alpha, beta = B.seed_pair(TR)
    assert B.verify_bailey_pair(alpha, beta, 6).passed


def test_trivial_pair_relation_at_zero():
    trunc = TR
    const = B.PairFamily(trunc, lambda n: one())
    # n = 0 relation is beta_0 = alpha_0
    beta = B.PairFamily(trunc, lambda n: one())
    assert B.verify_bailey_pair(const, beta, 0).passed


def test_chain_params_are_validated_values():
    params = B.ChainParams.of([0, Fraction(1, 2)], [2, 3])
    assert (params.b, params.c, params.k) == ((0, Fraction(1, 2)), (2, 3), 2)
    assert params == B.ChainParams((0, Fraction(1, 2)), (2, 3))
    with pytest.raises(AttributeError):
        params.b = ()
    for b, c in (([], []), ([1], []), ([1, 2], [3])):
        for build in (B.ChainParams.of, lambda b, c: B.ChainParams(tuple(b), tuple(c))):
            with pytest.raises(DomainError) as info:
                build(b, c)
            assert str(info.value) == "chain parameter lists must be nonempty and equal length"


def test_chain_lift_zero_parameters():
    alpha, beta = B.seed_pair(TR)
    a1, b1 = B.chain_lift(alpha, beta, B.ChainParams.of([0], [0]), TR)
    assert B.verify_bailey_pair(a1, b1, 5).passed
    assert b1[0] == one() and a1[0] == one()


def test_chain_lift_beta_closed_form():
    # with the seed below, the depth-1 lift collapses to
    # (b c t q;q)_n / ((q;q)_n (b t q, c t q;q)_n)
    alpha, beta = B.seed_pair(TR)
    b, c = Fraction(1, 2), Fraction(2, 7)
    a1, b1 = B.chain_lift(alpha, beta, B.ChainParams.of([b], [c]), TR)
    for n in range(5):
        num = qf.poch_finite((b * c, 1, 1, 0, 0), n, TR)
        den = qf.poch_finite((b, 1, 1, 0, 0), n, TR) * qf.poch_finite((c, 1, 1, 0, 0), n, TR)
        expected = num * qf.inv_qq(n, TR) * den.invert()
        assert b1[n] == expected


def test_chain_lift_depths_and_random_parameters():
    alpha, beta = B.seed_pair(TR)
    for k in (1, 2, 3):
        ak, bk = B.chain_lift(alpha, beta,
                              B.ChainParams.of([0] * k, [0] * k), TR)
        assert B.verify_bailey_pair(ak, bk, 4).passed
    for params in (B.ChainParams.of([Fraction(2, 3)], [Fraction(5, 4)]),
                   B.ChainParams.of([Fraction(1, 3), Fraction(3, 2)],
                                    [Fraction(2, 5), 0])):
        ak, bk = B.chain_lift(alpha, beta, params, TR)
        assert B.verify_bailey_pair(ak, bk, 4).passed


def test_chain_lift_composes():
    # lifting twice with depth 1 equals one depth-2 lift; this also
    # exercises the general-base sum (the once-lifted beta is nonzero
    # at every index)
    alpha, beta = B.seed_pair(TR)
    b1, c1, b2, c2 = Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(0)
    once = B.chain_lift(alpha, beta, B.ChainParams.of([b1], [c1]), TR)
    twice = B.chain_lift(once[0], once[1], B.ChainParams.of([b2], [c2]), TR)
    direct = B.chain_lift(alpha, beta, B.ChainParams.of([b1, b2], [c1, c2]), TR)
    for n in range(5):
        assert twice[0][n] == direct[0][n]
        assert twice[1][n] == direct[1][n]
    assert B.verify_bailey_pair(twice[0], twice[1], 4).passed


def reference_lifted_beta(beta, params, trunc, n):
    """The k-fold chain lift of beta_n summed chain by chain, frozen as
    the oracle of the lemma-step lift: a sum over all chains
    n_0 <= ... <= n_{k-1} <= n_k = n of
    beta_{n_0} q^e t^e prod_i (b_i c_i q t;q)_{d_i} P(b_i,n_i) P(c_i,n_i)
    / ((q;q)_{d_i} (b_i q t, c_i q t;q)_{n_{i+1}}), with d_i = n_{i+1} - n_i
    and e = n_0 + ... + n_{k-1}."""
    k = params.k
    total = TruncatedSeries.zero(trunc)
    for chain in combinations_with_replacement(range(n + 1), k):
        seq = list(chain) + [n]
        e = sum(chain)
        if e > trunc.max_q or e > trunc.max_t:
            continue
        val = beta[chain[0]].shift(e_q=e, e_t=e)
        for i in range(k):
            d = seq[i + 1] - seq[i]
            val = val * qf.inv_qq(d, trunc) \
                * qf.poch_finite((params.b[i] * params.c[i], 1, 1, 0, 0), d, trunc)
            for x in (params.b[i], params.c[i]):
                val = val * qf.inv_poch((x, 1, 1, 0, 0), seq[i + 1], trunc) \
                    * qf.combined_poch(x, seq[i], trunc)
        total = total + val
    return total


@pytest.mark.parametrize("trunc", [TR, Truncation(5, 7)], ids=["8x6", "5x7"])
@pytest.mark.parametrize("b, c", [
    ([0], [0]),
    ([Fraction(2, 3)], [Fraction(-5, 4)]),
    ([0, 0], [0, 0]),
    ([Fraction(1, 3), Fraction(3, 2)], [Fraction(2, 5), 0]),
    ([0, 0, 0], [0, 0, 0]),
    ([Fraction(9, 2), Fraction(1, 4), 2], [Fraction(2, 3), Fraction(3, 2), Fraction(-1, 7)]),
])
def test_lifted_beta_matches_chain_enumeration(trunc, b, c):
    # the lemma-step lift equals the frozen chain-by-chain sum, entry by
    # entry, also when the base beta is nonzero at every index
    params = B.ChainParams.of(b, c)
    alpha, beta = B.seed_pair(trunc)
    once = B.chain_lift(alpha, beta, B.ChainParams.of([Fraction(1, 2)], [Fraction(2, 7)]),
                        trunc)
    for base in (beta, once[1]):
        _, lifted = B.chain_lift(alpha, base, params, trunc)
        for n in range(trunc.max_t + 1):
            assert lifted[n] == reference_lifted_beta(base, params, trunc, n)


def test_conjugate_pair_entries():
    gamma, delta = B.hermite_conjugate_pair(TR)
    assert delta[0] == one()
    q = TruncatedSeries.variable(TR, "q")
    expected_d1 = (mono(e_z=-1) + one() + q + mono(e_z=1)).shift(e_t=1)
    assert delta[1] == expected_d1
    expected_g0 = qf.poch_infinite((1, 0, 2, 0, 0), TR) * (
        qf.poch_infinite((1, 0, 1, 0, 0), TR) * qf.poch_infinite((1, 1, 1, 0, 0), TR)
        * qf.poch_infinite((1, 0, 1, 0, 1), TR)
        * qf.poch_infinite((1, 0, 1, 0, -1), TR)).invert()
    assert gamma[0] == expected_g0


def test_conjugate_pair_relation_and_symmetry():
    gamma, delta = B.hermite_conjugate_pair(TR)
    report = B.verify_conjugate_pair(gamma, delta, 4)
    assert report.passed
    for n in range(4):
        assert gamma[n].flip_z() == gamma[n]
        assert delta[n].flip_z() == delta[n]
    # the relation still holds at the truncation boundary n = max_t,
    # where only the l = n term survives
    assert B.verify_conjugate_pair(gamma, delta, TR.max_t).passed


def test_conjugate_verifier_requires_bound():
    gamma, delta = B.hermite_conjugate_pair(TR)
    unbounded = B.PairFamily(TR, delta._gen)
    with pytest.raises(DomainError):
        B.verify_conjugate_pair(gamma, unbounded, 2)


def test_transform_seed_and_chains():
    alpha, beta = B.seed_pair(TR)
    gamma, delta = B.hermite_conjugate_pair(TR)
    assert B.bailey_transform_check(alpha, beta, gamma, delta, {}).passed
    a1, b1 = B.chain_lift(alpha, beta, B.ChainParams.of([0], [0]), TR)
    assert B.bailey_transform_check(a1, b1, gamma, delta, {}).passed
    a2, b2 = B.chain_lift(alpha, beta,
                          B.ChainParams.of([Fraction(3, 4), Fraction(1, 6)],
                                           [0, Fraction(5, 2)]), TR)
    assert B.bailey_transform_check(a2, b2, gamma, delta, {}).passed


def test_transform_trivial_zero_conjugate():
    zero = TruncatedSeries.zero(TR)
    alpha, beta = B.seed_pair(TR)
    gamma = B.PairFamily(TR, lambda n: zero, support_bound=0)
    delta = B.PairFamily(TR, lambda n: zero, support_bound=0)
    assert B.bailey_transform_check(alpha, beta, gamma, delta, {}).passed


def test_transform_needs_matching_truncations():
    alpha, beta = B.seed_pair(TR)
    gamma, delta = B.hermite_conjugate_pair(Truncation(4, 4))
    with pytest.raises(DomainError):
        B.bailey_transform_check(alpha, beta, gamma, delta, {})


def frozen_gammas(trunc):
    """gamma_n of hermite_conjugate_pair and gamma'_n of wp_conjugate_pair
    as the builders formed them before t^n moved onto a narrow factor and
    the n-free factor was kept apart: the whole product, shifted last;
    the frozen oracle of both gamma builders.  gamma'_n needs s in trunc."""
    conj = (qf.inv_poch_infinite((1, 0, 1, 0, 0), trunc)
            * qf.inv_poch_infinite((1, 1, 1, 0, 0), trunc)
            * qf.inv_poch_infinite((1, 0, 1, 0, 1), trunc)
            * qf.inv_poch_infinite((1, 0, 1, 0, -1), trunc))

    def pref(n):
        return (qf.poch_finite((1, 1, 0, 0, 0), 2 * n, trunc)
                * qf.poch_infinite((1, 2 * n, 2, 0, 0), trunc))

    def gamma(n):
        return (pref(n) * qf.ultraspherical(2 * n, trunc, "t").halve_z() * conj).shift(e_t=n)

    def gamma_wp(n):
        gamma_inf = (qf.poch_infinite((1, 0, 0, 1, 1), trunc)
                     * qf.poch_infinite((1, 0, 0, 1, -1), trunc) * conj)
        return (pref(n) * qf.ultraspherical(2 * n, trunc, "t").halve_z()
                * gamma_inf).shift(e_t=n)

    return gamma, gamma_wp


CAPS = st.tuples(st.integers(0, 7), st.integers(0, 6), st.integers(0, 4))


@settings(max_examples=25, deadline=None)
@given(caps=CAPS)
def test_gamma_builders_match_frozen_products(caps):
    # entry n, its factor times its part, equals the whole product
    # shifted last, also past the t-cap, where both vanish
    max_q, max_t, max_s = caps
    plain, wp = Truncation(max_q, max_t), Truncation(max_q, max_t, max_s)
    gamma, _ = B.hermite_conjugate_pair(plain)
    gamma_p, _ = B.wp_conjugate_pair(wp)
    frozen, _ = frozen_gammas(plain)
    _, frozen_wp = frozen_gammas(wp)
    for n in range(max_t + 3):
        assert gamma[n] == frozen(n)
        assert gamma_p[n] == frozen_wp(n)
    assert gamma[max_t + 1].is_zero() and gamma_p[max_t + 2].is_zero()


def test_pair_family_entry_is_factor_times_part():
    # entry n is factor * part(n), the factor 1 unless given; entries
    # are memoized, so an entry read twice generates its part once, and
    # a part is generated again on each read
    q = TruncatedSeries.variable(TR, "q")
    factor = one() - q

    def part(n):
        return mono(e_q=n) + one()

    family = B.PairFamily(TR, part, build_factor=lambda: factor)
    plain = B.PairFamily(TR, part)
    calls = [count_generator_calls(f, "_gen") for f in (family, plain)]
    for n in (0, 3, 3):
        assert family[n] == factor * part(n)
        assert plain[n] is plain[n]
    assert calls == [{0: 1, 3: 1}] * 2
    for n in (0, 3, 3):
        assert family.part(n) == part(n)
        assert plain[n] == plain.part(n)
    assert calls == [{0: 2, 3: 3}] * 2
    assert plain.factor == one()
    with pytest.raises(DomainError):
        family[-1]


RATIONAL = st.one_of(st.just(Fraction(0)),
                     st.fractions(-3, 3, max_denominator=4).filter(lambda x: x not in (0, 1)))


@settings(max_examples=15, deadline=None)
@given(caps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       params=st.lists(st.tuples(RATIONAL, RATIONAL), max_size=2))
def test_transform_sides_match_the_unfactored_sums(caps, params):
    # the transform multiplies the conjugate prefactor in once, after the
    # sum over the parts; its sides equal sum_n alpha_n gamma_n with the
    # frozen whole gamma_n, and sum_n beta_n delta_n
    trunc = Truncation(*caps)
    alpha, beta = B.seed_pair(trunc)
    if params:
        alpha, beta = B.chain_lift(alpha, beta, B.ChainParams.of(*zip(*params)), trunc)
    gamma, delta = B.hermite_conjugate_pair(trunc)
    frozen, _ = frozen_gammas(trunc)
    left = min(alpha.support_bound, gamma.support_bound)
    right = min(b for b in (beta.support_bound, delta.support_bound) if b is not None)
    expected_lhs = TruncatedSeries.sum_of_products(
        trunc, ((alpha[n], frozen(n)) for n in range(left + 1)))
    expected_rhs = TruncatedSeries.sum_of_products(
        trunc, ((beta[n], delta[n]) for n in range(right + 1)))
    sides = []
    with mock.patch.object(B, "_compare",
                           lambda name, build, params: sides.append(build())):
        B.bailey_transform_check(alpha, beta, gamma, delta, {})
    (lhs, rhs), = sides
    assert lhs == expected_lhs
    assert rhs == expected_rhs
    assert lhs == rhs


def test_wp_pair_entries_and_relation():
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    expected_d0 = qf.poch_infinite((1, 0, 0, 2, 0), TRS) * (
        qf.poch_infinite((1, 0, 0, 1, 0), TRS)
        * qf.poch_infinite((1, 1, 0, 1, 0), TRS)).invert()
    assert delta_p[0] == expected_d0
    assert B.verify_wp_conjugate(gamma_p, delta_p, 3).passed


def test_wp_relation_n0_by_hand():
    # hand-rolled n = 0 relation sum (independent of the verifier's
    # loop and bounds), exercising the absorbed weight prod_i (t - s q^i)
    trunc = Truncation(4, 3, 2)
    gamma_p, delta_p = B.wp_conjugate_pair(trunc)
    t = TruncatedSeries.variable(trunc, "t")
    s = TruncatedSeries.variable(trunc, "s")
    rhs = TruncatedSeries.zero(trunc)
    running = TruncatedSeries.one(trunc)
    for l in range(trunc.max_t + trunc.s_cap + 1):
        if l > 0:
            running = running * (t - s.shift(e_q=l - 1))
        core = delta_p.core(l)
        rhs = rhs + (running * qf.poch_finite((1, 0, 0, 1, 0), l, trunc)
                     * qf.inv_qq(l, trunc) * qf.inv_tq(l, trunc) * core)
    assert rhs == gamma_p[0]


def reference_wp_families(trunc):
    """The well-poised gamma' and delta' cores as first written, every
    n-free factor built again for each n; the frozen oracle of
    bailey.wp_conjugate_pair."""
    one = TruncatedSeries.one(trunc)
    s = TruncatedSeries.variable(trunc, "s")

    def gamma(n):
        tail = qf.poch_infinite((1, 2 * n, 2, 0, 0), trunc)
        pref = (qf.poch_finite((1, 1, 0, 0, 0), 2 * n, trunc) * tail
                * qf.poch_infinite((1, 0, 0, 1, 1), trunc)
                * qf.poch_infinite((1, 0, 0, 1, -1), trunc)
                * qf.inv_poch_infinite((1, 0, 1, 0, 0), trunc)
                * qf.inv_poch_infinite((1, 1, 1, 0, 0), trunc)
                * qf.inv_poch_infinite((1, 0, 1, 0, 1), trunc)
                * qf.inv_poch_infinite((1, 0, 1, 0, -1), trunc))
        return (pref * qf.ultraspherical(2 * n, trunc, "t").halve_z()).shift(e_t=n)

    def delta_core(n):
        num = qf.poch_finite((1, 1, 0, 0, 0), 2 * n, trunc).mul_binomial(1, e_q=2 * n, e_s=1) \
            * (one + s) * qf.poch_infinite((1, 1, 0, 2, 0), trunc)
        den_inv = (qf.inv_poch((1, 0, 0, 2, 0), 2 * n, trunc)
                   * qf.inv_poch_infinite((1, 0, 0, 1, 0), trunc)
                   * qf.inv_poch_infinite((1, 1, 0, 1, 0), trunc))
        return num * den_inv * qf.ultraspherical(2 * n, trunc, "s").halve_z()

    return gamma, delta_core


def test_wp_families_match_reference():
    clear_caches()
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    gamma, delta_core = reference_wp_families(TRS)
    for n in range(TRS.max_t + 2):
        assert gamma_p[n] == gamma(n)
        assert delta_p.core(n) == delta_core(n)
        assert delta_p[n] == delta_core(n).shift(e_t=n)


@pytest.mark.parametrize("caps", [(6, 6, 4), (8, 5, 7), (3, 2, 9)])
def test_wp_delta_factor_is_one_infinite_product_read(caps):
    # (s^2;q)_inf / (s;q)_inf^2 equals the n-free factor of delta' as
    # first multiplied out, (1+s) (s^2 q;q)_inf / (s,sq;q)_inf, and
    # core(0) is (1-s) times it
    trunc = Truncation(*caps)
    s = TruncatedSeries.variable(trunc, "s")
    frozen = ((s + 1) * qf.poch_infinite((1, 1, 0, 2, 0), trunc)
              * qf.inv_poch_infinite((1, 0, 0, 1, 0), trunc)
              * qf.inv_poch_infinite((1, 1, 0, 1, 0), trunc))
    read = qf.infinite_product(((1, 0, 0, 2, 0),), ((1, 0, 0, 1, 0),) * 2, trunc)
    assert read == frozen
    _, delta_p = B.wp_conjugate_pair(trunc)
    assert delta_p.core(0) == frozen - s * frozen


def reference_wp_rhs(delta_p, n):
    """The right-hand side of the well-poised relation at n by the
    per-l loop as first written: the running product prod_i (t - s q^i)
    and (s;q)_{l+n} updated per l, four factors per weight, stopping
    at the first vanishing product; the frozen oracle of the tabulated
    weights in bailey.verify_wp_conjugate."""
    trunc = delta_p.trunc
    t = TruncatedSeries.variable(trunc, "t")
    s_series = TruncatedSeries.variable(trunc, "s")
    pairs = []
    running = TruncatedSeries.one(trunc)
    s_poch = qf.poch_finite((1, 0, 0, 1, 0), 2 * n, trunc)
    for l in range(n, trunc.max_t + trunc.s_cap + 1):
        if l > n:
            running = running * (t - s_series.shift(e_q=l - n - 1))
            if running.is_zero():
                break
            s_poch = s_poch.mul_binomial(1, e_q=l + n - 1, e_s=1)
        pairs.append((running * s_poch * qf.inv_qq(l - n, trunc) * qf.inv_tq(l + n, trunc),
                      delta_p.core(l)))
    return TruncatedSeries.sum_of_products(trunc, pairs).shift(e_t=n)


def relation_rhs(monkeypatch, verify, lhs, rhs_family, n_max):
    # the right-hand sides a relation verifier forms for n = 0..n_max,
    # captured where it compares them; every n compares equal
    seen = []
    monkeypatch.setattr(B, "first_mismatch", lambda left, right: seen.append(right))
    verify(lhs, rhs_family, n_max)
    return seen


@pytest.mark.parametrize("trunc", [TRS, Truncation(8, 8, 6), Truncation(6, 6, 0),
                                   Truncation(2, 3, 4)],
                         ids=["6x6x4", "8x8x6", "ns0", "early-zero"])
def test_wp_rhs_matches_reference(monkeypatch, trunc):
    clear_caches()
    gamma_p, delta_p = B.wp_conjugate_pair(trunc)
    n_max = trunc.max_t
    got = relation_rhs(monkeypatch, B.verify_wp_conjugate, gamma_p, delta_p, n_max)
    assert len(got) == n_max + 1
    for n, rhs in enumerate(got):
        assert rhs == reference_wp_rhs(delta_p, n)


@settings(max_examples=20, deadline=None)
@given(caps=CAPS)
def test_wp_rhs_matches_reference_past_the_t_cap(caps):
    # t^n on the weight A[l-n] before the product: the right-hand sides
    # equal the frozen per-l loop, shifted last, for n up to max_t + 2
    trunc = Truncation(*caps)
    gamma_p, delta_p = B.wp_conjugate_pair(trunc)
    n_max = trunc.max_t + 2
    got = []
    with mock.patch.object(B, "first_mismatch", lambda left, right: got.append(right)):
        B.verify_wp_conjugate(gamma_p, delta_p, n_max)
    assert len(got) == n_max + 1
    for n, rhs in enumerate(got):
        assert rhs == reference_wp_rhs(delta_p, n)


def test_wp_weights_end_early_at_the_early_zero_truncation():
    # at (2,3,4) prod_{i<d} (t - s q^i) vanishes already at
    # d = max_t + max_s - 1, so the "early-zero" case above covers the
    # tables ending before l_max
    trunc = Truncation(2, 3, 4)
    t = TruncatedSeries.variable(trunc, "t")
    s = TruncatedSeries.variable(trunc, "s")
    running = TruncatedSeries.one(trunc)
    for i in range(trunc.max_t + trunc.s_cap - 1):
        running = running * (t - s.shift(e_q=i))
    assert running.is_zero()


def count_generator_calls(family, attr):
    # replaces the family's entry or core generator by one that counts
    # its calls per index
    calls = Counter()
    gen = getattr(family, attr)

    def counted(n):
        calls[n] += 1
        return gen(n)

    setattr(family, attr, counted)
    return calls


def test_wp_families_are_built_once_across_relation_and_collapse(monkeypatch):
    # the collapse check reads the families the relation check verified:
    # no gamma' entry and no delta' core is generated twice, a delta'
    # entry reads its core through the memo, and the s-weighted
    # ultraspherical polynomial of each degree is built once
    clear_caches()
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    gamma_calls = count_generator_calls(gamma_p, "_gen")
    core_calls = count_generator_calls(delta_p, "_core_gen")
    degrees = Counter()
    ultraspherical = B.ultraspherical

    def counted_ultraspherical(n, trunc, param):
        degrees[n, param] += 1
        return ultraspherical(n, trunc, param)

    monkeypatch.setattr(B, "ultraspherical", counted_ultraspherical)
    assert B.verify_wp_conjugate(gamma_p, delta_p, 3).passed
    assert B.wp_collapse_check(gamma_p, delta_p, 3).passed
    assert set(gamma_calls) == set(range(4)) and max(gamma_calls.values()) == 1
    assert set(core_calls) == set(range(TRS.max_t + TRS.s_cap + 1))
    assert max(core_calls.values()) == 1
    assert max(count for (_, param), count in degrees.items() if param == "s") == 1
    # the ordinary gamma of the collapse check is the independent side:
    # it builds C_{2n}(z,t) once more for each n
    assert {n: degrees[2 * n, "t"] for n in range(4)} == dict.fromkeys(range(4), 2)


def test_relation_check_keeps_no_part():
    # the relation reads each entry once; a later part read, as the
    # transform makes, generates that part again
    trunc = Truncation(8, 8)
    gamma, delta = B.hermite_conjugate_pair(trunc)
    calls = count_generator_calls(gamma, "_gen")
    assert B.verify_conjugate_pair(gamma, delta, 4).passed
    assert calls == dict.fromkeys(range(5), 1)
    for n in range(5):
        assert gamma.factor * gamma.part(n) == gamma[n]
    assert calls == dict.fromkeys(range(5), 2)


def test_wp_collapse_to_ordinary():
    assert B.wp_collapse_check(*B.wp_conjugate_pair(TRS), 3).passed
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    gamma, delta = B.hermite_conjugate_pair(TRS)
    for n in range(4):
        assert gamma_p[n].specialize("s", 0) == gamma[n]
        assert delta_p[n].specialize("s", 0) == delta[n]


def test_wp_needs_s_truncation_and_cores():
    with pytest.raises(DomainError):
        B.wp_conjugate_pair(TR)
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    no_core = B.PairFamily(TRS, delta_p._gen, support_bound=TRS.max_t)
    with pytest.raises(DomainError):
        B.verify_wp_conjugate(gamma_p, no_core, 2)


def _raise_one_coefficient(family, n_bad):
    """The family with the coefficient of the smallest monomial of entry
    n_bad raised by one; every other entry is unchanged."""
    mono_bad, _ = next(family[n_bad].terms())
    bump = TruncatedSeries.monomial(family.trunc, 1, *mono_bad)

    def gen(n):
        return family[n] + bump if n == n_bad else family[n]

    return B.PairFamily(family.trunc, gen, family.support_bound), mono_bad


def _bailey_case():
    alpha, beta = B.seed_pair(TR)
    a1, b1 = B.chain_lift(alpha, beta, B.ChainParams.of([0], [0]), TR)
    bad, mono_bad = _raise_one_coefficient(b1, 2)
    return B.verify_bailey_pair(a1, bad, 4), b1[2], mono_bad


def _conjugate_case():
    gamma, delta = B.hermite_conjugate_pair(TR)
    bad, mono_bad = _raise_one_coefficient(gamma, 2)
    return B.verify_conjugate_pair(bad, delta, 4), gamma[2], mono_bad


def _wp_case():
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    bad, mono_bad = _raise_one_coefficient(gamma_p, 2)
    return B.verify_wp_conjugate(bad, delta_p, 3), gamma_p[2], mono_bad


@pytest.mark.parametrize("case", [_bailey_case, _conjugate_case, _wp_case],
                         ids=["bailey-pair", "conjugate-pair", "wp-conjugate"])
def test_relation_verifier_reports_first_failing_n(case):
    # a one-coefficient change at n = 2 fails there: the report names
    # n = 2, the changed monomial with both coefficients, and the term
    # counts of n = 2 (the right-hand side equals the unchanged entry)
    report, entry, mono_bad = case()
    assert report.status == "fail"
    coeff = entry.coefficient(mono_bad)
    assert report.first_mismatch == {
        "n": 2, "monomial": list(mono_bad),
        "lhs": f"{Fraction(coeff + 1).numerator}/{Fraction(coeff + 1).denominator}",
        "rhs": f"{Fraction(coeff).numerator}/{Fraction(coeff).denominator}"}
    assert report.term_counts == {"lhs": entry.term_count() - (coeff == -1),
                                  "rhs": entry.term_count()}


def test_relation_verifier_stops_at_the_first_failing_n():
    # after the mismatch at n = 2 no later entry is compared, so neither
    # family is asked for n = 3 or n = 4
    gamma, delta = B.hermite_conjugate_pair(TR)
    bad, _ = _raise_one_coefficient(gamma, 2)
    asked = []

    def gen(n):
        asked.append(n)
        return bad[n]

    report = B.verify_conjugate_pair(B.PairFamily(TR, gen, bad.support_bound),
                                     delta, 4)
    assert report.first_mismatch["n"] == 2
    assert asked == [0, 1, 2]


def test_wp_collapse_reports_the_failing_family(monkeypatch):
    # a changed ordinary delta_1 fails the s = 0 collapse there: the
    # report names n and the family, and carries no term counts
    plain = B.hermite_conjugate_pair

    def changed(trunc):
        gamma, delta = plain(trunc)
        bad, _ = _raise_one_coefficient(delta, 1)
        return gamma, bad

    monkeypatch.setattr(B, "hermite_conjugate_pair", changed)
    report = B.wp_collapse_check(*B.wp_conjugate_pair(TRS), 3)
    assert report.status == "fail" and not report.passed
    assert report.identity == "wp-collapse-s0"
    assert report.params == {"n_max": 3}
    assert report.truncation == TRS
    assert set(report.first_mismatch) == {"n", "family", "monomial", "lhs", "rhs"}
    assert (report.first_mismatch["n"], report.first_mismatch["family"]) == (1, "delta")
    assert report.term_counts == {}
    assert report.to_dict()["status"] == "fail"


# the output terms of the packed ring sums each argv forms, caches
# cleared: at most what the Bailey-family, orthogonality and level-sum
# products make when each forms only terms that survive.  Before the
# shifts moved onto narrow factors, ct_z paired matching z-slices and
# the transform multiplied the conjugate prefactor once, the counts were
# 39,771, 12,855, 33,661 and 12,590.  Restoring any one post-product
# shift adds at least one term to one of them.
FORMED_TERMS = (
    (["verify", "thm-wp", "--nmax", "3", "--nq", "6", "--nt", "6", "--ns", "4", "--json"],
     31020),
    (["verify", "corollary-special", "--pair", "chain(2;9/2,2/8;2/3,9/6)",
      "--nq", "8", "--nt", "8", "--json"], 7744),
    (["selftest", "--seed", "1176680724", "--json"], 16926),
    (["verify", "thm-kks", "--k", "2", "--nq", "12", "--nt", "10", "--json"], 11930),
)


def test_products_form_only_surviving_terms(monkeypatch):
    packed = S._sum_of_products
    formed = []

    def counted(pairs, trunc):
        out = packed(pairs, trunc)
        formed.append(out.term_count())
        return out

    monkeypatch.setattr(S, "_sum_of_products", counted)
    for argv, limit in FORMED_TERMS:
        clear_caches()
        formed.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert sum(formed) <= limit, (argv, sum(formed))


def test_verifiers_refuse_an_empty_range_of_n():
    # n_max < 0 leaves no n to compare: the check ran nothing, so it
    # raises rather than reporting a pass
    gamma, delta = B.hermite_conjugate_pair(TR)
    alpha, beta = B.seed_pair(TR)
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    for verify in (lambda: B.verify_conjugate_pair(gamma, delta, -1),
                   lambda: B.verify_bailey_pair(alpha, beta, -3),
                   lambda: B.verify_wp_conjugate(gamma_p, delta_p, -1),
                   lambda: B.wp_collapse_check(gamma_p, delta_p, -1)):
        with pytest.raises(DomainError, match="ran no sub-check"):
            verify()


def test_chain_parameters_must_be_exact():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    for b, c in (([0.1], [0.2]), ([Fraction(1, 2)], [0.5]), ([0, "1/3"], [0, 0])):
        with pytest.raises(DomainError, match="int or Fraction"):
            B.ChainParams.of(b, c)
    assert B.ChainParams.of([1, Fraction(1, 10)], [0, 2]).b == (Fraction(1), Fraction(1, 10))


def test_wp_weight_tables_are_built_on_the_chain_clock(monkeypatch):
    # the A/B tables read inv_qq and inv_tq; no read may come before the
    # chain starts its clock, or the report's wall time would miss it
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    events = []
    clock = report.Stopwatch
    monkeypatch.setattr(report, "Stopwatch", lambda: events.append("clock") or clock())
    for name in ("inv_qq", "inv_tq"):
        monkeypatch.setattr(B, name, lambda *args, built=getattr(B, name), name=name:
                            events.append(name) or built(*args))
    assert B.verify_wp_conjugate(gamma_p, delta_p, 2).passed
    assert events[0] == "clock" and {"inv_qq", "inv_tq"} <= set(events)


@pytest.mark.parametrize("argv", [
    ["verify", "thm-conj-pair", "--nmax", "2", "--nq", "4", "--nt", "4"],
    ["verify", "thm-wp", "--nmax", "2", "--nq", "4", "--nt", "4", "--ns", "2"],
    ["verify", "corollary-special", "--pair", "chain(1;1/2;3)", "--nq", "4", "--nt", "4"]],
    ids=["thm-conj-pair", "thm-wp", "corollary-special"])
def test_pair_factors_are_built_on_the_report_clock(monkeypatch, argv):
    # the n-free factors of the conjugate pairs are infinite_product
    # reads; building a pair reads none of them, so no read comes before
    # the first report starts its clock
    events = []
    clock = report.Stopwatch
    monkeypatch.setattr(report, "Stopwatch", lambda: events.append("clock") or clock())
    monkeypatch.setattr(B, "infinite_product", lambda *args, built=B.infinite_product:
                        events.append("infinite_product") or built(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert events[0] == "clock" and "infinite_product" in events
