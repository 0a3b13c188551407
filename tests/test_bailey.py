"""Tests for pair families, chain lifts, conjugate pairs, the
transform, and the well-poised variant."""

from fractions import Fraction

import pytest

from qbailey import bailey as B
from qbailey import qfunctions as qf
from qbailey.errors import DomainError
from qbailey.series import TruncatedSeries, Truncation

TR = Truncation(8, 6)
TRS = Truncation(6, 6, 4)


def one(trunc=TR):
    return TruncatedSeries.one(trunc)


def mono(coeff=1, e_q=0, e_t=0, e_s=0, e_z=0, trunc=TR):
    return TruncatedSeries.monomial(trunc, coeff, e_q=e_q, e_t=e_t, e_s=e_s, e_z=e_z)


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
    for n in (0, 2, 4):
        assert alpha.regenerate(n) == alpha[n]
    # q^binom(n,2) kills entries past the declared bound
    bound = alpha.support_bound
    assert not alpha[bound].is_zero() or bound == 0
    assert alpha[bound + 1].is_zero()


def test_seed_pair_relation():
    alpha, beta = B.seed_pair(TR)
    assert B.verify_bailey_pair(alpha, beta, 6).passed


def test_trivial_pair_relation_at_zero():
    trunc = TR
    const = B.PairFamily("alpha", trunc, lambda n: one())
    # n = 0 relation is beta_0 = alpha_0
    beta = B.PairFamily("beta", trunc, lambda n: one())
    assert B.verify_bailey_pair(const, beta, 0).passed


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
    unbounded = B.PairFamily("delta", TR, delta._gen)
    with pytest.raises(DomainError):
        B.verify_conjugate_pair(gamma, unbounded, 2)


def test_transform_seed_and_chains():
    alpha, beta = B.seed_pair(TR)
    gamma, delta = B.hermite_conjugate_pair(TR)
    assert B.bailey_transform_check(alpha, beta, gamma, delta).passed
    a1, b1 = B.chain_lift(alpha, beta, B.ChainParams.of([0], [0]), TR)
    assert B.bailey_transform_check(a1, b1, gamma, delta).passed
    a2, b2 = B.chain_lift(alpha, beta,
                          B.ChainParams.of([Fraction(3, 4), Fraction(1, 6)],
                                           [0, Fraction(5, 2)]), TR)
    assert B.bailey_transform_check(a2, b2, gamma, delta).passed


def test_transform_trivial_zero_conjugate():
    zero = TruncatedSeries.zero(TR)
    alpha, beta = B.seed_pair(TR)
    gamma = B.PairFamily("gamma", TR, lambda n: zero, support_bound=0)
    delta = B.PairFamily("delta", TR, lambda n: zero, support_bound=0)
    assert B.bailey_transform_check(alpha, beta, gamma, delta).passed


def test_transform_needs_matching_truncations():
    alpha, beta = B.seed_pair(TR)
    gamma, delta = B.hermite_conjugate_pair(Truncation(4, 4))
    with pytest.raises(DomainError):
        B.bailey_transform_check(alpha, beta, gamma, delta)


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


def test_wp_collapse_to_ordinary():
    assert B.wp_collapse_check(TRS, 3).passed
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    gamma, delta = B.hermite_conjugate_pair(TRS)
    for n in range(4):
        assert gamma_p[n].specialize("s", 0) == gamma[n]
        assert delta_p[n].specialize("s", 0) == delta[n]


def test_wp_needs_s_truncation_and_cores():
    with pytest.raises(DomainError):
        B.wp_conjugate_pair(TR)
    gamma_p, delta_p = B.wp_conjugate_pair(TRS)
    no_core = B.PairFamily("delta", TRS, delta_p._gen, support_bound=TRS.max_t)
    with pytest.raises(DomainError):
        B.verify_wp_conjugate(gamma_p, no_core, 2)
