"""Tests for Pochhammer symbols, q-binomials, the polynomial families,
and the constant-term layer."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbailey import qfunctions as qf
from qbailey.errors import DomainError, NonInvertible
from qbailey.series import TruncatedSeries, Truncation

TR = Truncation(6, 4)
TRS = Truncation(6, 4, 4)


def mono(coeff=1, e_q=0, e_t=0, e_s=0, e_z=0, trunc=TR):
    return TruncatedSeries.monomial(trunc, coeff, e_q=e_q, e_t=e_t, e_s=e_s, e_z=e_z)


def one(trunc=TR):
    return TruncatedSeries.one(trunc)


# Pochhammer bases are monomial tuples (c, e_q, e_t, e_s, e_z)
Q = (1, 1, 0, 0, 0)
T = (1, 0, 1, 0, 0)


def shifted(a, n):
    # the base a q^n
    c, e_q, *rest = a
    return (c, e_q + n, *rest)


def test_poch_finite_examples():
    expanded = qf.poch_finite(Q, 3, TR)
    expected = TruncatedSeries(TR, {(0, 0, 0, 0): 1, (1, 0, 0, 0): -1,
                                    (2, 0, 0, 0): -1, (4, 0, 0, 0): 1,
                                    (5, 0, 0, 0): 1, (6, 0, 0, 0): -1})
    assert expanded == expected
    assert qf.poch_finite(T, 0, TR) == one()
    assert qf.poch_finite(T, 1, TR) == one() - mono(e_t=1)


def test_poch_infinite_euler_partial():
    tr = Truncation(3, 0)
    assert qf.poch_infinite(Q, tr) == TruncatedSeries(
        tr, {(0, 0, 0, 0): 1, (1, 0, 0, 0): -1, (2, 0, 0, 0): -1})
    assert qf.poch_infinite((0, 0, 0, 0, 0), TR) == one()


def test_poch_infinite_laurent_base():
    direct = one()
    cur = mono(e_t=1, e_z=2)
    for _ in range(TR.max_q + 1):
        direct = direct * (one() - cur)
        cur = cur.shift(e_q=1)
    assert qf.poch_infinite((1, 0, 1, 0, 2), TR) == direct


def test_poch_splitting_invariant():
    for base in (T, (1, 1, 1, 0, 0), (Fraction(2, 3), 1, 0, 0, 0)):
        full = qf.poch_infinite(base, TR)
        for n in (1, 3, 6):
            assert full == qf.poch_finite(base, n, TR) * qf.poch_infinite(shifted(base, n), TR)


def test_poch_index_addition():
    for base in (T, Q, (Fraction(1, 2), 0, 1, 0, 1)):
        for m in range(4):
            for n in range(4):
                lhs = qf.poch_finite(base, m + n, TR)
                rhs = qf.poch_finite(base, m, TR) * qf.poch_finite(shifted(base, m), n, TR)
                assert lhs == rhs


def test_combined_poch():
    for n in range(5):
        assert qf.combined_poch(0, n, TR) == mono(
            (-1) ** n, e_q=n * (n - 1) // 2)
    assert qf.combined_poch(Fraction(3, 7), 0, TR) == one()
    assert qf.combined_poch(1, 2, TR).is_zero()


def test_qbinomial_against_polynomial_division():
    assert qf.qbinomial(2, 1, TR) == one() + mono(e_q=1)
    division = qf.poch_finite(Q, 4, TR) * (qf.poch_finite(Q, 2, TR) ** 2).invert()
    assert qf.qbinomial(4, 2, TR) == division
    assert qf.qbinomial(3, 5, TR).is_zero()
    for M in range(7):
        for N in range(M + 1):
            division = qf.poch_finite(Q, M, TR) * (
                qf.poch_finite(Q, N, TR) * qf.poch_finite(Q, M - N, TR)).invert()
            assert qf.qbinomial(M, N, TR) == division


def test_hermite_small():
    z = mono(e_z=1)
    zi = mono(e_z=-1)
    assert qf.hermite(0, TR) == one()
    assert qf.hermite(1, TR) == z + zi
    assert qf.hermite(2, TR) == mono(e_z=2) + one() + mono(e_q=1) + mono(e_z=-2)


def test_hermite_support_and_symmetry():
    for n in range(7):
        h = qf.hermite(n, TR)
        lo, hi = h.z_support()
        assert lo == -n and hi == n
        assert all((m.e_z - n) % 2 == 0 for m, _ in h.terms())
        assert h.flip_z() == h


def test_ultraspherical():
    assert qf.ultraspherical(0, TR) == one()
    t = TruncatedSeries.variable(TR, "t")
    q = TruncatedSeries.variable(TR, "q")
    ratio = (one() - t) * (one() - q).invert()
    assert qf.ultraspherical(1, TR) == ratio * (mono(e_z=1) + mono(e_z=-1))
    # parameter equal to q collapses every Pochhammer ratio
    for n in range(4):
        collapsed = qf.ultraspherical(n, TR, "q")
        expected = sum((mono(e_z=n - 2 * j) for j in range(n + 1)),
                       TruncatedSeries.zero(TR))
        assert collapsed == expected
    for n in range(5):
        c = qf.ultraspherical(n, TR)
        assert c.flip_z() == c


def test_ct_z():
    f = mono(e_z=2) + mono(3) + mono(e_z=-2)
    assert qf.ct_z(f) == mono(3)
    with pytest.raises(DomainError):
        qf.ct_z(mono(e_z=2) + mono(3))
    # weight at q-cap zero is (1-z^2)(1-z^-2) with constant term 2
    tr0 = Truncation(0, 0)
    assert qf.ct_z(qf.hermite_weight(tr0)) == TruncatedSeries.monomial(tr0, 2)


def test_hermite_inner_orthogonality():
    q = TruncatedSeries.variable(TR, "q")
    inv_euler = qf.inv_poch_infinite(Q, TR)
    assert qf.hermite_inner(0, 0, TR) == inv_euler.scale(2)
    assert qf.hermite_inner(1, 2, TR).is_zero()
    assert qf.hermite_inner(1, 1, TR) == ((one() - q) * inv_euler).scale(2)
    for m in range(5):
        for n in range(5):
            assert qf.hermite_inner(m, n, TR) == qf.hermite_inner_closed(m, n, TR)


def test_ultraspherical_inner_orthogonality():
    for m in range(4):
        for n in range(4):
            assert qf.ultraspherical_inner(m, n, TRS) == \
                qf.ultraspherical_inner_closed(m, n, TRS)


def test_hermite_linearize():
    q = TruncatedSeries.variable(TR, "q")
    for m in range(4):
        assert qf.hermite_linearize(m, 0, TR) == qf.hermite(m, TR)
    assert qf.hermite_linearize(1, 1, TR) == qf.hermite(2, TR) + (one() - q)
    for m in range(6):
        for n in range(6):
            assert qf.hermite_linearize(m, n, TR) == \
                qf.hermite(m, TR) * qf.hermite(n, TR)


def test_expansion_coeff_closed_form():
    c00 = (qf.poch_infinite(T, TR) * qf.poch_infinite((1, 1, 1, 0, 0), TR)
           * qf.inv_poch_infinite((1, 0, 2, 0, 0), TR))
    assert qf.hermite_expansion_coeff(0, 0, TR) == c00
    for n in range(1, 3):
        for l in range(n):
            assert qf.hermite_expansion_coeff(n, l, TR).is_zero()
    for n in range(3):
        for l in range(4):
            assert qf.hermite_expansion_coeff(n, l, TR) == \
                qf.hermite_expansion_coeff_closed(n, l, TR)


def test_weight_expansion():
    lhs, rhs = qf.weight_expansion_sides(TR)
    assert lhs == rhs


# -- the inline sums that hermite and ultraspherical replaced, kept as
#    oracles for the shared builders ---------------------------------


def delta_core_sum(n, trunc):
    # the core of the conjugate pair's delta_n
    total = TruncatedSeries.zero(trunc)
    for j in range(2 * n + 1):
        total = total + qf.qbinomial(2 * n, j, trunc).shift(e_z=j - n)
    return total


def b_closed_sum(n, trunc):
    # the H sum of the closed form of B_n
    h = TruncatedSeries.zero(trunc)
    for j in range(2 * n + 1):
        h = h + qf.qbinomial(2 * n, j, trunc).shift(e_z=2 * j - 2 * n)
    return h


def u_sum(sig, trunc):
    # the u-sum of the second fermionic form and of B_n's defining sum
    a = TruncatedSeries.zero(trunc)
    for u in range(sig + 1):
        a = a + qf.qbinomial(sig, u, trunc).shift(e_z=2 * u)
    return a


def ultra_half_sum(n, trunc, param):
    # the j-sum of both conjugate pairs' gamma_n and of the wp delta_n
    total = TruncatedSeries.zero(trunc)
    for j in range(2 * n + 1):
        total = total + (qf.poch_ratio(param, j, trunc)
                         * qf.poch_ratio(param, 2 * n - j, trunc)).shift(e_z=j - n)
    return total


def bosonic_jsum(n, trunc):
    # the j-sum of the bosonic summand and of the parametrized bosonic side
    jsum = TruncatedSeries.zero(trunc)
    for j in range(2 * n + 1):
        jsum = jsum + (qf.poch_ratio("t", j, trunc)
                       * qf.poch_ratio("t", 2 * n - j, trunc)).shift(e_z=2 * j - 2 * n)
    return jsum


_truncs = st.builds(Truncation, st.integers(0, 8), st.integers(0, 6),
                    st.none() | st.integers(0, 4))
_degrees = st.integers(0, 5)


@settings(max_examples=40, deadline=None)
@given(_degrees, _truncs)
def test_hermite_matches_inline_sums(n, trunc):
    h2n = qf.hermite(2 * n, trunc)
    assert h2n.halve_z() == delta_core_sum(n, trunc)
    assert h2n == b_closed_sum(n, trunc)
    h = qf.hermite(n, trunc)
    a = u_sum(n, trunc)
    assert h.shift(e_z=n) == a
    assert h * h == a * a.flip_z()


@settings(max_examples=40, deadline=None)
@given(_degrees, _truncs, st.sampled_from(["t", "s"]))
def test_ultraspherical_matches_inline_sums(n, trunc, param):
    c2n = qf.ultraspherical(2 * n, trunc, param)
    assert c2n.halve_z() == ultra_half_sum(n, trunc, param)
    if param == "t":
        assert c2n == bosonic_jsum(n, trunc)


# -- Pochhammer products as binomial updates --------------------------

def reference_poch(base, n):
    # frozen copy of the product loop poch_finite (n >= 0) ran before it
    # used binomial updates; poch_infinite multiplied the same factors
    # until the shifted base left the caps
    result = one(base.trunc)
    for _ in range(n):
        result = result * (one(base.trunc) - base)
        base = base.shift(e_q=1)
    return result


def reference_combined_poch(b, n, trunc):
    # frozen copy of combined_poch's product loop: prod_{i<n} (b - q^i)
    result = one(trunc)
    for i in range(n):
        result = result * (mono(b, trunc=trunc) - mono(e_q=i, trunc=trunc))
    return result


_rationals = st.one_of(st.just(0), st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def _monomial_bases(draw):
    # (trunc, c, exponents): c rational or 0, exponents on, below or past
    # the caps, z present, s present or absent
    trunc = draw(_truncs)
    caps = (trunc.max_q, trunc.max_t, trunc.s_cap)
    exps = tuple(draw(st.sampled_from([0, 1, cap, cap + 1]) | st.integers(0, cap))
                 for cap in caps)
    return trunc, draw(_rationals), exps + (draw(st.integers(-2, 2)),)


@settings(max_examples=150, deadline=None)
@given(_monomial_bases(), st.lists(st.integers(0, 6), min_size=1, max_size=4))
@example((TRS, 0, (1, 1, 0, 0)), [3])                  # c = 0
@example((TR, Fraction(-2, 3), (7, 0, 0, 1)), [2])     # past the q-cap
@example((TR, 1, (0, 5, 0, -1)), [2])                  # past the t-cap
@example((TR, 2, (0, 0, 0, 0)), [2])                   # constant base
@example((TRS, 1, (0, 0, 0, 2)), [2])                  # z-only base
def test_inv_poch_matches_inverted_product(case, ns):
    trunc, c, e = case
    a = (c, *e)
    base = TruncatedSeries(trunc, {e: c})
    for n in ns:            # in drawn order, so the memo is extended out of order
        product = reference_poch(base, n)
        assert qf.poch_finite(a, n, trunc) == product
        try:
            want = product.invert()
        except NonInvertible:
            with pytest.raises(NonInvertible):
                qf.inv_poch(a, n, trunc)
            continue
        assert qf.inv_poch(a, n, trunc) == want
    full = reference_poch(base, trunc.max_q + 1)
    assert qf.poch_infinite(a, trunc) == full
    if c and not any(e[:3]):    # nonzero base of (q,t,s)-degree 0: Euler's series diverges
        with pytest.raises(NonInvertible):
            qf.inv_poch_infinite(a, trunc)
    else:
        assert qf.inv_poch_infinite(a, trunc) == full.invert()


@settings(max_examples=40, deadline=None)
@given(_truncs, _rationals, st.integers(0, 6))
def test_combined_poch_matches_product_loop(trunc, b, n):
    assert qf.combined_poch(b, n, trunc) == reference_combined_poch(b, n, trunc)


def test_inv_poch_zero_base_and_errors():
    # (0 qt;q)_n = 1, the zero-parameter factor of the chain lift
    for n in range(4):
        assert qf.inv_poch((0, 1, 1, 0, 0), n, TR) == one()
        assert qf.qt_poch(0, n, TR) == one()
    with pytest.raises(DomainError):
        qf.inv_poch((1, 1, 0, 0, 0), -1, TR)
    with pytest.raises(DomainError):
        qf.poch_finite((1, 1, 0, 0, 0), -1, TR)
    assert qf.inv_qq(3, TR) == reference_poch(mono(e_q=1), 3).invert()
    assert qf.inv_tq(3, TRS) == reference_poch(mono(e_q=1, e_t=1, trunc=TRS), 3).invert()
