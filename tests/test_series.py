"""Ring-level tests for the truncated series core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey.errors import (DomainError, NonInvertible, TruncationMismatch,
                            TruncationOverflow)
from qbailey.series import Monomial, TruncatedSeries, Truncation

TR = Truncation(6, 4)
TRS = Truncation(4, 3, 2)


def S(terms, trunc=TR):
    return TruncatedSeries(trunc, terms)


def one(trunc=TR):
    return TruncatedSeries.one(trunc)


def test_add_examples():
    f = S({(1, 0, 0, 0): 1, (0, 0, 0, 0): 1})          # 1 + q
    g = S({(0, 1, 0, 0): 1, (1, 0, 0, 0): -1})         # t - q
    assert f + g == S({(0, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    assert f + TruncatedSeries.zero(TR) == f
    h = S({(0, 0, 0, 2): 1, (0, 0, 0, -2): 1})
    assert h + S({(0, 0, 0, 2): -1}) == S({(0, 0, 0, -2): 1})


def test_mul_telescoping():
    geo = S({(i, 0, 0, 0): 1 for i in range(TR.max_q + 1)})
    f = one() - TruncatedSeries.variable(TR, "q")
    assert f * geo == one()


def test_mul_laurent():
    z = TruncatedSeries.monomial(TR, 1, e_z=1)
    zi = TruncatedSeries.monomial(TR, 1, e_z=-1)
    assert z * zi == one()
    a = one() + TruncatedSeries.monomial(TR, 1, e_t=1, e_z=2)
    b = one() + TruncatedSeries.monomial(TR, 1, e_t=1, e_z=-2)
    expected = S({(0, 0, 0, 0): 1, (0, 1, 0, 2): 1, (0, 1, 0, -2): 1,
                  (0, 2, 0, 0): 1})
    assert a * b == expected


def test_truncation_mismatch_is_usage_error():
    with pytest.raises(TruncationMismatch):
        one(TR) + one(Truncation(3, 3))
    with pytest.raises(TruncationMismatch):
        one(TR) * one(Truncation(3, 3))


def test_invert_geometric():
    t = TruncatedSeries.variable(TR, "t")
    inv = (one() - t).invert()
    assert inv == S({(0, i, 0, 0): 1 for i in range(TR.max_t + 1)})
    assert one().invert() == one()
    tq = TruncatedSeries.monomial(TR, 1, e_q=1, e_t=1)
    assert (one() - tq).invert() == S({(i, i, 0, 0): 1 for i in range(TR.max_t + 1)})


def test_invert_errors():
    t = TruncatedSeries.variable(TR, "t")
    with pytest.raises(NonInvertible):
        t.invert()
    # a z-only term of (q,t,s)-degree zero blocks the graded iteration
    zsq = TruncatedSeries.monomial(TR, 1, e_z=2)
    with pytest.raises(NonInvertible):
        (one() + zsq).invert()


def test_coefficient_lookup():
    f = one() + TruncatedSeries.monomial(TR, 1, e_q=1, e_t=1)
    assert f.coefficient((1, 1, 0, 0)) == 1
    assert f.coefficient((2, 0, 0, 0)) == 0
    assert f.coefficient(Monomial(1, 1, 0, 0)) == 1


def test_coefficient_of_unrefined_index_by_brute_force():
    # independent brute force of the k=1 multisum at z=1:
    # sum_n t^n / (q;q)_n * sum_j [2n,j]_q, coefficient of t q is 4
    trunc = Truncation(3, 2)
    total = TruncatedSeries.zero(trunc)
    for n in range(trunc.max_t + 1):
        qq = TruncatedSeries.one(trunc)
        for i in range(1, n + 1):
            qq = qq * (TruncatedSeries.one(trunc)
                       - TruncatedSeries.monomial(trunc, 1, e_q=i))
        inner = TruncatedSeries.zero(trunc)
        for j in range(2 * n + 1):
            num = TruncatedSeries.one(trunc)
            for i in range(1, 2 * n + 1):
                num = num * (TruncatedSeries.one(trunc)
                             - TruncatedSeries.monomial(trunc, 1, e_q=i))
            den = TruncatedSeries.one(trunc)
            for i in range(1, j + 1):
                den = den * (TruncatedSeries.one(trunc)
                             - TruncatedSeries.monomial(trunc, 1, e_q=i))
            for i in range(1, 2 * n - j + 1):
                den = den * (TruncatedSeries.one(trunc)
                             - TruncatedSeries.monomial(trunc, 1, e_q=i))
            inner = inner + num * den.invert()
        total = total + TruncatedSeries.monomial(trunc, 1, e_t=n) * qq.invert() * inner
    assert total.coefficient((0, 1, 0, 0)) == 3
    assert total.coefficient((1, 1, 0, 0)) == 4


def test_flip_z():
    f = S({(0, 0, 0, 2): 1, (0, 0, 0, 0): 1})
    assert f.flip_z() == S({(0, 0, 0, -2): 1, (0, 0, 0, 0): 1})
    g = S({(1, 2, 0, -3): Fraction(2, 3), (0, 0, 0, 1): -1})
    assert g.flip_z().flip_z() == g


def test_halve_z():
    f = S({(0, 0, 0, 4): 1, (1, 0, 0, -2): Fraction(2, 3), (0, 0, 0, 0): 1})
    assert f.halve_z() == S({(0, 0, 0, 2): 1, (1, 0, 0, -1): Fraction(2, 3),
                             (0, 0, 0, 0): 1})
    with pytest.raises(DomainError):
        S({(0, 0, 0, 2): 1, (1, 0, 0, 1): 1}).halve_z()


def test_specialize_rational():
    tz2 = TruncatedSeries.monomial(TR, 1, e_t=1, e_z=2)
    assert tz2.specialize("z", 1) == TruncatedSeries.variable(TR, "t")
    f = one(TRS) + TruncatedSeries.variable(TRS, "s")
    assert f.specialize("s", 0) == one(TRS)
    zi = TruncatedSeries.monomial(TR, 1, e_z=-2)
    assert zi.specialize("z", Fraction(1, 2)) == S({(0, 0, 0, 0): 4})
    with pytest.raises(DomainError):
        zi.specialize("z", 0)


def test_specialize_variable_target():
    schur_ok = Truncation(4, 6)
    tq = TruncatedSeries.monomial(schur_ok, 1, e_q=1, e_t=1)
    assert tq.specialize("t", "q") == S({(2, 0, 0, 0): 1}, schur_ok)
    # schur-type substitution needs cap(t) >= cap(q)
    narrow = Truncation(4, 2)
    f = TruncatedSeries.monomial(narrow, 1, e_t=1)
    with pytest.raises(TruncationOverflow):
        f.specialize("t", "q")
    # terms pushed past the target cap reduce away
    wide = Truncation(2, 4)
    g = TruncatedSeries.monomial(wide, 1, e_q=1, e_t=2)
    assert g.specialize("t", "q").is_zero()


def test_render_canonical():
    f = S({(0, 0, 0, -2): 1, (0, 0, 0, 2): Fraction(-1, 2), (1, 0, 0, 0): 3})
    assert f.render() == ("1/1 * q^0 t^0 s^0 z^-2 + -1/2 * q^0 t^0 s^0 z^2 + "
                          "3/1 * q^1 t^0 s^0 z^0")
    assert TruncatedSeries.zero(TR).render() == "0"


def test_construction_reduces_mod_ideal():
    f = S({(7, 0, 0, 0): 1, (0, 5, 0, 0): 2, (1, 1, 0, 0): 1})
    assert f == S({(1, 1, 0, 0): 1})
    with pytest.raises(DomainError):
        S({(-1, 0, 0, 0): 1})


def test_determinism_bit_identical():
    def build():
        f = one() + TruncatedSeries.monomial(TR, Fraction(1, 3), e_q=2, e_z=-1)
        return ((f * f + f) * f).render()
    assert build() == build()


# -- property tests ----------------------------------------------------

_coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5))

_monos = st.tuples(st.integers(0, TRS.max_q), st.integers(0, TRS.max_t),
                   st.integers(0, TRS.max_s), st.integers(-2, 2))

_series = st.dictionaries(_monos, _coeffs, max_size=5).map(
    lambda d: TruncatedSeries(TRS, d))


@given(_series, _series)
def test_add_commutes(f, g):
    assert f + g == g + f


@given(_series, _series)
def test_mul_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=60)
@given(_series, _series, _series)
def test_mul_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60)
@given(_series, _series, _series)
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(_series)
def test_invert_of_unit(f):
    g = f + TruncatedSeries.one(TRS) - TruncatedSeries(
        TRS, {(0, 0, 0, 0): f.constant_term()})
    # g now has constant term exactly 1; drop degree-zero z-terms that
    # would make it a non-unit
    g = TruncatedSeries(TRS, {k: c for k, c in g._terms.items()
                              if not (k[0] == k[1] == k[2] == 0 and k[3] != 0)})
    assert g.invert() * g == TruncatedSeries.one(TRS)


@given(_series, _series)
def test_flip_z_is_a_homomorphism(f, g):
    assert (f + g).flip_z() == f.flip_z() + g.flip_z()
    assert (f * g).flip_z() == f.flip_z() * g.flip_z()
