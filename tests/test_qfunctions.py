"""Tests for Pochhammer symbols, q-binomials, the polynomial families,
and the constant-term layer."""

from fractions import Fraction

import pytest
from conftest import clear_caches
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
        zs = [m.e_z for m, _ in h.terms()]
        lo, hi = min(zs), max(zs)
        assert lo == -n and hi == n
        assert all((m.e_z - n) % 2 == 0 for m, _ in h.terms())
        assert h.flip_z() == h


def test_ultraspherical():
    assert qf.ultraspherical(0, TR, "t") == one()
    t = TruncatedSeries.variable(TR, "t")
    q = TruncatedSeries.variable(TR, "q")
    ratio = (one() - t) * (one() - q).invert()
    assert qf.ultraspherical(1, TR, "t") == ratio * (mono(e_z=1) + mono(e_z=-1))
    # parameter equal to q collapses every Pochhammer ratio, and with it
    # the ultraspherical sum to sum_j z^(n-2j)
    ratios = [qf.poch_finite(Q, j, TR) * qf.inv_qq(j, TR) for j in range(4)]
    assert all(r == one() for r in ratios)
    for n in range(4):
        collapsed = sum(((ratios[j] * ratios[n - j]).shift(e_z=n - 2 * j)
                         for j in range(n + 1)), TruncatedSeries.zero(TR))
        expected = sum((mono(e_z=n - 2 * j) for j in range(n + 1)),
                       TruncatedSeries.zero(TR))
        assert collapsed == expected
    for n in range(5):
        c = qf.ultraspherical(n, TR, "t")
        assert c.flip_z() == c


def test_ultraspherical_parameter_is_t_or_s():
    # q is a ring variable too, but not a parameter of the family
    for param in ("q", "z", "T"):
        with pytest.raises(DomainError, match="'t' or 's'"):
            qf.ultraspherical(2, TR, param)


def reference_ct_z(f):
    """The one-factor constant term as first written: the z^0 terms of a
    whole product, its symmetry checked on the product; the frozen
    oracle of the two-factor qf.ct_z."""
    if f.flip_z() != f:
        raise DomainError("ct_z requires a series symmetric under z -> 1/z")
    return TruncatedSeries(f.trunc, {k: c for (k, c) in f.terms() if k[3] == 0})


def test_ct_z():
    f = mono(e_z=2) + mono(3) + mono(e_z=-2)
    assert qf.ct_z(f, one()) == mono(3)
    with pytest.raises(DomainError):
        qf.ct_z(mono(e_z=2) + mono(3), one())
    # weight at q-cap zero is (1-z^2)(1-z^-2) with constant term 2
    tr0 = Truncation(0, 0)
    assert qf.ct_z(qf.hermite_weight(tr0), one(tr0)) == TruncatedSeries.monomial(tr0, 2)
    # each factor is checked, not only the product: (3 + z)(3 + z^-1)
    # is symmetric, its factors are not
    with pytest.raises(DomainError):
        qf.ct_z(mono(3) + mono(e_z=1), mono(3) + mono(e_z=-1))
    with pytest.raises(DomainError):
        qf.ct_z(f, mono(e_z=1) + mono(3))


@st.composite
def symmetric_series(draw, trunc):
    """f + f(1/z) for a random sparse f with rational coefficients."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, trunc.max_q), st.integers(0, trunc.max_t),
                  st.integers(0, trunc.s_cap), st.integers(-4, 4)),
        st.fractions(-5, 5, max_denominator=6), max_size=12))
    f = TruncatedSeries(trunc, terms)
    return f + f.flip_z()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), caps=st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 2)))
def test_ct_z_matches_the_constant_term_of_the_product(data, caps):
    trunc = Truncation(*caps)
    a = data.draw(symmetric_series(trunc))
    b = data.draw(symmetric_series(trunc))
    assert qf.ct_z(a, b) == reference_ct_z(a * b)


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


def reference_hermite_expansion_coeff(n, l, trunc):
    # the orthogonality route as first written: the four-factor
    # integrand formed for each (n, l)
    integrand = (qf.ultraspherical(2 * n, trunc, "t")
                 * qf.inv_poch_infinite((1, 0, 1, 0, 2), trunc)
                 * qf.inv_poch_infinite((1, 0, 1, 0, -2), trunc)
                 * qf.hermite(2 * l, trunc) * qf.hermite_weight(trunc))
    return (reference_ct_z(integrand) * qf.poch_infinite(Q, trunc)
            * qf.inv_qq(2 * l, trunc)).scale(Fraction(1, 2))


def reference_hermite_expansion_coeff_closed(n, l, trunc):
    # the closed form as first written, (t,tq;q)_inf formed per (n, l)
    if l < n:
        return TruncatedSeries.zero(trunc)
    out = (qf.poch_infinite(T, trunc) * qf.poch_infinite((1, 1, 1, 0, 0), trunc)
           * qf.inv_poch_infinite((1, 2 * n, 2, 0, 0), trunc)
           * qf.inv_qq(2 * n, trunc) * qf.inv_qq(l - n, trunc) * qf.inv_tq(l + n, trunc))
    return out.shift(e_t=l - n)


@pytest.mark.parametrize("trunc", [TR, Truncation(8, 6)], ids=["6x4", "8x6"])
def test_expansion_coeff_sides_match_reference(trunc):
    clear_caches()
    for n in range(4):
        for l in range(4):
            assert qf.hermite_expansion_coeff(n, l, trunc) == \
                reference_hermite_expansion_coeff(n, l, trunc)
            assert qf.hermite_expansion_coeff_closed(n, l, trunc) == \
                reference_hermite_expansion_coeff_closed(n, l, trunc)


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
    x = {"t": T, "s": (1, 0, 0, 1, 0)}[param]
    total = TruncatedSeries.zero(trunc)
    for j in range(2 * n + 1):
        total = total + (qf.poch_ratio(x, j, trunc)
                         * qf.poch_ratio(x, 2 * n - j, trunc)).shift(e_z=j - n)
    return total


def bosonic_jsum(n, trunc):
    # the j-sum of the bosonic summand and of the parametrized bosonic side
    jsum = TruncatedSeries.zero(trunc)
    for j in range(2 * n + 1):
        jsum = jsum + (qf.poch_ratio(T, j, trunc)
                       * qf.poch_ratio(T, 2 * n - j, trunc)).shift(e_z=2 * j - 2 * n)
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


@settings(max_examples=100, deadline=None)
@given(_monomial_bases(), st.lists(st.integers(0, 6), min_size=1, max_size=4))
@example((TRS, 0, (1, 1, 0, 0)), [3, 1])               # c = 0
@example((TRS, Fraction(2, 3), (1, 1, 1, -2)), [4, 0, 2])
@example((TRS, 1, (0, 0, 1, 2)), [2, 5])               # the wp relation's (s;q)_j
@example((TR, 1, (1, 0, 0, 0)), [3, 0, 5])             # a = q: the ratio is 1, not (q;q)_j
def test_poch_ratio_and_both_tables_match_the_products(case, js):
    # poch_ratio(a, j) = (a;q)_j / (q;q)_j for any monomial base; the
    # product and the division table of one base, each extended out of
    # order, stay two tables: their entries at each n multiply to 1
    trunc, c, e = case
    a = (c, *e)
    base = TruncatedSeries(trunc, {e: c})
    clear_caches()
    for j in js:            # in drawn order, so the tables grow out of order
        want = reference_poch(base, j) * reference_poch(mono(e_q=1, trunc=trunc), j).invert()
        assert qf.poch_ratio(a, j, trunc) == want
    # 1 - a is a unit unless a is a nonzero base of (q,t,s)-degree 0
    # that is z-dependent or equal to 1
    unit = not c or any(e[:3]) or not (e[3] or c == 1)
    for n in sorted(js, reverse=True):
        if n and not unit:
            continue
        assert qf.inv_poch(a, n, trunc) * qf.poch_finite(a, n, trunc) == one(trunc)


@st.composite
def _infinite_products(draw):
    # (trunc, num, den): 0-3 bases each over one truncation; a
    # denominator base has positive (q,t,s)-degree, so it is invertible
    trunc = draw(_truncs)
    caps = (trunc.max_q, trunc.max_t, trunc.s_cap)

    def base(positive):
        exps = tuple(draw(st.integers(0, cap + 1)) for cap in caps)
        if positive and not any(exps):
            exps = (1, *exps[1:])
        return (draw(_rationals), *exps, draw(st.integers(-2, 2)))

    num = tuple(base(False) for _ in range(draw(st.integers(0, 3))))
    den = tuple(base(True) for _ in range(draw(st.integers(0, 3))))
    return trunc, num, den


@settings(max_examples=60, deadline=None)
@given(_infinite_products())
@example((TR, (), ()))
@example((TRS, ((1, 0, 0, 0, 2), (1, 0, 0, 0, -2)), ((1, 0, 0, 1, 2), (1, 0, 0, 1, -2))))
def test_infinite_product_matches_the_product_loops(case):
    # (num;q)_inf / (den;q)_inf against the frozen product loop, each
    # denominator factor inverted; the factor order does not change the
    # series, and a repeated call reads the memo
    trunc, num, den = case
    want = one(trunc)
    for c, *e in num:
        want = want * reference_poch(TruncatedSeries(trunc, {tuple(e): c}), trunc.max_q + 1)
    for c, *e in den:
        want = want * reference_poch(TruncatedSeries(trunc, {tuple(e): c}),
                                     trunc.max_q + 1).invert()
    got = qf.infinite_product(num, den, trunc)
    assert got == want
    assert qf.infinite_product(num[::-1], den[::-1], trunc) == want
    assert qf.infinite_product(num, den, trunc) is got


@settings(max_examples=40, deadline=None)
@given(_truncs, _rationals, st.integers(0, 6))
def test_combined_poch_matches_product_loop(trunc, b, n):
    assert qf.combined_poch(b, n, trunc) == reference_combined_poch(b, n, trunc)


@settings(max_examples=40, deadline=None)
@given(_truncs, _rationals, st.lists(st.integers(0, 6), min_size=1, max_size=4))
@example(TR, 0, [5, 2, 6])                             # b = 0 read out of order
def test_combined_poch_table_grows_out_of_order(trunc, b, ns):
    clear_caches()
    for n in ns:            # in drawn order, so the table grows out of order
        assert qf.combined_poch(b, n, trunc) == reference_combined_poch(b, n, trunc)


@pytest.mark.parametrize("base", [Q, T, (Fraction(-2, 3), 1, 1, 0, 2)])
def test_one_base_keeps_a_table_per_kind(base):
    # poch_finite, inv_poch and poch_ratio read one base in turn, each
    # from its own table: a table shared between two kinds would serve
    # the entries of the kind read first
    clear_caches()
    series = TruncatedSeries(TR, {base[1:]: base[0]})
    for n in (4, 2):
        product = reference_poch(series, n)
        assert qf.poch_finite(base, n, TR) == product
        assert qf.inv_poch(base, n, TR) == product.invert()
        assert qf.poch_ratio(base, n, TR) == product * reference_poch(mono(e_q=1), n).invert()
    assert qf._prefixes.cache_info().currsize == 3


@pytest.mark.parametrize("n", [-2, 2.0, Fraction(2)], ids=repr)
@pytest.mark.parametrize("build", [
    lambda n: qf.poch_finite(Q, n, TR), lambda n: qf.inv_poch(T, n, TR),
    lambda n: qf.inv_qq(n, TR), lambda n: qf.inv_tq(n, TR),
    lambda n: qf.poch_ratio(T, n, TR), lambda n: qf.combined_poch(0, n, TR),
    lambda n: qf.combined_poch(Fraction(1, 2), n, TR)],
    ids=["poch_finite", "inv_poch", "inv_qq", "inv_tq", "poch_ratio", "combined_poch-0",
         "combined_poch-half"])
def test_a_finite_pochhammer_refuses_a_non_int_or_negative_index(build, n):
    # checked before the table read: a float index would reach table[n],
    # and combined_poch at b = 0 must not build q^binom(n,2) for any n
    with pytest.raises(DomainError, match="n >= 0"):
        build(n)


def test_inv_poch_zero_base_and_errors():
    # (0 qt;q)_n = 1, the zero-parameter factor of the chain lift
    for n in range(4):
        assert qf.inv_poch((0, 1, 1, 0, 0), n, TR) == one()
        assert qf.poch_finite((0, 1, 1, 0, 0), n, TR) == one()
    with pytest.raises(DomainError):
        qf.inv_poch((1, 1, 0, 0, 0), -1, TR)
    with pytest.raises(DomainError):
        qf.poch_finite((1, 1, 0, 0, 0), -1, TR)
    assert qf.inv_qq(3, TR) == reference_poch(mono(e_q=1), 3).invert()
    assert qf.inv_tq(3, TRS) == reference_poch(mono(e_q=1, e_t=1, trunc=TRS), 3).invert()


def test_inexact_pochhammer_base_is_refused():
    # a float base would store float coefficients in the exact ring;
    # 0.3 equals no exact base whose prefix table may be cached
    with pytest.raises(DomainError, match="int or Fraction"):
        qf.poch_finite((0.3, 1, 0, 0, 0), 2, TR)


HALF = (Fraction(1, 2), 1, 0, 0, 0)
FLOAT_HALF = (0.5, 1, 0, 0, 0)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("exact_first", [False, True], ids=["float-first", "exact-first"])
def test_float_base_is_refused_whatever_the_cache_holds(n, exact_first):
    # 0.5 == Fraction(1, 2) with equal hashes, so a check made only when
    # a table is extended would let 0.5 read the exact base's table, and
    # at n = 0 no table is extended at all
    clear_caches()
    builders = (qf.poch_finite, qf.inv_poch)
    if exact_first:
        exact = [build(HALF, n, TR) for build in builders]
    for build in builders:
        with pytest.raises(DomainError, match="int or Fraction"):
            build(FLOAT_HALF, n, TR)
    if not exact_first:
        exact = [build(HALF, n, TR) for build in builders]
    assert exact == [reference_poch(mono(Fraction(1, 2), e_q=1), n),
                     reference_poch(mono(Fraction(1, 2), e_q=1), n).invert()]


@pytest.mark.parametrize("exact_first", [False, True], ids=["float-first", "exact-first"])
def test_memoized_products_refuse_a_float_base_whatever_the_cache_holds(exact_first):
    # poch_ratio and infinite_product keep tables keyed by their bases,
    # and 0.5 == Fraction(1, 2) with equal hashes: the base is checked
    # before the read, so 0.5 is refused cold and warm alike
    clear_caches()
    trunc = Truncation(4, 3)
    builders = ((lambda c: qf.poch_ratio((c, 1, 1, 0, 0), 2, trunc)),
                (lambda c: qf.infinite_product(((c, 1, 0, 0, 0),), (), trunc)),
                (lambda c: qf.infinite_product((), ((c, 1, 0, 0, 0),), trunc)))
    if exact_first:
        exact = [build(Fraction(1, 2)) for build in builders]
    for build in builders:
        with pytest.raises(DomainError, match="int or Fraction"):
            build(0.5)
    if not exact_first:
        exact = [build(Fraction(1, 2)) for build in builders]
    assert exact == [qf.poch_finite((Fraction(1, 2), 1, 1, 0, 0), 2, trunc) * qf.inv_qq(2, trunc),
                     qf.poch_infinite((Fraction(1, 2), 1, 0, 0, 0), trunc),
                     qf.inv_poch_infinite((Fraction(1, 2), 1, 0, 0, 0), trunc)]


def test_float_bases_and_parameters_are_refused():
    # (0.5 q^9;q)_inf at q-cap 4 is the empty product, (a;q)_0; the
    # exact values equal to the floats are cached first
    qf.poch_infinite(HALF, TR)
    qf.combined_poch(Fraction(1, 2), 2, TR)
    for build in (lambda: qf.poch_infinite((0.5, 9, 0, 0, 0), Truncation(4, 2)),
                  lambda: qf.poch_infinite(FLOAT_HALF, TR),
                  lambda: qf.inv_poch_infinite(FLOAT_HALF, TR),
                  lambda: qf.inv_poch_infinite((0.5, 0, 0, 0, 0), TR),
                  lambda: qf.combined_poch(0.5, 2, TR),
                  lambda: qf.combined_poch(0.1, 1, TR),
                  lambda: qf.combined_poch(0.0, 2, TR)):
        with pytest.raises(DomainError, match="int or Fraction"):
            build()
