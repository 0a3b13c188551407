"""Tests for the rational-point backend and the series-side B/Phi
evaluations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey import hypergeometric as hg
from qbailey.errors import DomainError, PoleError
from qbailey.series import TruncatedSeries, Truncation

FIXED = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5)})
FIXED_S = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5),
                            "s": Fraction(5, 7)})
TR = Truncation(6, 4)


def reference_poch_value(a, n, point):
    """(a;q)_n rebuilt factor by factor: a frozen copy of the loop that
    the per-point prefix tables replaced, kept as their oracle."""
    q = point["q"]
    if n >= 0:
        prod = Fraction(1)
        qk = Fraction(1)
        for _ in range(n):
            prod *= 1 - a * qk
            qk *= q
        return prod
    m = -n
    den = Fraction(1)
    for j in range(1, m + 1):
        den *= point.check_nonzero(1 - a * q ** (-j), f"(1 - ({a}) * q^(-{j}))")
    return 1 / den


def reference_inv_poch_value(a, n, point):
    """1/(a;q)_n rebuilt factor by factor; the oracle of inv_poch_value."""
    q = point["q"]
    if n >= 0:
        prod = Fraction(1)
        qk = Fraction(1)
        for k in range(n):
            prod *= point.check_nonzero(1 - a * qk, f"(1 - ({a}) * q^{k})")
            qk *= q
        return 1 / prod
    m = -n
    prod = Fraction(1)
    for j in range(1, m + 1):
        prod *= 1 - a * q ** (-j)
    return prod


def test_rational_point_validation():
    with pytest.raises(DomainError):
        hg.RationalPoint({"t": Fraction(1, 2)})
    with pytest.raises(DomainError):
        hg.RationalPoint({"q": Fraction(0)})
    # for a rational q the roots of unity are exactly 1 and -1
    for q, text in ((1, "q=1 is a root of unity of order 1"),
                    (-1, "q=-1 is a root of unity of order 2")):
        with pytest.raises(DomainError) as info:
            hg.RationalPoint({"q": Fraction(q)})
        assert str(info.value) == text
    assert hg.RationalPoint({"q": Fraction(89, 97)})["q"] == Fraction(89, 97)


def test_poch_value_negative_convention():
    q = FIXED["q"]
    # (a;q)_{-m} * (a q^{-m};q)_m = 1
    for a in (Fraction(3, 5), Fraction(7, 2)):
        for m in (1, 2, 3):
            assert hg.poch_value(a, -m, FIXED) * \
                hg.poch_value(a * q ** (-m), m, FIXED) == 1
    # 1/(q;q)_{-m} is exactly zero
    for m in (1, 2, 4):
        assert hg.inv_poch_value(q, -m, FIXED) == 0


def test_phi_terminating():
    point = FIXED
    q = point["q"]
    # empty-Pochhammer case: termination index 0
    assert hg.phi_terminating(hg.PhiSpec([Fraction(1)], [], q, 0), point) == 1
    # 1phi0(q^{-n};-;q,q) = (q^{1-n};q)_n = 0 for n >= 1
    for n in (1, 2, 5):
        spec = hg.PhiSpec([q ** (-n)], [], q, n)
        assert hg.phi_terminating(spec, point) == 0
    with pytest.raises(DomainError):
        hg.phi_terminating(hg.PhiSpec([Fraction(5)], [], q, 2), point)


def test_chu_vandermonde_against_direct_sum():
    point = hg.RationalPoint({"q": Fraction(2, 3), "a": Fraction(3, 7),
                              "c": Fraction(7, 13)})
    q, a, c = point["q"], point["a"], point["c"]
    for n in range(5):
        direct = Fraction(0)
        for m in range(n + 1):
            direct += (hg.poch_value(a, m, point)
                       * hg.poch_value(q ** (-n), m, point)
                       * hg.inv_poch_value(q, m, point)
                       * hg.inv_poch_value(c, m, point) * q ** m)
        assert direct == a ** n * hg.poch_value(c / a, n, point) \
            * hg.inv_poch_value(c, n, point)
        report = hg.classical_check("chu-vandermonde-2", point, n)
        assert report.passed


def test_classical_checks_fixed_and_random():
    rng = random.Random(20240601)
    cases = {"pfaff-saalschutz": ("q", "a", "b", "c"),
             "chu-vandermonde-2": ("q", "a", "c"),
             "qbinomial-theorem": ("q", "z"),
             "sixphi5": ("q", "a", "b", "c")}
    for name, names in cases.items():
        for n in (0, 3, 6):
            reports = hg.run_at_random_points(
                lambda point, seed, name=name, n=n:
                    hg.classical_check(name, point, n, seed),
                names, 4, rng.randrange(2 ** 31))
            assert all(r.passed for r in reports), name


def test_heine_first_transformation():
    for a in (Fraction(3, 7), Fraction(9, 4), Fraction(-2, 5)):
        lhs, rhs = hg.heine1_sides(a, Truncation(8, 8, 8))
        assert lhs == rhs
    report = hg.classical_check(
        "heine-1", hg.RationalPoint({"q": Fraction(2, 3), "a": Fraction(3, 7)}), 0)
    assert report.passed


def test_s_closed_form():
    for n in range(4):
        for d in range(-6, 7):
            assert hg.s_sum(d, n, FIXED) == hg.s_closed(d, n, FIXED)
    # n = 0 collapses to the single j = 0 term
    t = FIXED["t"]
    for d in range(-3, 4):
        expected = hg.poch_value(1 / t, d, FIXED) * t ** d \
            * hg.inv_poch_value(t, d, FIXED)
        assert hg.s_sum(d, 0, FIXED) == expected
    reports = hg.run_at_random_points(
        lambda point, seed: hg.s_closed_check(3, 2, point, seed),
        ("q", "t"), 10, 7)
    assert all(r.passed for r in reports)


def test_s_symmetry():
    for l in range(4):
        for n in range(4):
            assert hg.s_symmetry_check(l, n, FIXED).passed


def test_expansion_coeff_identity():
    for l in range(5):
        for n in range(5):
            assert hg.expansion_coeff_check(l, n, FIXED).passed
    # l = 1, n = 0: both sides equal t^2 / ((1-q)(1-tq))
    q, t = FIXED["q"], FIXED["t"]
    expected = t ** 2 / ((1 - q) * (1 - t * q))
    report = hg.expansion_coeff_check(1, 0, FIXED)
    assert report.passed
    assert hg.s_sum(0, 0, FIXED) == 1   # sanity on the backend itself
    lhs = Fraction(0)
    for j in range(3):
        lhs += (hg.poch_value(q ** (j - 1), 0, FIXED)
                * hg.poch_value(1 / t, j - 1, FIXED) * t ** j
                * hg.inv_poch_value(q, j, FIXED)
                * hg.inv_poch_value(q, 2 - j, FIXED)
                * hg.inv_poch_value(t, j - 1, FIXED))
    assert lhs == expected


def test_wp_expansion_coeff_identity():
    for l in range(4):
        for n in range(4):
            assert hg.wp_expansion_coeff_check(l, n, FIXED_S).passed
    assert hg.wp_expansion_coeff_check(0, 0, FIXED_S).passed
    reports = hg.run_at_random_points(
        lambda point, seed: hg.wp_expansion_coeff_check(3, 1, point, seed),
        ("q", "t", "s"), 8, 11)
    assert all(r.passed for r in reports)


def test_wp_reduces_at_s_zero():
    zero_s = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5),
                               "s": Fraction(0)})
    for l in range(4):
        for n in range(3):
            wp = hg.wp_expansion_coeff_check(l, n, zero_s)
            plain = hg.expansion_coeff_check(l, n, FIXED)
            assert wp.passed and plain.passed


def test_pole_error_names_factor():
    # q = 2/3, t = 3/2: 1/t = q makes (1 - (1/t) q^(-1)) vanish in the
    # negative-index Pochhammer (1/t;q)_{-2}, and t q = 1 makes
    # (1 - t q) vanish in the denominator (t;q)_n for n >= 2
    point = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 2)})
    cases = [
        (lambda: hg.expansion_coeff_check(1, 1, point), "(1 - (2/3) * q^(-1))"),
        (lambda: hg.poch_value(Fraction(4, 9), -3, point), "(1 - (4/9) * q^(-2))"),
        (lambda: hg.inv_poch_value(Fraction(3, 2), 4, point), "(1 - (3/2) * q^1)"),
        (lambda: hg.s_sum(2, 2, point), "(1 - (3/2) * q^1)"),
    ]
    for call, factor in cases:
        with pytest.raises(PoleError) as err:
            call()
        assert err.value.factor == factor


_q = st.builds(Fraction, st.integers(-9, 9).filter(bool),
               st.integers(1, 9)).filter(lambda q: abs(q) != 1)


@st.composite
def _point_and_calls(draw):
    """A point, a few bases (free rationals of both signs, or pole bases
    q^k that zero a factor of (a;q)_n or of (a q^n;q)_{-n}) and a random
    sequence of calls that share those bases."""
    q = draw(_q)
    base = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                     st.integers(-12, 12).map(lambda k: q ** k))
    bases = draw(st.lists(base, min_size=1, max_size=3))
    calls = draw(st.lists(st.tuples(st.sampled_from(bases), st.integers(-12, 12),
                                    st.booleans()), min_size=1, max_size=12))
    return q, calls


def _outcome(fn, a, n, point):
    try:
        return fn(a, n, point)
    except PoleError as err:
        return ("pole", err.factor)


@settings(max_examples=300, deadline=None)
@given(_point_and_calls())
def test_poch_values_match_reference_loops(case):
    q, calls = case
    point = hg.RationalPoint({"q": q})
    oracle_point = hg.RationalPoint({"q": q})
    for a, n, inverse in calls:
        fn, ref = ((hg.inv_poch_value, reference_inv_poch_value) if inverse
                   else (hg.poch_value, reference_poch_value))
        assert _outcome(fn, a, n, point) == _outcome(ref, a, n, oracle_point)


def test_b_phi_evaluations():
    one = TruncatedSeries.one(TR)
    assert hg.b_defining_sum(0, TR) == one
    assert hg.b_closed(0, TR) == one
    # n = 0 collapses to the single s = 0 term (q;q)_{n'}, with the
    # q^(n^2) and [n',n]_q factors of the closed form both equal to 1
    from qbailey.qfunctions import poch_finite
    for nprime in range(4):
        assert hg.phi_defining_sum(0, nprime, TR) == poch_finite((1, 1, 0, 0, 0), nprime, TR)
        assert hg.phi_closed(0, nprime, TR) == poch_finite((1, 1, 0, 0, 0), nprime, TR)
    for n in range(2, 5):
        for nprime in range(n):
            assert hg.phi_closed(n, nprime, TR).is_zero()
            assert hg.phi_defining_sum(n, nprime, TR).is_zero()
    for n in range(6):
        assert hg.b_defining_sum(n, TR) == hg.b_closed(n, TR)
        for nprime in range(6):
            assert hg.phi_defining_sum(n, nprime, TR) == \
                hg.phi_closed(n, nprime, TR)
    b, phi = hg.b_phi_defining_sums(2, 3, TR)
    assert b == hg.b_closed(2, TR) and phi == hg.phi_closed(2, 3, TR)
