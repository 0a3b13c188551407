"""Tests for the rational-point backend and the series-side B/Phi
evaluations."""

import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import clear_caches
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbailey import cli
from qbailey import hypergeometric as hg
from qbailey import qfunctions as qf
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
    for values, text in (({"t": Fraction(1, 2)}, "a rational point must assign q"),
                         ({"q": Fraction(0)}, "q must be nonzero"),
                         ({"q": 0}, "q must be nonzero")):
        with pytest.raises(DomainError) as info:
            hg.RationalPoint(values)
        assert str(info.value) == text
    # for a rational q the roots of unity are exactly 1 and -1
    for q, text in ((1, "q=1 is a root of unity of order 1"),
                    (-1, "q=-1 is a root of unity of order 2")):
        with pytest.raises(DomainError) as info:
            hg.RationalPoint({"q": Fraction(q)})
        assert str(info.value) == text
    assert hg.RationalPoint({"q": Fraction(89, 97)})["q"] == Fraction(89, 97)
    # a float would enter as its binary expansion: every point value,
    # Pochhammer base and index and series argument is refused, before
    # and after a table of an equal exact base is built
    point = hg.RationalPoint({"q": Fraction(2, 3)})
    q, half = point["q"], Fraction(1, 2)
    for call in (lambda: hg.RationalPoint({"q": 0.1}),
                 lambda: hg.RationalPoint({"q": Fraction(2, 3), "t": 0.5}),
                 lambda: hg.poch_value(0.5, 2, point),
                 lambda: hg.inv_poch_value(0.5, -2, point),
                 lambda: hg.poch_value(half, 2.0, point),
                 lambda: hg.inv_poch_value(half, Fraction(2), point),
                 lambda: hg.phi_terminating([q ** -1], [], 0.5, 1, point)):
        for _ in range(2):
            with pytest.raises(DomainError, match="int"):
                call()
            for n in (3, -3):
                hg.poch_value(half, n, point)
                hg.inv_poch_value(half, n, point)


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
    assert hg.phi_terminating([Fraction(1)], [], q, 0, point) == 1
    # 1phi0(q^{-n};-;q,q) = (q^{1-n};q)_n = 0 for n >= 1
    for n in (1, 2, 5):
        assert hg.phi_terminating([q ** (-n)], [], q, n, point) == 0
    with pytest.raises(DomainError, match=r"needs an upper parameter q\^\(-2\)"):
        hg.phi_terminating([Fraction(5)], [], q, 2, point)


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
        closed = a ** n * hg.poch_value(c / a, n, point) * hg.inv_poch_value(c, n, point)
        assert direct == closed
        assert hg.classical_sides("chu-vandermonde-2", point, n) == (direct, closed)


@pytest.mark.parametrize("name, values", [
    ("pfaff-saalschutz", {"a": Fraction(1, 8), "b": Fraction(3, 5), "c": Fraction(5, 7)}),
    ("pfaff-saalschutz", {"a": Fraction(3, 5), "b": Fraction(1, 8), "c": Fraction(5, 7)}),
    ("chu-vandermonde-2", {"a": Fraction(1, 8), "c": Fraction(5, 7)}),
])
def test_classical_checks_with_a_second_terminating_parameter(name, values):
    # at q = 2 a parameter 1/8 is q^(-3) too: the series still ends at
    # n = 3, and the identity holds
    point = hg.RationalPoint({"q": Fraction(2), **values})
    lhs, rhs = hg.classical_sides(name, point, 3)
    assert lhs == rhs


def test_classical_checks_fixed_and_random():
    rng = random.Random(20240601)
    cases = {"pfaff-saalschutz": ("q", "a", "b", "c"),
             "chu-vandermonde-2": ("q", "a", "c"),
             "qbinomial-theorem": ("q", "z"),
             "sixphi5": ("q", "a", "b", "c")}
    for name, names in cases.items():
        for n in (0, 3, 6):
            sides = hg.run_at_random_points(
                lambda point, seed, name=name, n=n: hg.classical_sides(name, point, n),
                names, 4, rng.randrange(2 ** 31))
            assert len(sides) == 4 and all(lhs == rhs for lhs, rhs in sides), name


def reference_heine1_sides(a, trunc):
    # Heine's first transformation as first written: (t;q)_n / (q;q)_n
    # formed per n on the left and every infinite product per call on
    # the right
    lhs = TruncatedSeries.sum_of_products(
        trunc, ((qf.poch_finite((a, 0, 0, 0, 0), n, trunc)
                 * qf.poch_finite((1, 0, 1, 0, 0), n, trunc) * qf.inv_qq(n, trunc),
                 qf.inv_tq(n, trunc).shift(e_s=n))
                for n in range(trunc.s_cap + 1)))
    inner = TruncatedSeries.sum_of_products(
        trunc, ((qf.poch_finite((1, 0, 0, 1, 0), m, trunc),
                 qf.inv_poch((a, 0, 0, 1, 0), m, trunc).shift(e_t=m))
                for m in range(trunc.max_t + 1)))
    rhs = (qf.poch_infinite((1, 0, 1, 0, 0), trunc) * qf.poch_infinite((a, 0, 0, 1, 0), trunc)
           * qf.inv_poch_infinite((1, 1, 1, 0, 0), trunc)
           * qf.inv_poch_infinite((1, 0, 0, 1, 0), trunc) * inner)
    return lhs, rhs


@pytest.mark.parametrize("trunc", [Truncation(8, 8, 8), Truncation(5, 3, 6)],
                         ids=["8x8x8", "5x3x6"])
def test_heine1_sides_match_reference(trunc):
    clear_caches()
    for a in (Fraction(0), Fraction(3, 7), Fraction(9, 4), Fraction(-2, 5), Fraction(1)):
        for got, want in zip(hg.heine1_sides(a, trunc), reference_heine1_sides(a, trunc)):
            assert got == want


def test_heine_first_transformation():
    for a in (Fraction(3, 7), Fraction(9, 4), Fraction(-2, 5)):
        lhs, rhs = hg.heine1_sides(a, Truncation(8, 8, 8))
        assert lhs == rhs


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
    equal = hg.run_at_random_points(
        lambda point, seed: hg.s_sum(3, 2, point) == hg.s_closed(3, 2, point),
        ("q", "t"), 10, 7)
    assert equal == [True] * 10


def test_s_symmetry():
    for l in range(4):
        for n in range(4):
            lhs, rhs = hg.s_symmetry_sides(l, n, FIXED)
            assert lhs == rhs


def test_expansion_coeff_identity():
    for l in range(5):
        for n in range(5):
            lhs, rhs = hg.expansion_coeff_sides(l, n, FIXED)
            assert lhs == rhs
    # l = 1, n = 0: both sides equal t^2 / ((1-q)(1-tq))
    q, t = FIXED["q"], FIXED["t"]
    expected = t ** 2 / ((1 - q) * (1 - t * q))
    assert hg.expansion_coeff_sides(1, 0, FIXED) == (expected, expected)
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
            lhs, rhs = hg.wp_expansion_coeff_sides(l, n, FIXED_S)
            assert lhs == rhs
    assert hg.wp_expansion_coeff_sides(0, 0, FIXED_S) == (1, 1)
    sides = hg.run_at_random_points(
        lambda point, seed: hg.wp_expansion_coeff_sides(3, 1, point),
        ("q", "t", "s"), 8, 11)
    assert len(sides) == 8 and all(lhs == rhs for lhs, rhs in sides)


def test_wp_reduces_at_s_zero():
    zero_s = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5),
                               "s": Fraction(0)})
    for l in range(4):
        for n in range(3):
            lhs, rhs = hg.wp_expansion_coeff_sides(l, n, zero_s)
            assert lhs == rhs
            assert (lhs, rhs) == hg.expansion_coeff_sides(l, n, FIXED)


def test_pole_error_names_factor():
    # q = 2/3, t = 3/2: 1/t = q makes (1 - (1/t) q^(-1)) vanish in the
    # negative-index Pochhammer (1/t;q)_{-2}, and t q = 1 makes
    # (1 - t q) vanish in the denominator (t;q)_n for n >= 2
    point = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 2)})
    cases = [
        (lambda: hg.expansion_coeff_sides(1, 1, point), "(1 - (2/3) * q^(-1))"),
        (lambda: hg.poch_value(Fraction(4, 9), -3, point), "(1 - (4/9) * q^(-2))"),
        (lambda: hg.inv_poch_value(Fraction(3, 2), 4, point), "(1 - (3/2) * q^1)"),
        (lambda: hg.s_sum(2, 2, point), "(1 - (3/2) * q^1)"),
    ]
    # the closed forms divide by a (and by b): a zero is a named pole, so
    # that run_at_random_points redraws the point
    q, third = Fraction(2, 3), Fraction(1, 3)
    cases += [
        (lambda: hg.classical_sides("chu-vandermonde-2",
                                    hg.RationalPoint({"q": q, "a": 0, "c": third}), 2), "a"),
        (lambda: hg.classical_sides("pfaff-saalschutz",
                                    hg.RationalPoint({"q": q, "a": 0, "b": third, "c": third}),
                                    2), "a*b with a=0, b=1/3"),
        (lambda: hg.classical_sides("pfaff-saalschutz",
                                    hg.RationalPoint({"q": q, "a": third, "b": 0, "c": third}),
                                    1), "a*b with a=1/3, b=0"),
    ]
    for call, factor in cases:
        with pytest.raises(PoleError) as err:
            call()
        assert err.value.factor == factor


def test_a_check_that_always_meets_a_pole_is_a_domain_error():
    # every draw meets a pole, so the driver gives up after MAX_DRAWS
    # draws for the first point and names what it could not do
    drawn = []

    def pole(point, seed):
        drawn.append(point)
        raise PoleError("(1 - t)")

    with pytest.raises(DomainError, match="could not draw a pole-free point"):
        hg.run_at_random_points(pole, ("q", "t"), 2, 11)
    assert len(drawn) == hg.MAX_DRAWS


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


def _outcome(fn, *args):
    """fn's value, or the error it raised as a comparable tuple."""
    try:
        return fn(*args)
    except PoleError as err:
        return ("pole", err.factor)
    except (DomainError, ZeroDivisionError) as err:
        return (type(err).__name__, str(err))


# one pole base per direction, read past its pole, below it and past it
# again, by both kinds in turn: a reciprocal read meets the pole at and
# past it and is still served below it
@example((Fraction(2, 3), [
    (Fraction(9, 4), 5, True), (Fraction(9, 4), 4, False), (Fraction(9, 4), 2, True),
    (Fraction(9, 4), 6, True), (Fraction(9, 4), 1, False), (Fraction(9, 4), 3, True),
    (Fraction(8, 27), -5, False), (Fraction(8, 27), -4, True), (Fraction(8, 27), -2, False),
    (Fraction(8, 27), -3, False), (Fraction(8, 27), -6, True), (Fraction(8, 27), -1, False)]))
@example((Fraction(-3), [
    (1, 2, True), (1, 0, True), (1, 3, False), (1, 1, True),
    (Fraction(-3), -2, False), (Fraction(-3), 0, False), (Fraction(-3), -1, True),
    (Fraction(-3), -1, False)]))
# bases whose table pairs stay unreduced, in both directions (at q = 2/3,
# 4/9 = q^2 meets its pole going down and 3/2 = q^-1 going up), and a
# negative q with a pole base per direction read past its pole, below
# it and past it again
@example((Fraction(2, 3), [
    (Fraction(4, 9), 4, False), (Fraction(4, 9), 5, True), (Fraction(4, 9), -4, False),
    (Fraction(4, 9), -3, True), (Fraction(4, 9), -1, False),
    (Fraction(3, 2), 3, False), (Fraction(3, 2), 4, True), (Fraction(3, 2), -5, False),
    (Fraction(3, 2), -4, True), (Fraction(3, 2), 1, True)]))
@example((Fraction(-3, 2), [
    (Fraction(4, 9), 3, True), (Fraction(4, 9), 1, True), (Fraction(4, 9), 5, True),
    (Fraction(4, 9), 4, False), (Fraction(9, 4), -3, False), (Fraction(9, 4), -1, False),
    (Fraction(9, 4), -4, False), (Fraction(9, 4), -2, True),
    (Fraction(5, 7), 6, False), (Fraction(5, 7), -6, True)]))
@settings(max_examples=300, deadline=None)
@given(_point_and_calls())
def test_poch_values_match_reference_loops(case):
    # the public readers and the pair reader behind every sum's factors
    # read one set of tables; each agrees with the frozen loops, value
    # and named pole alike
    q, calls = case
    point = hg.RationalPoint({"q": q})
    oracle_point = hg.RationalPoint({"q": q})

    def pair_value(a, n, point, inverse):
        return Fraction(*hg._poch_pair((a.numerator, a.denominator), n, point, inverse))

    for a, n, inverse in calls:
        fn, ref = ((hg.inv_poch_value, reference_inv_poch_value) if inverse
                   else (hg.poch_value, reference_poch_value))
        want = _outcome(ref, a, n, oracle_point)
        assert _outcome(pair_value, a, n, point, inverse) == want
        assert _outcome(fn, a, n, point) == want


def test_one_table_per_base_and_direction():
    # a reciprocal is its product entry's pair swapped, so reads of both
    # kinds in one direction share one table
    point = hg.RationalPoint({"q": Fraction(2, 3)})
    a = Fraction(5, 7)
    assert hg.poch_value(a, 5, point) == reference_poch_value(a, 5, point)
    assert hg.inv_poch_value(a, 3, point) == reference_inv_poch_value(a, 3, point)
    assert len(point._poch_tables) == 1
    assert hg.poch_value(a, -2, point) == reference_poch_value(a, -2, point)
    assert hg.inv_poch_value(a, -4, point) == reference_inv_poch_value(a, -4, point)
    assert len(point._poch_tables) == 2


def test_stored_table_entries_are_reduced():
    # every table entry is divided by its gcd as it is grown, so the
    # ints of a reach-sized read stay as small as the values allow
    point = hg.RationalPoint(FIXED.values)
    lhs, rhs = hg.expansion_coeff_sides(6, 6, point)
    assert lhs == rhs
    entries = [pair for table in point._poch_tables.values() for pair in table]
    assert len(entries) > 20
    assert all(gcd(num, den) == 1 for num, den in entries)


def test_summation_bounds_must_be_ints():
    # a float bound used to reach range() as a bare TypeError, or to be
    # named as a missing upper parameter q^(-2.0)
    point = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5), "s": Fraction(5, 7),
                              "a": Fraction(3, 5), "b": Fraction(5, 7), "c": Fraction(7, 11),
                              "z": Fraction(4, 9)})
    q = point["q"]
    calls = [lambda: hg.expansion_coeff_sides(1.0, 1, point),
             lambda: hg.wp_expansion_coeff_sides(1, Fraction(1), point),
             lambda: hg.s_sum(1, 1.0, point),
             lambda: hg.s_closed(1.0, 1, point),
             lambda: hg.s_symmetry_sides(1.0, 1, point),
             lambda: hg.qbinomial_value(4, 2.0, point),
             lambda: hg.phi_terminating([q ** -2], [], q, 2.0, point)]
    calls += [lambda name=name: hg.classical_sides(name, point, 2.0)
              for name in ("pfaff-saalschutz", "chu-vandermonde-2", "qbinomial-theorem",
                           "sixphi5")]
    for call in calls:
        with pytest.raises(DomainError, match="summation bounds must be ints"):
            call()


# -- frozen Fraction-loop evaluators: the oracles of the fraction-free sums
#
# Every summand and the running sum are Fractions here.  The factors are
# called through hg.poch_value / hg.inv_poch_value in the same order as
# in the live evaluators, so both meet a pole at the same factor.


def reference_qbinomial_value(M, N, point):
    if N < 0 or N > M:
        return Fraction(0)
    q = point["q"]
    return hg.poch_value(q, M, point) * hg.inv_poch_value(q, N, point) \
        * hg.inv_poch_value(q, M - N, point)


def reference_phi_terminating(upper, lower, argument, n, point):
    q = point["q"]
    terminator = q ** (-n)
    if terminator not in upper:
        raise DomainError(
            f"terminating series needs an upper parameter q^(-{n})")
    extra_power = 1 + len(lower) - len(upper)
    total = Fraction(0)
    for m in range(n + 1):
        term = Fraction(argument) ** m
        for a in upper:
            term *= hg.poch_value(a, m, point)
        term *= hg.inv_poch_value(q, m, point)
        for b in lower:
            term *= hg.inv_poch_value(b, m, point)
        if extra_power:
            term *= ((-1) ** m * q ** (m * (m - 1) // 2)) ** extra_power
        total += term
    return total


def reference_vwp_sixphi5_sum(a, b, c, n, point):
    q = point["q"]
    point.check_nonzero(1 - a, f"(1 - a) with a={a}")
    arg = a * q ** (n + 1) / point.check_nonzero(b * c, f"b*c with b={b}, c={c}")
    total = Fraction(0)
    for m in range(n + 1):
        term = (hg.poch_value(a, m, point) * (1 - a * q ** (2 * m)) / (1 - a)
                * hg.poch_value(b, m, point) * hg.poch_value(c, m, point)
                * hg.poch_value(q ** (-n), m, point)
                * hg.inv_poch_value(q, m, point)
                * hg.inv_poch_value(a * q / b, m, point)
                * hg.inv_poch_value(a * q / c, m, point)
                * hg.inv_poch_value(a * q ** (n + 1), m, point)
                * arg ** m)
        total += term
    return total


def reference_classical_sides(name, point, n):
    q = point["q"]
    if name == "pfaff-saalschutz":
        a, b, c = point["a"], point["b"], point["c"]
        point.check_nonzero(c, "c")
        point.check_nonzero(a * b, f"a*b with a={a}, b={b}")
        lhs = reference_phi_terminating([a, b, q ** (-n)], [c, a * b * q ** (1 - n) / c],
                                        q, n, point)
        return lhs, (hg.poch_value(c / a, n, point) * hg.poch_value(c / b, n, point)
                     * hg.inv_poch_value(c, n, point)
                     * hg.inv_poch_value(c / (a * b), n, point))
    if name == "chu-vandermonde-2":
        a, c = point["a"], point["c"]
        point.check_nonzero(a, "a")
        lhs = reference_phi_terminating([a, q ** (-n)], [c], q, n, point)
        return lhs, a ** n * hg.poch_value(c / a, n, point) * hg.inv_poch_value(c, n, point)
    if name == "qbinomial-theorem":
        z = point["z"]
        lhs = reference_phi_terminating([q ** (-n)], [], z, n, point)
        return lhs, hg.poch_value(z * q ** (-n), n, point)
    a, b, c = point["a"], point["b"], point["c"]     # sixphi5
    lhs = reference_vwp_sixphi5_sum(a, b, c, n, point)
    return lhs, (hg.poch_value(a * q, n, point) * hg.poch_value(a * q / (b * c), n, point)
                 * hg.inv_poch_value(a * q / b, n, point)
                 * hg.inv_poch_value(a * q / c, n, point))


def reference_s_sum(d, n, point):
    t = point["t"]
    ti = 1 / point.check_nonzero(t, "t")
    total = Fraction(0)
    for j in range(2 * n + 1):
        total += (hg.poch_value(t, j, point) * hg.poch_value(t, 2 * n - j, point)
                  * hg.poch_value(ti, j + d, point) * t ** (j + d)
                  * hg.inv_poch_value(point["q"], j, point)
                  * hg.inv_poch_value(point["q"], 2 * n - j, point)
                  * hg.inv_poch_value(t, j + d, point))
    return total


def reference_s_closed(d, n, point):
    q, t = point["q"], point["t"]
    ti = 1 / point.check_nonzero(t, "t")
    return (hg.poch_value(t * t, 2 * n, point) * hg.poch_value(q ** d, 2 * n, point)
            * hg.poch_value(ti, d, point) * t ** d
            * hg.inv_poch_value(q, 2 * n, point)
            * hg.inv_poch_value(t, 2 * n + d, point))


def reference_expansion_coeff_sides(l, n, point):
    q, t = point["q"], point["t"]
    ti = 1 / point.check_nonzero(t, "t")
    lhs = Fraction(0)
    for j in range(2 * l + 1):
        lhs += (hg.poch_value(q ** (j - l - n), 2 * n, point)
                * hg.poch_value(ti, j - l - n, point) * t ** j
                * hg.inv_poch_value(q, j, point)
                * hg.inv_poch_value(q, 2 * l - j, point)
                * hg.inv_poch_value(t, j - l + n, point))
    rhs = (t ** (2 * l) * hg.inv_poch_value(q, l - n, point)
           * hg.inv_poch_value(t * q, l + n, point))
    return lhs, rhs


def reference_wp_expansion_coeff_sides(l, n, point):
    q, t, s = point["q"], point["t"], point["s"]
    ti = 1 / point.check_nonzero(t, "t")
    lhs = Fraction(0)
    for j in range(2 * l + 1):
        lhs += (hg.poch_value(s, j, point) * hg.poch_value(s, 2 * l - j, point)
                * hg.poch_value(q ** (j - l - n), 2 * n, point)
                * hg.poch_value(ti, j - l - n, point) * t ** j
                * hg.inv_poch_value(q, j, point)
                * hg.inv_poch_value(q, 2 * l - j, point)
                * hg.inv_poch_value(t, j - l + n, point))
    inv_qq_part = hg.inv_poch_value(q, l - n, point)
    if inv_qq_part == 0:
        return lhs, Fraction(0)
    rhs = (hg.poch_value(s * ti, l - n, point) * hg.poch_value(s, l + n, point)
           * t ** (2 * l) * inv_qq_part
           * hg.inv_poch_value(t * q, l + n, point))
    return lhs, rhs


@st.composite
def _point_and_indices(draw):
    """A point over q, t, s, a, b, c, z whose values are free rationals
    or powers q^k (which zero a factor of some Pochhammer), with small
    indices for every fraction-free evaluator."""
    q = draw(_q)
    value = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                      st.integers(-6, 6).map(lambda k: q ** k))
    values = {name: draw(value) for name in ("t", "s", "a", "b", "c", "z")}
    index = st.integers(0, 3)
    n = draw(index)
    # the arguments of phi_terminating before the point
    spec = (draw(st.lists(value, max_size=3)) + [q ** (-n)],
            draw(st.lists(value, max_size=3)), draw(value), n)
    return (hg.RationalPoint({"q": q, **values}), spec, draw(index), draw(index),
            draw(st.integers(-3, 3)), draw(st.integers(0, 5)), draw(st.integers(-1, 6)))


@settings(max_examples=200, deadline=None)
@given(_point_and_indices())
def test_fraction_free_sums_match_fraction_loops(case):
    point, spec, l, n, d, M, N = case
    oracle_point = hg.RationalPoint(point.values)
    pairs = [
        (hg.qbinomial_value, reference_qbinomial_value, (M, N)),
        (hg.phi_terminating, reference_phi_terminating, spec),
        (hg._vwp_sixphi5_sum, reference_vwp_sixphi5_sum,
         (point["a"], point["b"], point["c"], n)),
        (hg.s_sum, reference_s_sum, (d, n)),
        (hg.s_closed, reference_s_closed, (d, n)),
        (hg.expansion_coeff_sides, reference_expansion_coeff_sides, (l, n)),
        (hg.wp_expansion_coeff_sides, reference_wp_expansion_coeff_sides, (l, n)),
    ]
    pairs += [(lambda n, point, name=name: hg.classical_sides(name, point, n),
               lambda n, point, name=name: reference_classical_sides(name, point, n), (n,))
              for name in ("pfaff-saalschutz", "chu-vandermonde-2",
                           "qbinomial-theorem", "sixphi5")]
    for live, oracle, args in pairs:
        assert _outcome(live, *args, point) == _outcome(oracle, *args, oracle_point)


def test_a_zero_summand_adds_nothing_but_reads_every_factor():
    # a zero summand adds nothing, but a zero factor does not cut its
    # summand short: a later pole is still met and named
    point = hg.RationalPoint({"q": Fraction(2, 3)})

    def factors():
        yield 0, 1
        yield hg._poch_pair((1, 1), 1, point, True)     # 1/(1;q)_1, a pole

    with pytest.raises(PoleError) as err:
        hg._fraction_free_sum([[(1, 3)], factors()])
    assert err.value.factor == "(1 - (1) * q^0)"
    assert hg._fraction_free_sum([[(0, 1), (5, 7)], [(1, 3)], [(0, 11)]]) == Fraction(1, 3)
    assert hg._fraction_free_sum([[(0, 7)]]) == 0


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
    b, phi = hg.b_defining_sum(2, TR), hg.phi_defining_sum(2, 3, TR)
    assert b == hg.b_closed(2, TR) and phi == hg.phi_closed(2, 3, TR)


def test_b_phi_check_pairs_one_b_report_with_each_phi():
    # selftest compares B_n once per n, as it does not depend on n', and
    # pairs that one report object with the Phi_{n,n'} report of each n'
    reports = [r for r in cli.selftest_reports() if r.identity in ("b-eva", "phi-eva")]
    assert [r.identity for r in reports] == ["b-eva", "phi-eva"] * 16
    for n in range(4):
        block = reports[8 * n:8 * n + 8]
        assert block[0].params == {"n": n}
        assert all(r is block[0] for r in block[::2])
        assert [r.params for r in block[1::2]] == [{"n": n, "nprime": p} for p in range(4)]
    assert len({id(r) for r in reports[::2]}) == 4 and all(r.passed for r in reports)
