"""Ring-level tests for the truncated series core."""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbailey.errors import (DomainError, NonInvertible, TruncationMismatch,
                            TruncationOverflow)
from qbailey.series import Monomial, TruncatedSeries, Truncation

TR = Truncation(6, 4)
TRS = Truncation(4, 3, 2)


def S(terms, trunc=TR):
    return TruncatedSeries(trunc, terms)


def reference_product(f, g):
    """The ring product as a loop over term pairs: a frozen copy of the
    dict kernel the row-packed product replaced, kept as its oracle."""
    small, big = dict(f.terms()), dict(g.terms())
    if len(small) > len(big):
        small, big = big, small
    mq, mt, ms = f.trunc.max_q, f.trunc.max_t, f.trunc.s_cap
    acc = {}
    big_items = list(big.items())
    for (q1, t1, s1, z1), c1 in small.items():
        for (q2, t2, s2, z2), c2 in big_items:
            eq = q1 + q2
            if eq > mq:
                continue
            et = t1 + t2
            if et > mt:
                continue
            es = s1 + s2
            if es > ms:
                continue
            key = (eq, et, es, z1 + z2)
            prev = acc.get(key)
            if prev is None:
                acc[key] = c1 * c2
            else:
                acc[key] = prev + c1 * c2
    out = {}
    for key, c in acc.items():
        if c != 0:
            out[key] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
    return TruncatedSeries(f.trunc, out)


def reference_row_product(f, g):
    """The row-packed product of one pair with its own digit width and
    one unpack: a frozen copy of the kernel that the fused sum of
    products replaced, kept as its oracle."""
    a, b = dict(f.terms()), dict(g.terms())
    if len(a) > len(b):
        a, b = b, a
    if not a or not b:
        return TruncatedSeries.zero(f.trunc)
    mq, mt, ms = f.trunc.max_q, f.trunc.max_t, f.trunc.s_cap
    lo_a, lo_b = min(a)[0], min(b)[0]
    room = mq - lo_a - lo_b
    if room < 0:
        return TruncatedSeries.zero(f.trunc)

    def integer_terms(terms):
        vals = terms.values()
        if set(map(type, vals)) == {int}:
            return 1, terms, sum(map(abs, vals))
        den = math.lcm(*(c.denominator for c in vals))
        nums = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
        return den, nums, sum(map(abs, nums.values()))

    def packed_rows(nums, w, lo, hi):
        rows = {}
        for (q, t, s, z), c in nums.items():
            if q <= hi:
                rows[(t, s, z)] = rows.get((t, s, z), 0) + (c << (w * (q - lo)))
        return rows

    den_a, nums_a, l1_a = integer_terms(a)
    den_b, nums_b, l1_b = integer_terms(b)
    w = (l1_a * l1_b).bit_length() + 2
    rows_a = packed_rows(nums_a, w, lo_a, lo_a + room)
    rows_b = sorted(packed_rows(nums_b, w, lo_b, lo_b + room).items())
    acc = {}
    for (ta, sa, za), va in rows_a.items():
        for (tb, sb, zb), vb in rows_b:
            if tb > mt - ta:
                break
            if sb > ms - sa:
                continue
            key = (ta + tb, sa + sb, za + zb)
            acc[key] = acc.get(key, 0) + va * vb
    den = den_a * den_b
    lo = lo_a + lo_b
    base = 1 << w
    half, mask = base >> 1, base - 1
    out = {}
    for (t, s, z), x in acc.items():
        if not x:
            continue
        i = ((x & -x).bit_length() - 1) // w
        x >>= w * i
        while x and i <= room:
            d = x & mask
            if d >= half:
                d -= base
            x = (x - d) >> w
            if d:
                c = Fraction(d, den)
                out[(lo + i, t, s, z)] = c.numerator if c.denominator == 1 else c
            i += 1
    return TruncatedSeries(f.trunc, out)


# -- frozen term-map oracles ---------------------------------------------
#
# Copies of the ring methods as they were on the sparse term map, before
# series were stored as q-rows; each reads the term map `dict(f.terms())`
# and returns a term map of normalized coefficients.

def _norm(c):
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def reference_add(f, g, sign=1):
    acc = dict(f.terms())
    for key, c in g.terms():
        new = acc.get(key, 0) + sign * c
        if new == 0:
            acc.pop(key, None)
        else:
            acc[key] = _norm(new)
    return acc


def reference_shift(f, e_q=0, e_t=0, e_s=0, e_z=0):
    mq, mt, ms = f.trunc.max_q, f.trunc.max_t, f.trunc.s_cap
    out = {}
    for (q1, t1, s1, z1), c in f.terms():
        eq, et, es = q1 + e_q, t1 + e_t, s1 + e_s
        if eq < 0 or et < 0 or es < 0:
            raise DomainError("negative exponent produced by shift")
        if eq > mq or et > mt or es > ms:
            continue
        out[(eq, et, es, z1 + e_z)] = c
    return out


def reference_scale(f, c):
    c = _norm(c)
    if c == 0:
        return {}
    return {k: _norm(v * c) for k, v in f.terms()}


def reference_mul_binomial(f, c, e_q=0, e_t=0, e_s=0, e_z=0):
    if not c:
        return dict(f.terms())
    c = _norm(c)
    mq, mt, ms = f.trunc.max_q, f.trunc.max_t, f.trunc.s_cap
    out = dict(f.terms())
    for (q1, t1, s1, z1), v in f.terms():
        eq, et, es = q1 + e_q, t1 + e_t, s1 + e_s
        if eq > mq or et > mt or es > ms:
            continue
        key = (eq, et, es, z1 + e_z)
        new = out.get(key, 0) - c * v
        if new:
            out[key] = _norm(new)
        else:
            out.pop(key, None)
    return out


def reference_div_binomial(f, c, e_q=0, e_t=0, e_s=0, e_z=0):
    if not c:
        return dict(f.terms())
    mq, mt, ms = f.trunc.max_q, f.trunc.max_t, f.trunc.s_cap
    if not (e_q or e_t or e_s):
        if e_z or c == 1:
            raise NonInvertible(f"binomial 1 - ({c}) z^{e_z} is not a unit")
        return reference_scale(f, 1 / Fraction(1 - c))
    terms = dict(f.terms())
    out = {}
    for key in sorted(terms):
        if key in out:
            continue
        q1, t1, s1, z1 = key
        acc = 0
        while q1 <= mq and t1 <= mt and s1 <= ms:
            key = (q1, t1, s1, z1)
            acc = _norm(terms.get(key, 0) + c * acc)
            out[key] = acc
            q1, t1, s1, z1 = q1 + e_q, t1 + e_t, s1 + e_s, z1 + e_z
    return {k: v for k, v in out.items() if v}


def reference_halve_z(f):
    out = {}
    for (q1, t1, s1, z1), c in f.terms():
        if z1 % 2:
            raise DomainError(f"halve_z needs even z-exponents, got z^{z1}")
        out[(q1, t1, s1, z1 // 2)] = c
    return out


def reference_z_slices(f):
    slices = {}
    for (q, t, s, z), c in f.terms():
        slices.setdefault(z, {})[(q, t, s, 0)] = c
    return slices


def assert_same_product(f, g):
    """f * g equals the oracle term for term, with the same coefficient
    types, and is stored canonically: no zero coefficient, no monomial
    beyond the caps, no integral Fraction."""
    got, want = f * g, reference_product(f, g)
    assert got == want
    assert [type(c) for _, c in got.terms()] == [type(c) for _, c in want.terms()]
    tr = got.trunc
    for (eq, et, es, _), c in got.terms():
        assert c != 0
        assert type(c) is int or c.denominator != 1
        assert 0 <= eq <= tr.max_q and 0 <= et <= tr.max_t and 0 <= es <= tr.s_cap
    return got


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


@pytest.mark.parametrize("x", [2**64 - 1, -(2**64 - 1), 2**63, -(2**63), 2**63 + 1,
                               Fraction(2**64 - 1, 3), Fraction(-(2**63), 7)])
@pytest.mark.parametrize("y", [2**64 - 1, -(2**63), 2**63 + 1, Fraction(2**63, 5)])
def test_mul_digit_width_edges(x, y):
    # the other terms are +-1, so the constant coefficient x*y takes
    # almost all of the L1 bound that fixes the digit width and sits near
    # the top of its digit; the others need a borrow from it to read back
    f = S({(0, 0, 0, 0): x, (1, 0, 0, 0): 1, (2, 1, 0, 1): -1})
    g = S({(0, 0, 0, 0): y, (1, 0, 0, 0): -1, (1, 1, 0, -1): 1})
    prod = assert_same_product(f, g)
    assert prod.coefficient((0, 0, 0, 0)) == x * y
    assert prod.coefficient((1, 0, 0, 0)) == y - x
    assert prod.coefficient((2, 0, 0, 0)) == -1


def test_mul_cancellation():
    x, y = 2**64 - 1, -(2**63)
    a = {(0, 0, 0, 0): x, (1, 0, 0, 2): y, (3, 0, 0, -1): 7}
    b = {(0, 0, 0, 1): y, (2, 0, 0, 0): x, (4, 0, 0, 0): -3}
    # (A + tB)(A - tB) = A^2 - t^2 B^2: every t^1 row cancels
    f = S({**a, **{(q, 1, s, z): c for (q, _, s, z), c in b.items()}})
    g = S({**a, **{(q, 1, s, z): -c for (q, _, s, z), c in b.items()}})
    prod = assert_same_product(f, g)
    assert all(mono.e_t != 1 for mono, _ in prod.terms())
    # (1 + xq)(1 - xq) = 1 - x^2 q^2: a zero digit inside a row
    one_x = S({(0, 0, 0, 0): 1, (1, 0, 0, 0): x})
    prod = assert_same_product(one_x, S({(0, 0, 0, 0): 1, (1, 0, 0, 0): -x}))
    assert prod == S({(0, 0, 0, 0): 1, (2, 0, 0, 0): -x * x})
    # every term pair beyond the q cap
    high = S({(3, 0, 0, 0): x, (4, 1, 0, 0): y})
    assert assert_same_product(high, S({(4, 0, 0, 0): 1, (5, 0, 0, 1): 2})).is_zero()


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
    mixed = S({(0, 1, 0, 2): 3, (2, 1, 0, 0): 5, (0, 0, 0, -1): Fraction(1, 2),
               (1, 0, 0, 0): -1})
    assert mixed.specialize("q", 0) == S({(0, 1, 0, 2): 3, (0, 0, 0, -1): Fraction(1, 2)})
    zi =TruncatedSeries.monomial(TR, 1, e_z=-2)
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


_BIG = 10**40
_wide_ints = st.integers(-_BIG, _BIG)
_wide_fractions = st.builds(Fraction, _wide_ints, st.integers(1, 10**6))
# one coefficient kind per operand, so that all-integer operands (one
# common denominator of 1) are as common as rational and mixed ones
_coeff_kinds = st.sampled_from([
    _wide_ints,
    st.integers(-3, 3),
    _wide_fractions,
    st.one_of(_wide_ints, _wide_fractions,
              st.fractions(min_value=-3, max_value=3, max_denominator=7)),
])

_truncations = st.builds(Truncation, st.integers(0, 7), st.integers(0, 4),
                         st.one_of(st.none(), st.integers(0, 3)))


def _exponents(cap):
    # 0, the cap and two halves that sum to it, so that many products
    # land exactly on a cap
    return st.one_of(st.sampled_from([0, cap // 2, cap - cap // 2, cap]),
                     st.integers(0, cap))


@st.composite
def _operand_pairs(draw):
    tr = draw(_truncations)
    monos = st.tuples(_exponents(tr.max_q), _exponents(tr.max_t),
                      _exponents(tr.s_cap), st.integers(-3, 3))
    sizes = st.sampled_from([(0, 0), (1, 1), (2, 14)])
    pair = []
    for _ in range(2):
        lo, hi = draw(sizes)
        coeffs = draw(_coeff_kinds)
        pair.append(TruncatedSeries(
            tr, draw(st.dictionaries(monos, coeffs, min_size=lo, max_size=hi))))
    return pair


@settings(max_examples=200, deadline=None)
@given(_operand_pairs())
def test_mul_matches_reference_product(pair):
    f, g = pair
    assert_same_product(f, g)
    assert_same_product(g, f)


# -- sums of products ----------------------------------------------------

def assert_same_sum(trunc, pairs):
    """sum_of_products equals the +-fold of both product oracles over the
    pairs, with the same coefficient types, and is stored canonically."""
    got = TruncatedSeries.sum_of_products(trunc, iter(pairs))
    want = rows = TruncatedSeries.zero(trunc)
    for f, g in pairs:
        want = want + reference_product(f, g)
        rows = rows + reference_row_product(f, g)
    assert got == want == rows
    assert [type(c) for _, c in got.terms()] == [type(c) for _, c in want.terms()]
    assert_canonical(got)
    return got


@st.composite
def _pair_lists(draw):
    # 0-6 pairs over one truncation; every operand draws its own
    # coefficient kind, so the pairs' denominators differ and the scale
    # D/(den_a*den_b) is mostly not 1.  Empty and one-term operands, and
    # exponents biased to the caps, so that some pairs have
    # lo_a + lo_b > max_q
    tr = draw(_truncations)
    monos = st.tuples(_exponents(tr.max_q), _exponents(tr.max_t),
                      _exponents(tr.s_cap), st.integers(-3, 3))
    sizes = st.sampled_from([(0, 0), (1, 1), (2, 14)])
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        pair = []
        for _ in range(2):
            lo, hi = draw(sizes)
            pair.append(TruncatedSeries(tr, draw(st.dictionaries(
                monos, draw(_coeff_kinds), min_size=lo, max_size=hi))))
        pairs.append(tuple(pair))
    return tr, pairs


@settings(max_examples=200, deadline=None)
@given(_pair_lists())
@example((TRS, []))
@example((TRS, [(S({(3, 0, 0, 0): 2, (4, 1, 0, 1): -1}, TRS),
                 S({(2, 0, 0, 0): Fraction(1, 3), (3, 0, 1, 0): 5}, TRS)),
                (TruncatedSeries.zero(TRS), S({(0, 0, 0, 0): 7}, TRS)),
                (S({(1, 0, 0, 0): Fraction(2, 3), (0, 1, 0, -1): 1}, TRS),
                 S({(0, 0, 1, 2): Fraction(-3, 5), (2, 0, 0, 0): 4}, TRS))]))
def test_sum_of_products_matches_reference_sum(case):
    trunc, pairs = case
    assert_same_sum(trunc, pairs)


def test_sum_of_products_needs_the_summed_width():
    # six equal pairs add 6 * 2^64 into the constant digit.  One pair's
    # bound L1(f)*L1(g) = (2^32 + 1)^2 gives w1 = 67 bits, whose balanced
    # digits reach only 2^66 < 6 * 2^64, so a width taken from the largest
    # pair bound instead of the sum of them would misread the digit
    x = 2**32
    f = S({(0, 0, 0, 0): x, (1, 0, 0, 0): 1})
    w1 = ((x + 1) ** 2).bit_length() + 2
    assert 6 * x * x >= 1 << (w1 - 1)
    got = assert_same_sum(TR, [(f, f)] * 6)
    assert got == S({(0, 0, 0, 0): 6 * x * x, (1, 0, 0, 0): 12 * x, (2, 0, 0, 0): 6})
    # the same with rational pairs, each over its own denominator
    g = S({(0, 0, 0, 0): Fraction(x, 3), (1, 0, 0, 0): Fraction(1, 3)})
    h = S({(0, 0, 0, 0): Fraction(x, 5), (1, 0, 0, 0): Fraction(-1, 5)})
    assert_same_sum(TR, [(g, g)] * 3 + [(h, h)] * 3 + [(g, h)])


def test_sum_of_products_edges():
    assert TruncatedSeries.sum_of_products(TR, []) == TruncatedSeries.zero(TR)
    high = S({(4, 0, 0, 0): 3, (5, 1, 0, 0): 1})
    low = S({(0, 0, 0, 0): 1, (1, 0, 0, 1): Fraction(1, 2)})
    # empty operands and pairs whose lowest exponents pass the q cap add nothing
    assert TruncatedSeries.sum_of_products(
        TR, [(high, high), (TruncatedSeries.zero(TR), low), (low, low)]) == low * low
    # rational coefficients that sum to integers are stored as ints
    third = S({(0, 0, 0, 0): Fraction(1, 3), (1, 1, 0, 0): Fraction(2, 3)})
    got = assert_same_sum(TR, [(third, one()), (third, S({(0, 0, 0, 0): 2}))])
    assert got == S({(0, 0, 0, 0): 1, (1, 1, 0, 0): 2})
    assert all(type(c) is int for _, c in got.terms())
    # products that cancel leave no zero coefficient
    assert TruncatedSeries.sum_of_products(TR, [(low, low), (-low, low)]).is_zero()


def test_sum_of_products_truncation_mismatch():
    other = Truncation(3, 3)
    for pair in ((one(other), one()), (one(), one(other)), (one(other), one(other))):
        with pytest.raises(TruncationMismatch):
            TruncatedSeries.sum_of_products(TR, [(one(), one()), pair])


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
        TRS, {(0, 0, 0, 0): f.coefficient((0, 0, 0, 0))})
    # g now has constant term exactly 1; drop degree-zero z-terms that
    # would make it a non-unit
    g = TruncatedSeries(TRS, {k: c for k, c in g.terms()
                              if not (k[0] == k[1] == k[2] == 0 and k[3] != 0)})
    assert g.invert() * g == TruncatedSeries.one(TRS)


@given(_series, _series)
def test_flip_z_is_a_homomorphism(f, g):
    assert (f + g).flip_z() == f.flip_z() + g.flip_z()
    assert (f * g).flip_z() == f.flip_z() * g.flip_z()


# -- binomial updates ---------------------------------------------------

def assert_canonical(f):
    tr = f.trunc
    for (eq, et, es, _), c in f.terms():
        assert c != 0 and not (type(c) is Fraction and c.denominator == 1)
        assert eq <= tr.max_q and et <= tr.max_t and es <= tr.s_cap
    # the stored rows: sorted by key, none empty or with a zero end, over a
    # positive denominator coprime to every numerator's gcd (1 for zero)
    keys = [key for key, _, _ in f._rows]
    assert keys == sorted(set(keys))
    assert all(nums and nums[0] and nums[-1] for _, _, nums in f._rows)
    assert f._den > 0 and math.gcd(f._den, *(n for _, _, nums in f._rows for n in nums)) == 1
    assert f._rows or f._den == 1


@st.composite
def _binomial_cases(draw):
    # a series g and a binomial 1 - c m: c rational or 0, m with z and with
    # exponents on, below or just beyond the caps, s present or absent
    tr = draw(_truncations)
    monos = st.tuples(_exponents(tr.max_q), _exponents(tr.max_t),
                      _exponents(tr.s_cap), st.integers(-3, 3))
    g = TruncatedSeries(tr, draw(st.dictionaries(monos, draw(_coeff_kinds), max_size=14)))
    c = draw(st.one_of(st.just(0), st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3, max_denominator=7)))
    m = draw(st.one_of(monos, st.tuples(st.integers(0, tr.max_q + 1), st.integers(0, tr.max_t + 1),
                                        st.integers(0, tr.s_cap + 1), st.integers(-3, 3))))
    binomial = TruncatedSeries.one(tr) - TruncatedSeries(tr, {m: c})
    return g, c, m, binomial


@settings(max_examples=150, deadline=None)
@given(_binomial_cases())
def test_mul_binomial_matches_product(case):
    g, c, m, binomial = case
    got = g.mul_binomial(c, *m)
    assert got == reference_product(g, binomial)
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(_binomial_cases())
def test_div_binomial_matches_inverse(case):
    g, c, m, binomial = case
    try:
        inverse = binomial.invert()
    except NonInvertible:
        with pytest.raises(NonInvertible):
            g.div_binomial(c, *m)
        return
    got = g.div_binomial(c, *m)
    assert got == reference_product(g, inverse)
    assert_canonical(got)
    assert got.mul_binomial(c, *m) == g


def test_degree_zero_binomials():
    g = S({(1, 0, 0, 0): 3, (0, 2, 0, -1): Fraction(1, 2)})
    # 1 - c is a scalar for c != 1
    assert g.div_binomial(Fraction(1, 3)) == g.scale(Fraction(3, 2))
    assert g.div_binomial(3) == g.scale(Fraction(-1, 2))
    assert g.mul_binomial(3) == g.scale(-2)
    assert g.div_binomial(0, e_z=2) == g                 # 1 - 0 z^2 = 1
    for c, e_z in ((1, 0), (Fraction(1), 0), (2, 1), (Fraction(1, 2), -2)):
        with pytest.raises(NonInvertible):
            (one() - S({(0, 0, 0, e_z): c})).invert()
        with pytest.raises(NonInvertible):
            g.div_binomial(c, e_z=e_z)
    for method in (g.mul_binomial, g.div_binomial):
        with pytest.raises(DomainError):
            method(1, e_q=-1)


def test_unit_factors_return_the_operand():
    # a factor 1, a binomial 1 - 0 m and a one-pair sum with a factor 1
    # cost no pass over the terms: each returns the operand itself
    g = S({(1, 0, 0, 0): 3, (0, 2, 0, -1): Fraction(1, 2)})
    assert one() * g is g and g * one() is g
    assert TruncatedSeries.sum_of_products(TR, [(one(), g)]) is g
    assert g.mul_binomial(0, e_q=1, e_t=1) is g and g.div_binomial(0, e_q=1) is g
    assert one() * one() == one() and (one() * TruncatedSeries.zero(TR)).is_zero()


def test_truncation_caps_must_be_integers():
    for caps in ((2.5, 2), (2, Fraction(3)), (2, 2, 1.5)):
        with pytest.raises(DomainError, match="integers"):
            Truncation(*caps)
    with pytest.raises(DomainError) as info:
        Truncation(2, 2, 1.5)
    assert str(info.value) == "truncation caps must be integers, got (2, 2, 1.5)"
    for caps in ((-1, 2), (2, -1), (2, 2, -1)):
        with pytest.raises(DomainError) as info:
            Truncation(*caps)
        assert str(info.value) == "truncation caps must be >= 0"


def test_truncation_is_an_immutable_value():
    # error texts print the repr, and equal caps are one dict key
    trunc = Truncation(8, 6)
    assert str(trunc) == repr(trunc) == "Truncation(max_q=8, max_t=6, max_s=None)"
    assert str(Truncation(4, 3, 2)) == "Truncation(max_q=4, max_t=3, max_s=2)"
    assert Truncation(max_q=8, max_t=6) == trunc == Truncation(8, 6, None) != Truncation(8, 6, 0)
    assert hash(trunc) == hash(Truncation(8, 6, None)) == hash((8, 6, None))
    assert (trunc.s_cap, Truncation(4, 3, 2).s_cap, trunc.cap("t")) == (0, 2, 6)
    with pytest.raises(AttributeError):
        trunc.max_q = 9
    with pytest.raises(AttributeError):
        trunc.extra = 1
    assert trunc.max_q == 8


def test_inexact_coefficients_are_refused():
    # a float would enter the exact ring as its binary expansion, e.g.
    # 0.1 as 3602879701896397/36028797018963968
    f = S({(1, 0, 0, 0): 1})
    for build in (lambda: TruncatedSeries.monomial(TR, 0.1),
                  lambda: S({(0, 0, 0, 0): 0.5}),
                  lambda: f.scale(0.5),
                  lambda: f.mul_binomial(0.5, e_q=1),
                  lambda: f.div_binomial(0.5, e_q=1)):
        with pytest.raises(DomainError, match="int or Fraction"):
            build()


_z_free_series = st.dictionaries(
    st.tuples(st.integers(0, TRS.max_q), st.integers(0, TRS.max_t), st.integers(0, TRS.max_s),
              st.just(0)), _coeffs, max_size=4).map(lambda d: TruncatedSeries(TRS, d))


@given(_series)
def test_z_slices_split_a_series_by_its_powers_of_z(f):
    slices = f.z_slices()
    assert all(part and all(m.e_z == 0 for m, _ in part.terms()) for part in slices.values())
    assert sum((part.shift(e_z=j) for j, part in slices.items()),
               TruncatedSeries.zero(TRS)) == f
    assert TruncatedSeries.from_z_slices(TRS, slices) == f


@given(st.dictionaries(st.integers(-3, 3), _z_free_series, max_size=4))
def test_from_z_slices_is_the_inverse_of_z_slices(slices):
    f = TruncatedSeries.from_z_slices(TRS, slices)
    assert f.z_slices() == {j: part for j, part in slices.items() if part}


def test_from_z_slices_refuses_a_part_with_a_z_term():
    with pytest.raises(DomainError, match="z-slice 2"):
        TruncatedSeries.from_z_slices(TR, {0: S({(1, 0, 0, 0): 1}), 2: S({(0, 1, 0, -1): 3})})
    with pytest.raises(TruncationMismatch):
        TruncatedSeries.from_z_slices(TR, {0: TruncatedSeries.one(TRS)})


# -- the row storage against the term-map oracles ------------------------

# Fractions whose common denominator reduces: 3/6 is 1/2 and 8/12 is 2/3,
# so a sum or a scale can leave a factor shared by every numerator
_reducible = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 4, 6, 12]))
_row_coeffs = st.sampled_from([st.integers(-3, 3), _reducible, _wide_fractions,
                               st.one_of(_wide_ints, _reducible)])
_scalars = st.one_of(st.just(0), st.integers(-3, 3), _reducible,
                     st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def _row_cases(draw):
    # two series over one truncation, empty, one-term or wide, with z on
    # both sides of 0; g cancels a whole row of f (one (t, s, z) key)
    # half of the time
    tr = draw(_truncations)
    monos = st.tuples(_exponents(tr.max_q), _exponents(tr.max_t),
                      _exponents(tr.s_cap), st.integers(-3, 3))
    sizes = st.sampled_from([(0, 0), (1, 1), (2, 14)])
    f_terms, g_terms = (draw(st.dictionaries(monos, draw(_row_coeffs), min_size=lo, max_size=hi))
                        for lo, hi in (draw(sizes), draw(sizes)))
    if f_terms and draw(st.booleans()):
        row = draw(st.sampled_from(sorted(f_terms)))[1:]
        g_terms.update({k: -c for k, c in f_terms.items() if k[1:] == row})
    return TruncatedSeries(tr, f_terms), TruncatedSeries(tr, g_terms)


def _monomials(tr):
    # exponents below 0, on and beyond the caps, z either side of 0
    return st.tuples(st.integers(-1, tr.max_q + 1), st.integers(-1, tr.max_t + 1),
                     st.integers(-1, tr.s_cap + 1), st.integers(-3, 3))


def assert_matches(method, oracle):
    """The method equals the oracle's term map, with the same coefficient
    types and in canonical row form, or both raise the same error."""
    try:
        want = oracle()
    except (DomainError, NonInvertible) as e:
        with pytest.raises(type(e)):
            method()
        return
    got = method()
    assert dict(got.terms()) == want
    assert {k: type(c) for k, c in got.terms()} == {k: type(c) for k, c in want.items()}
    assert got == TruncatedSeries(got.trunc, want)
    assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(_row_cases(), st.data())
@example((S({(0, 0, 0, 1): Fraction(1, 2), (2, 0, 0, 1): Fraction(3, 2)}),
          S({(0, 0, 0, 1): Fraction(-1, 2), (2, 0, 0, 1): Fraction(-3, 2), (1, 1, 0, -2): 1})),
         None)
def test_row_methods_match_the_term_map(case, data):
    f, g = case
    tr = f.trunc
    assert_matches(lambda: f + g, lambda: reference_add(f, g))
    assert_matches(lambda: f - g, lambda: reference_add(f, g, -1))
    assert_matches(lambda: f.halve_z(), lambda: reference_halve_z(f))
    slices = f.z_slices()
    assert {j: dict(part.terms()) for j, part in slices.items()} == reference_z_slices(f)
    for part in slices.values():
        assert_canonical(part)
    if data is None:
        return
    m = data.draw(_monomials(tr))
    assert_matches(lambda: f.shift(*m), lambda: reference_shift(f, *m))
    c = data.draw(_scalars)
    assert_matches(lambda: f.scale(c), lambda: reference_scale(f, c))
    m = tuple(max(e, 0) for e in m[:3]) + m[3:]
    for c in (c, data.draw(st.integers(-3, 3)), data.draw(_reducible)):
        assert_matches(lambda: f.mul_binomial(c, *m), lambda: reference_mul_binomial(f, c, *m))
        assert_matches(lambda: f.div_binomial(c, *m), lambda: reference_div_binomial(f, c, *m))


@settings(max_examples=100, deadline=None)
@given(_row_cases())
def test_the_row_form_is_canonical(case):
    # equal series store equal rows over equal denominators, however they
    # were reached: a scale and its inverse, and a sum less its summand
    f, g = case
    assert f.scale(Fraction(1, 3)).scale(3) == f
    assert (f + g) - g == f
    assert f.scale(Fraction(4, 6)).scale(Fraction(3, 2)) == f


def test_a_negative_exponent_is_refused_above_a_cap():
    # the sign is checked before the cap drop, so a monomial with a
    # negative exponent is refused wherever its other exponents lie
    tr = Truncation(8, 6)
    for build in (lambda: TruncatedSeries(tr, {(9, -1, 0, 0): 1}),
                  lambda: TruncatedSeries.monomial(tr, 1, e_q=9, e_t=-2),
                  lambda: TruncatedSeries(tr, {(0, -1, 0, 0): 1}),
                  lambda: TruncatedSeries(Truncation(2, 2, 1), {(0, 3, -1, 0): 1})):
        with pytest.raises(DomainError, match="negative exponent"):
            build()


def test_bad_input_is_refused_before_the_cap_drop():
    # every term is checked, the ones past a cap too: a float coefficient
    # and a non-int exponent are refused wherever the monomial lies, and
    # the shifts and binomials refuse a non-int exponent; specialize
    # refuses a float value, even 0.0
    tr = Truncation(8, 6)
    f = TruncatedSeries.one(tr)
    for build in (lambda: TruncatedSeries(tr, {(9, 0, 0, 0): 0.5}),
                  lambda: TruncatedSeries.monomial(tr, 0.25, e_q=9),
                  lambda: TruncatedSeries(tr, {(0, 7, 0, 0): Fraction(1, 2) + 0.5}),
                  lambda: f.specialize("z", 0.1),
                  lambda: f.specialize("q", 0.0)):
        with pytest.raises(DomainError, match="int or Fraction"):
            build()
    for build in (lambda: TruncatedSeries.monomial(tr, 1, e_q=1.0),
                  lambda: TruncatedSeries(tr, {(9.0, 0, 0, 0): 1}),
                  lambda: TruncatedSeries(tr, {(0, 0, 0, Fraction(1, 2)): 1}),
                  lambda: f.shift(e_q=1.5),
                  lambda: f.shift(e_z=1.0),
                  lambda: f.mul_binomial(1, e_q=0.5),
                  lambda: f.div_binomial(1, e_t=Fraction(1)),
                  lambda: f.div_binomial(0, e_z=0.5)):
        with pytest.raises(DomainError, match="exponents must be integers"):
            build()


# -- specialize against the term map -------------------------------------

_VARS = {"q": 0, "t": 1, "s": 2, "z": 3}


def reference_specialize(f, var, value):
    """specialize in three branches over the term map: a frozen copy of
    the method before it read the rows, kept as its oracle."""
    if var not in _VARS:
        raise DomainError(f"unknown variable {var!r}")
    vi = _VARS[var]
    terms = dict(f.terms())
    if isinstance(value, str):
        if var == "z" or value not in ("q", "t", "s"):
            raise DomainError(f"unsupported substitution {var} -> {value}")
        ti = _VARS[value]
        if vi == ti:
            return f
        if f.trunc.cap(var) < f.trunc.cap(value):
            raise TruncationOverflow(
                f"substituting {var} -> {value} needs cap({var}) >= cap({value}); "
                f"got {f.trunc}")
        out = {}
        cap_t = f.trunc.cap(value)
        for key, c in terms.items():
            e = key[vi]
            new = list(key)
            new[vi] = 0
            new[ti] = key[ti] + e
            if new[ti] > cap_t:
                continue
            k2 = tuple(new)
            tot = out.get(k2, 0) + c
            if tot == 0:
                out.pop(k2, None)
            else:
                out[k2] = _norm(tot)
        return TruncatedSeries(f.trunc, out)
    val = Fraction(value)
    if val == 0:
        if var == "z":
            raise DomainError("z may only be specialized to a nonzero rational")
        return TruncatedSeries(f.trunc, {key: c for key, c in terms.items() if not key[vi]})
    out = {}
    for key, c in terms.items():
        e = key[vi]
        coeff = c * val ** e if e else c
        new = list(key)
        new[vi] = 0
        k2 = tuple(new)
        tot = out.get(k2, 0) + coeff
        if tot == 0:
            out.pop(k2, None)
        else:
            out[k2] = _norm(tot)
    return TruncatedSeries(f.trunc, out)


_nonzero_values = st.one_of(st.integers(-3, 3),
                            st.fractions(min_value=-3, max_value=3, max_denominator=7),
                            _reducible).filter(bool)


@settings(max_examples=150, deadline=None)
@given(_row_cases(), _nonzero_values)
@example((S({(1, 2, 0, -1): Fraction(1, 2), (2, 0, 0, 1): Fraction(3, 4), (0, 1, 0, 0): -2}),
          S({})), Fraction(-2, 3))
def test_specialize_matches_the_term_map(case, value):
    # every variable, to 0, to a nonzero rational, to every variable and
    # to itself, which returns the series; an error is the same error
    f, g = case
    for h in (f, f + g):
        for var in ("q", "t", "s", "z", "x"):
            for target in (0, value, "q", "t", "s", "z"):
                try:
                    want = reference_specialize(h, var, target)
                except (DomainError, TruncationOverflow) as e:
                    with pytest.raises(type(e)) as got:
                        h.specialize(var, target)
                    assert str(got.value) == str(e)
                    continue
                got = h.specialize(var, target)
                assert got == want
                assert_canonical(got)
                if var == target:
                    assert got is h


# -- terms() and the constructor -------------------------------------------

@st.composite
def _term_maps(draw):
    # a term map over one truncation with several terms in each of a few
    # rows (t, s, z keys), exponents on and past the caps, zero and
    # reducible coefficients
    tr = draw(_truncations)
    keys = draw(st.lists(st.tuples(st.integers(0, tr.max_t + 1), st.integers(0, tr.s_cap + 1),
                                   st.integers(-3, 3)), min_size=1, max_size=4))
    monos = st.tuples(st.integers(0, tr.max_q + 2), st.sampled_from(keys)).map(
        lambda m: (m[0], *m[1]))
    coeffs = st.one_of(st.just(0), st.integers(-3, 3), _reducible, _wide_fractions)
    return tr, draw(st.dictionaries(monos, coeffs, max_size=24))


@settings(max_examples=200, deadline=None)
@given(_term_maps())
def test_terms_read_back_the_constructed_map(case):
    # terms() gives the map cut to the caps, zeros dropped and integral
    # Fractions stored as ints, keyed by Monomial in strictly increasing
    # order; the constructor reads that map back to the same series
    tr, d = case
    want = {k: _norm(c) for k, c in d.items()
            if c and k[0] <= tr.max_q and k[1] <= tr.max_t and k[2] <= tr.s_cap}
    f = TruncatedSeries(tr, d)
    got = list(f.terms())
    assert dict(got) == want
    assert [type(c) for _, c in got] == [type(want[m]) for m, _ in got]
    keys = [m for m, _ in got]
    assert all(type(m) is Monomial for m in keys)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(got) == f.term_count()
    assert TruncatedSeries(tr, dict(got)) == f


@settings(max_examples=100, deadline=None)
@given(_row_cases())
def test_kernel_outputs_round_trip_through_terms(case):
    f, g = case
    for h in (f * g, f - g, TruncatedSeries.sum_of_products(f.trunc, [(f, g), (g, g)]),
              f.mul_binomial(Fraction(1, 2), 1, 0, 0, 1)):
        keys = [m for m, _ in h.terms()]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert TruncatedSeries(h.trunc, dict(h.terms())) == h


def _first_terms_text(f):
    """The preview as the first four terms of terms() give it."""
    shown = " + ".join(f"{c}*q^{k[0]}t^{k[1]}s^{k[2]}z^{k[3]}" for k, c in islice(f.terms(), 4))
    return (shown or "0") + (" + ..." if f.term_count() > 4 else "")


@settings(max_examples=200, deadline=None)
@given(_term_maps())
@example((Truncation(6, 2), {(q, t, 0, z): Fraction(q + 1, 2 + t) for q in range(6)
                             for t in range(2) for z in (-1, 1)}))
def test_preview_reads_the_first_terms_from_the_rows(case):
    # repr and the NonInvertible messages show the canonically first
    # four terms, read from a few numerators per row, never from terms()
    tr, d = case
    f = TruncatedSeries(tr, d)
    assert repr(f) == f"TruncatedSeries({tr}, {_first_terms_text(f)})"
    g = f - TruncatedSeries.monomial(tr, f.coefficient((0, 0, 0, 0)))
    with pytest.raises(NonInvertible) as err:
        g.invert()
    assert str(err.value) == f"series has zero constant term: {_first_terms_text(g)}"
    h = g + one(tr) + TruncatedSeries.monomial(tr, Fraction(1, 3), e_z=5)
    with pytest.raises(NonInvertible) as err:
        h.invert()
    assert str(err.value) == ("series has a z-only term of (q,t,s)-degree zero and is "
                              f"not a unit: {_first_terms_text(h)}")
