"""Terminating basic hypergeometric evaluation and the rational-point
backend for finite summation identities.

The module returns values and the two sides of each identity; it
builds no report.  The caller compares the sides and labels the
verdict (cli.py, through report.py).

Two deliberately separate backends:

* identities that are rational functions of the parameters and involve
  negative-index Pochhammers evaluate exactly at rational points, using
  the convention (a;q)_{-m} = 1/(a q^{-m};q)_m, so negative exponents
  never enter the series ring;
* identities among formal series evaluate in the truncated ring.

Every denominator factor at a rational point is checked; a zero aborts
with the factor named.  Point values, bases and arguments are ints or
Fractions; a float is refused, and so is a summation bound that is not
an int.  A point is evaluated fraction-free.  Each Pochhammer value is
one read (`_poch_pair`) of the point's prefix table for its base and
direction, whose entries are reduced int numerator/denominator pairs
of the products of the factors 1 - x; a reciprocal is the same entry
with its pair swapped, and a zero numerator there is a pole, named by
its factor.  A sum or closed form (`_fraction_free_sum`) multiplies the
pairs of each summand's factors, its powers of the parameters being int
pairs too, keeps the running sum as one int pair over the least common
multiple of the denominators so far, and builds one Fraction at the
end.  `poch_value` and `inv_poch_value` reduce the same pair to a
Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import DomainError, PoleError
from .qfunctions import (_exact, binom2, combined_poch, hermite, infinite_product, inv_poch,
                         inv_qq, inv_tq, poch_finite, poch_infinite, poch_ratio, qbinomial)
from .series import TruncatedSeries, Truncation


class RationalPoint:
    """Exact assignment of variables to rationals.

    q must not be 0 or a root of unity, which for a rational q means
    +-1.  Other variables may be zero; an operation that needs their
    inverse will raise a named PoleError.  Every value must be an int
    or a Fraction; the constructor checks all this and stores the
    values as Fractions.

    The point owns the prefix tables behind `_poch_pair`, one plain
    list of reduced int pairs per base and direction; they grow only as
    far as a call needs and are freed with the point.
    """

    def __init__(self, values: dict):
        self.values = {k: Fraction(_exact(v)) for k, v in values.items()}
        q = self.values.get("q")
        if q is None:
            raise DomainError("a rational point must assign q")
        if q == 0:
            raise DomainError("q must be nonzero")
        if q in (1, -1):        # the only rational roots of unity
            raise DomainError(f"q={q} is a root of unity of order {1 if q == 1 else 2}")
        self._poch_tables = {}

    def __getitem__(self, name: str) -> Fraction:
        try:
            return self.values[name]
        except KeyError:
            raise DomainError(f"rational point has no value for {name!r}") from None

    def check_nonzero(self, value: Fraction, desc: str) -> Fraction:
        if value == 0:
            raise PoleError(desc)
        return value

    def describe(self) -> dict:
        return {k: f"{v.numerator}/{v.denominator}" for k, v in sorted(self.values.items())}


def _pair(x) -> tuple[int, int]:
    """The reduced int pair (numerator, denominator > 0) of an int or a
    Fraction."""
    x = _exact(x)
    return x.numerator, x.denominator


def _power(x: tuple[int, int], k: int) -> tuple[int, int]:
    """The reduced int pair of x^k, x a reduced int pair (nonzero if k < 0)."""
    n, d = x
    if k < 0:
        n, d, k = (d, n, -k) if n > 0 else (-d, -n, -k)
    return n ** k, d ** k


def _check_bounds(*bounds):
    """Refuse a summation bound that is not an int before range() or a
    Pochhammer index meets it."""
    if not all(type(b) is int for b in bounds):
        raise DomainError(f"summation bounds must be ints, got {bounds!r}")


def _poch_pair(a: tuple[int, int], n: int, point: RationalPoint,
               inverse: bool) -> tuple[int, int]:
    """(a;q)_n at the point, or 1/(a;q)_n if inverse, as a reduced int
    pair; a is a reduced int pair.  The one reader and grower of the
    point's prefix tables.

    The table of (a, n >= 0) holds at entry m the product of the first
    m factors 1 - x: x = a q^k, k = 0, 1, ... going up, and x = a q^-k,
    k = 1, 2, ... going down, so entry m is (a;q)_m or (a q^-m;q)_m.
    (a;q)_n reads entry n going up and the reciprocal of entry -n going
    down, 1/(a;q)_n the other way round; a reciprocal is the entry's
    pair swapped, and a zero numerator there is a PoleError naming the
    first zero factor.  A product read past a pole is the exact zero."""
    if type(n) is not int:
        raise DomainError(f"a Pochhammer index must be an int, got {n!r}")
    up, m = n >= 0, abs(n)
    table = point._poch_tables.get((a, up))
    if table is None:
        table = point._poch_tables[a, up] = [(1, 1)]
    if m >= len(table):
        # x = a q^(+-j) of the next factor, stepping by q or by 1/q; with
        # 1 - x = (xd - xn)/xd a step is (num (xd - xn), den xd)
        (an, ad), (qn, qd) = a, _pair(point.values["q"])
        rn, rd = (qn, qd) if up else (qd, qn)
        j = len(table) - 1 if up else len(table)
        xn, xd = an * rn ** j, ad * rd ** j
        num, den = table[-1]
        for _ in range(len(table), m + 1):
            g = gcd(xn, xd)
            xn, xd = xn // g, xd // g
            num, den = num * (xd - xn), den * xd
            g = gcd(num, den)
            num, den = num // g, den // g
            table.append((num, den))
            xn, xd = xn * rn, xd * rd
    num, den = table[m]
    if (n < 0) == inverse:
        return num, den
    if not num:
        k = next(i for i, (e, _) in enumerate(table) if not e)
        base = Fraction(*a)
        raise PoleError(f"(1 - ({base}) * q^{k - 1})" if up else f"(1 - ({base}) * q^(-{k}))")
    return den, num


def poch_value(a: Fraction, n: int, point: RationalPoint) -> Fraction:
    """(a;q)_n at the point; negative n via (a;q)_{-m} = 1/(aq^{-m};q)_m."""
    return Fraction(*_poch_pair(_pair(a), n, point, False))


def inv_poch_value(a: Fraction, n: int, point: RationalPoint) -> Fraction:
    """1/(a;q)_n at the point.  For negative n this is the polynomial
    (a q^{n};q)_{-n} (in particular exactly 0 when a = q and n < 0)."""
    return Fraction(*_poch_pair(_pair(a), n, point, True))


def _fraction_free_sum(summands) -> Fraction:
    """The sum of the products of each summand's factors, each an int
    pair (numerator, denominator), fraction-free: a summand a/b
    multiplies its factors' numerators and denominators, the running sum
    (num, den) adds it over den*b/g, g = gcd(den, b), and one Fraction is
    built at the end.  A zero summand adds nothing and leaves den alone.
    Each summand's factors are all taken, in order, as it is reached, so
    a pole among them is raised even when another factor is zero."""
    num, den = 0, 1
    for factors in summands:
        a = b = 1
        for n, d in factors:
            a *= n
            b *= d
        if a:
            g = gcd(den, b)
            num, den = num * (b // g) + a * (den // g), den * (b // g)
    return Fraction(num, den)


def _gasper_rahman_factor(q: tuple[int, int], m: int, e: int) -> tuple[int, int]:
    """((-1)^m q^binom(m,2))^e as a reduced int pair."""
    num, den = _power(q, binom2(m) * e)
    return (-num if m * e % 2 else num), den


def phi_terminating(upper: list[Fraction], lower: list[Fraction], argument: Fraction,
                    n: int, point: RationalPoint) -> Fraction:
    """Exact value of the terminating r-phi-s series with these upper
    and lower parameters, Gasper--Rahman convention: the m-th term
    carries ((-1)^m q^binom(m,2))^(1 + s - r).  At least one upper
    parameter must be q^(-n), n the termination index; a second one (a
    random point can draw it) ends the series at n all the same."""
    _check_bounds(n)
    q = point["q"]
    if q ** (-n) not in upper:
        raise DomainError(f"terminating series needs an upper parameter q^(-{n})")
    extra_power = 1 + len(lower) - len(upper)
    x, qp = _pair(argument), _pair(q)
    upper, lower = [_pair(a) for a in upper], [_pair(b) for b in lower]
    return _fraction_free_sum(
        (_power(x, m),
         *(_poch_pair(a, m, point, False) for a in upper),
         _poch_pair(qp, m, point, True),
         *(_poch_pair(b, m, point, True) for b in lower),
         _gasper_rahman_factor(qp, m, extra_power))
        for m in range(n + 1))


def _vwp_sixphi5_sum(a: Fraction, b: Fraction, c: Fraction, n: int,
                     point: RationalPoint) -> Fraction:
    # very-well-poised 6phi5; the half-power parameter pair enters only
    # through (1 - a q^(2m)) / (1 - a), so the sum stays rational
    q = point["q"]
    point.check_nonzero(1 - a, f"(1 - a) with a={a}")
    arg = a * q ** (n + 1) / point.check_nonzero(b * c, f"b*c with b={b}, c={c}")
    ap, bp, cp, qp, xp = (_pair(x) for x in (a, b, c, q, arg))
    (an, ad), (qn, qd) = ap, qp
    terminator, aqb, aqc, aqn = (_pair(x) for x in (q ** (-n), a * q / b, a * q / c,
                                                   a * q ** (n + 1)))
    # (1 - a q^(2m)) / (1 - a) = (ad qd^2m - an qn^2m) / (qd^2m (ad - an))
    well_poised = [(ad * qd ** (2 * m) - an * qn ** (2 * m), qd ** (2 * m) * (ad - an))
                   for m in range(n + 1)]
    return _fraction_free_sum(
        (_poch_pair(ap, m, point, False), well_poised[m],
         _poch_pair(bp, m, point, False), _poch_pair(cp, m, point, False),
         _poch_pair(terminator, m, point, False),
         _poch_pair(qp, m, point, True),
         _poch_pair(aqb, m, point, True),
         _poch_pair(aqc, m, point, True),
         _poch_pair(aqn, m, point, True),
         _power(xp, m))
        for m in range(n + 1))


def classical_sides(name: str, point: RationalPoint, n: int) -> tuple[Fraction, Fraction]:
    """(terminating sum, closed form) of a classical summation at the
    point: pfaff-saalschutz (3phi2), chu-vandermonde-2 (2phi1),
    qbinomial-theorem (1phi0) or sixphi5 (very-well-poised 6phi5), each
    terminating at n."""
    _check_bounds(n)
    q = point["q"]
    if name == "pfaff-saalschutz":
        a, b, c = point["a"], point["b"], point["c"]
        point.check_nonzero(c, "c")
        point.check_nonzero(a * b, f"a*b with a={a}, b={b}")
        lhs = phi_terminating([a, b, q ** (-n)], [c, a * b * q ** (1 - n) / c], q, n, point)
        return lhs, _fraction_free_sum([(_poch_pair(_pair(c / a), n, point, False),
                                         _poch_pair(_pair(c / b), n, point, False),
                                         _poch_pair(_pair(c), n, point, True),
                                         _poch_pair(_pair(c / (a * b)), n, point, True))])
    if name == "chu-vandermonde-2":
        a, c = point["a"], point["c"]
        point.check_nonzero(a, "a")
        lhs = phi_terminating([a, q ** (-n)], [c], q, n, point)
        return lhs, _fraction_free_sum([(_power(_pair(a), n),
                                         _poch_pair(_pair(c / a), n, point, False),
                                         _poch_pair(_pair(c), n, point, True))])
    if name == "qbinomial-theorem":
        z = point["z"]
        return (phi_terminating([q ** (-n)], [], z, n, point),
                _fraction_free_sum([(_poch_pair(_pair(z * q ** (-n)), n, point, False),)]))
    if name == "sixphi5":
        a, b, c = point["a"], point["b"], point["c"]
        lhs = _vwp_sixphi5_sum(a, b, c, n, point)
        return lhs, _fraction_free_sum([(_poch_pair(_pair(a * q), n, point, False),
                                         _poch_pair(_pair(a * q / (b * c)), n, point, False),
                                         _poch_pair(_pair(a * q / b), n, point, True),
                                         _poch_pair(_pair(a * q / c), n, point, True))])
    raise DomainError(f"unknown classical identity {name!r}")


def heine1_sides(a: Fraction, trunc: Truncation) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of Heine's first transformation of a 2phi1, with
    parameters (a, t; tq) and argument s, so that both the outer series
    (powers of s) and the transformed series (powers of t) terminate
    modulo the truncation."""
    lhs = TruncatedSeries.sum_of_products(
        trunc, ((poch_finite((a, 0, 0, 0, 0), n, trunc) * poch_ratio((1, 0, 1, 0, 0), n, trunc),
                 inv_tq(n, trunc).shift(e_s=n))
                for n in range(trunc.s_cap + 1)))
    inner = TruncatedSeries.sum_of_products(
        trunc, ((poch_finite((1, 0, 0, 1, 0), m, trunc),
                 inv_poch((a, 0, 0, 1, 0), m, trunc).shift(e_t=m))
                for m in range(trunc.max_t + 1)))
    # (t;q)_inf / (tq, s;q)_inf, the a-free factor, then (as;q)_inf
    rhs = (infinite_product(((1, 0, 1, 0, 0),), ((1, 1, 1, 0, 0), (1, 0, 0, 1, 0)), trunc)
           * poch_infinite((a, 0, 0, 1, 0), trunc) * inner)
    return lhs, rhs


# -- the S_{d,n} layer ------------------------------------------------


def _q_t_pairs(point: RationalPoint) -> tuple[tuple[int, int], ...]:
    """The int pairs of q, t and 1/t at the point; t = 0 is a named pole."""
    t = point.check_nonzero(point["t"], "t")
    return _pair(point["q"]), _pair(t), _pair(1 / t)


def s_sum(d: int, n: int, point: RationalPoint) -> Fraction:
    """Defining sum S_{d,n} = sum_{j=0}^{2n} (t;q)_j (t;q)_{2n-j}
    (1/t;q)_{j+d} t^{j+d} / ((q;q)_j (q;q)_{2n-j} (t;q)_{j+d})."""
    _check_bounds(d, n)
    q, t, ti = _q_t_pairs(point)
    return _fraction_free_sum(
        (_poch_pair(t, j, point, False), _poch_pair(t, 2 * n - j, point, False),
         _poch_pair(ti, j + d, point, False), _power(t, j + d),
         _poch_pair(q, j, point, True),
         _poch_pair(q, 2 * n - j, point, True),
         _poch_pair(t, j + d, point, True))
        for j in range(2 * n + 1))


def s_closed(d: int, n: int, point: RationalPoint) -> Fraction:
    """Closed form (t^2;q)_{2n} (q^d;q)_{2n} (1/t;q)_d t^d /
    ((q;q)_{2n} (t;q)_{2n+d})."""
    _check_bounds(d, n)
    q, t, ti = _q_t_pairs(point)
    return _fraction_free_sum([(_poch_pair(_power(t, 2), 2 * n, point, False),
                                _poch_pair(_power(q, d), 2 * n, point, False),
                                _poch_pair(ti, d, point, False), _power(t, d),
                                _poch_pair(q, 2 * n, point, True),
                                _poch_pair(t, 2 * n + d, point, True))])


def s_symmetry_sides(l: int, n: int, point: RationalPoint) -> tuple[Fraction, Fraction]:
    """Both sides of the pairing identity
    sum_j [2l,j]_q S_{j-l-n,n} = -sum_j [2l,j]_q S_{j-l-n+1,n}, each
    [2l,j]_q = (q;q)_2l / ((q;q)_j (q;q)_{2l-j}) three pair reads."""
    _check_bounds(l, n)
    q = _pair(point["q"])

    def side(shift: int) -> Fraction:
        return _fraction_free_sum(
            (_poch_pair(q, 2 * l, point, False), _poch_pair(q, j, point, True),
             _poch_pair(q, 2 * l - j, point, True), _pair(s_sum(j - l - n + shift, n, point)))
            for j in range(2 * l + 1))

    return side(0), -side(1)


# -- expansion-coefficient summation identities -----------------------


def expansion_coeff_sides(l: int, n: int, point: RationalPoint) -> tuple[Fraction, Fraction]:
    """(sum, closed form) of the terminating sum behind the Hermite
    expansion coefficients:
    sum_{j=0}^{2l} (q^{j-l-n};q)_{2n} (1/t;q)_{j-l-n} t^j /
                   ((q;q)_j (q;q)_{2l-j} (t;q)_{j-l+n})
      = t^{2l} / ((q;q)_{l-n} (tq;q)_{l+n}),
    both sides exactly zero when l < n."""
    _check_bounds(l, n)
    q, t, ti = _q_t_pairs(point)
    tq = _pair(point["t"] * point["q"])
    q_powers = [_power(q, j - l - n) for j in range(2 * l + 1)]
    lhs = _fraction_free_sum(
        (_poch_pair(q_powers[j], 2 * n, point, False),
         _poch_pair(ti, j - l - n, point, False), _power(t, j),
         _poch_pair(q, j, point, True),
         _poch_pair(q, 2 * l - j, point, True),
         _poch_pair(t, j - l + n, point, True))
        for j in range(2 * l + 1))
    rhs = _fraction_free_sum([(_power(t, 2 * l), _poch_pair(q, l - n, point, True),
                               _poch_pair(tq, l + n, point, True))])
    return lhs, rhs


def wp_expansion_coeff_sides(l: int, n: int,
                             point: RationalPoint) -> tuple[Fraction, Fraction]:
    """(sum, closed form) of the s-weighted variant of the same sum:
    sum_{j=0}^{2l} (s;q)_j (s;q)_{2l-j} (q^{j-l-n};q)_{2n} (1/t;q)_{j-l-n} t^j /
                   ((q;q)_j (q;q)_{2l-j} (t;q)_{j-l+n})
      = (s/t;q)_{l-n} (s;q)_{l+n} t^{2l} / ((q;q)_{l-n} (tq;q)_{l+n});
    at s = 0 it reduces to the unweighted sum."""
    _check_bounds(l, n)
    s = point["s"]
    q, t, ti = _q_t_pairs(point)
    tq, st, s = _pair(point["t"] * point["q"]), _pair(s / point["t"]), _pair(s)
    q_powers = [_power(q, j - l - n) for j in range(2 * l + 1)]
    lhs = _fraction_free_sum(
        (_poch_pair(s, j, point, False), _poch_pair(s, 2 * l - j, point, False),
         _poch_pair(q_powers[j], 2 * n, point, False),
         _poch_pair(ti, j - l - n, point, False), _power(t, j),
         _poch_pair(q, j, point, True),
         _poch_pair(q, 2 * l - j, point, True),
         _poch_pair(t, j - l + n, point, True))
        for j in range(2 * l + 1))
    # evaluate the vanishing factor first so that l < n cannot hit the
    # negative-index (s/t;q) factor behind an exact zero
    inv_qq_part = _poch_pair(q, l - n, point, True)
    if not inv_qq_part[0]:
        return lhs, Fraction(0)
    rhs = _fraction_free_sum([(_poch_pair(st, l - n, point, False),
                               _poch_pair(s, l + n, point, False), _power(t, 2 * l),
                               inv_qq_part, _poch_pair(tq, l + n, point, True))])
    return lhs, rhs


# -- B and Phi evaluations (series ring) ------------------------------


def b_defining_sum(n: int, trunc: Truncation) -> TruncatedSeries:
    """B_n(z;q) = sum_{s=0}^n (-1)^{n-s} q^binom(n-s,2) /
    ((q;q)_s^2 (q;q)_{n-s}) * sum_{u1,u2} [s,u1]_q [s,u2]_q z^{2u1-2u2},
    the (u1,u2)-sum being H_s(z;q)^2."""
    pairs = []
    for sig in range(n + 1):
        h = hermite(sig, trunc)
        signed = inv_qq(n - sig, trunc) * combined_poch(0, n - sig, trunc)
        pairs.append((inv_qq(sig, trunc) ** 2 * signed, h * h))
    return TruncatedSeries.sum_of_products(trunc, pairs)


def b_closed(n: int, trunc: Truncation) -> TruncatedSeries:
    """H_{2n}(z;q) / (q;q)_n^2."""
    return hermite(2 * n, trunc) * inv_qq(n, trunc) ** 2


def phi_defining_sum(n: int, nprime: int, trunc: Truncation) -> TruncatedSeries:
    """Phi_{n,n'}(q) = sum_{s=0}^n (-1)^{n-s} q^binom(n-s,2)
    (q;q)_{s+n'} / ((q;q)_s^2 (q;q)_{n-s})."""
    pairs = []
    for sig in range(n + 1):
        num = poch_finite((1, 1, 0, 0, 0), sig + nprime, trunc) * inv_qq(sig, trunc) ** 2
        pairs.append((num, inv_qq(n - sig, trunc) * combined_poch(0, n - sig, trunc)))
    return TruncatedSeries.sum_of_products(trunc, pairs)


def phi_closed(n: int, nprime: int, trunc: Truncation) -> TruncatedSeries:
    """q^(n^2) (q;q)_{n'} / (q;q)_n * [n',n]_q; zero when n > n'."""
    if n > nprime:
        return TruncatedSeries.zero(trunc)
    return (poch_finite((1, 1, 0, 0, 0), nprime, trunc).shift(e_q=n * n) * inv_qq(n, trunc)
            * qbinomial(nprime, n, trunc))


# -- random-point machinery -------------------------------------------


def draw_point(rng: random.Random, names: tuple[str, ...]) -> RationalPoint:
    """One random rational point; numerators and denominators uniform
    on [2, 97], redrawn when a coordinate lands on 1."""
    values = {}
    for name in names:
        while True:
            v = Fraction(rng.randint(2, 97), rng.randint(2, 97))
            if v != 1:
                break
        values[name] = v
    return RationalPoint(values)


# draws per random point before a check that keeps meeting poles gives up
MAX_DRAWS = 64


def run_at_random_points(check, names: tuple[str, ...], n_points: int, seed: int) -> list:
    """The results of `check(point, seed)` at n_points random points,
    redrawing a point whenever it hits a pole."""
    rng = random.Random(seed)
    results = []
    for _ in range(n_points):
        for _attempt in range(MAX_DRAWS):
            point = draw_point(rng, names)
            try:
                results.append(check(point, seed))
                break
            except PoleError:
                continue
        else:
            raise DomainError(f"could not draw a pole-free point after {MAX_DRAWS} tries")
    return results
