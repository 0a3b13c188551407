"""Terminating basic hypergeometric evaluation and the rational-point
backend for finite summation identities.

Two deliberately separate backends:

* identities that are rational functions of the parameters and involve
  negative-index Pochhammers evaluate exactly at rational points, using
  the convention (a;q)_{-m} = 1/(a q^{-m};q)_m, so negative exponents
  never enter the series ring;
* identities among formal series evaluate in the truncated ring.

Every denominator factor at a rational point is checked; a zero aborts
with the factor named.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, PoleError
from .qfunctions import (binom2, hermite, inv_poch, inv_poch_infinite, inv_qq, inv_tq,
                         poch_finite, poch_infinite, qbinomial)
from .report import IdentityReport, Stopwatch, series_report, value_mismatch
from .series import TruncatedSeries, Truncation


@dataclass
class RationalPoint:
    """Exact assignment of variables to rationals.

    q must not be 0 or a root of unity, which for a rational q means
    +-1.  Other variables may be zero; an operation that needs their
    inverse will raise a named PoleError.

    The point owns the prefix tables behind `poch_value` and
    `inv_poch_value`, keyed by base and direction; they grow only as far
    as a call needs and are freed with the point.
    """

    values: dict[str, Fraction]
    _poch_tables: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        self.values = {k: Fraction(v) for k, v in self.values.items()}
        q = self.values.get("q")
        if q is None:
            raise DomainError("a rational point must assign q")
        if q == 0:
            raise DomainError("q must be nonzero")
        if q in (1, -1):        # the only rational roots of unity
            raise DomainError(f"q={q} is a root of unity of order {1 if q == 1 else 2}")

    def __getitem__(self, name: str) -> Fraction:
        try:
            return self.values[name]
        except KeyError:
            raise DomainError(f"rational point has no value for {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def check_nonzero(self, value: Fraction, desc: str) -> Fraction:
        if value == 0:
            raise PoleError(desc)
        return value

    def describe(self) -> dict:
        return {k: f"{v.numerator}/{v.denominator}" for k, v in sorted(self.values.items())}

    def _prefix_table(self, a: Fraction, n: int) -> "_PrefixTable":
        """The table whose entry |n| is (a;q)_n for n >= 0 and, for n < 0,
        the product (1 - a q^-1)(1 - a q^-2)...(1 - a q^n) = (a q^n;q)_{-n}."""
        # int parts hash in C; hashing the Fraction itself runs Python code
        key = (a.numerator, a.denominator, n >= 0)
        table = self._poch_tables.get(key)
        if table is None:
            q = self.values["q"]
            table = self._poch_tables[key] = (
                _PrefixTable(a, q) if n >= 0 else _PrefixTable(a / q, 1 / q))
        return table

    def _prefix_reciprocal(self, a: Fraction, n: int) -> Fraction:
        """The reciprocal of entry |n| of the table for a and n, computed
        once; a zero entry raises the PoleError naming its factor."""
        table = self._prefix_table(a, n)
        m = abs(n)
        value = table.upto(m)
        inverse = table.reciprocals[m]
        if inverse is None:
            if value == 0:
                raise _pole(a, n, self)
            inverse = table.reciprocals[m] = 1 / value
        return inverse


class _PrefixTable:
    """The prefix products 1, (1 - x), (1 - x)(1 - x r), ... of the
    factors 1 - x r^k, extended only as far as a call needs, beside a
    column of their reciprocals, each filled in when first asked for."""

    __slots__ = ("products", "reciprocals", "x", "ratio")

    def __init__(self, x: Fraction, ratio: Fraction):
        self.products = [Fraction(1)]
        self.reciprocals = [Fraction(1)]
        self.x = x          # the next factor is 1 - x
        self.ratio = ratio

    def upto(self, m: int) -> Fraction:
        products = self.products
        while len(products) <= m:
            products.append(products[-1] * (1 - self.x))
            self.reciprocals.append(None)
            self.x *= self.ratio
        return products[m]


def _pole(a: Fraction, n: int, point: RationalPoint) -> PoleError:
    """The error naming the first vanishing factor of a product that
    `RationalPoint._prefix_table` holds as zero."""
    q = point["q"]
    if n >= 0:
        k = next(k for k in range(n) if 1 - a * q ** k == 0)
        return PoleError(f"(1 - ({a}) * q^{k})")
    j = next(j for j in range(1, -n + 1) if 1 - a * q ** (-j) == 0)
    return PoleError(f"(1 - ({a}) * q^(-{j}))")


def poch_value(a: Fraction, n: int, point: RationalPoint) -> Fraction:
    """(a;q)_n at the point; negative n via (a;q)_{-m} = 1/(aq^{-m};q)_m."""
    if n >= 0:
        return point._prefix_table(a, n).upto(n)
    return point._prefix_reciprocal(a, n)


def inv_poch_value(a: Fraction, n: int, point: RationalPoint) -> Fraction:
    """1/(a;q)_n at the point.  For negative n this is the polynomial
    (a q^{n};q)_{-n} (in particular exactly 0 when a = q and n < 0)."""
    if n < 0:
        return point._prefix_table(a, n).upto(-n)
    return point._prefix_reciprocal(a, n)


def qbinomial_value(M: int, N: int, point: RationalPoint) -> Fraction:
    if N < 0 or N > M:
        return Fraction(0)
    q = point["q"]
    return poch_value(q, M, point) * inv_poch_value(q, N, point) \
        * inv_poch_value(q, M - N, point)


@dataclass
class PhiSpec:
    """A terminating r-phi-s series: one upper parameter must equal
    q^(-n) with n the termination index."""

    upper: list[Fraction]
    lower: list[Fraction]
    argument: Fraction
    n: int


def phi_terminating(spec: PhiSpec, point: RationalPoint) -> Fraction:
    """Exact value of the terminating series, Gasper--Rahman convention:
    the m-th term carries ((-1)^m q^binom(m,2))^(1 + s - r)."""
    q = point["q"]
    terminator = q ** (-spec.n)
    if sum(1 for a in spec.upper if a == terminator) != 1:
        raise DomainError(
            f"terminating series needs exactly one upper parameter q^(-{spec.n})")
    extra_power = 1 + len(spec.lower) - len(spec.upper)
    total = Fraction(0)
    for m in range(spec.n + 1):
        term = Fraction(spec.argument) ** m
        for a in spec.upper:
            term *= poch_value(a, m, point)
        term *= inv_poch_value(q, m, point)
        for b in spec.lower:
            term *= inv_poch_value(b, m, point)
        if extra_power:
            term *= ((-1) ** m * q ** binom2(m)) ** extra_power
        total += term
    return total


def _vwp_sixphi5_sum(a: Fraction, b: Fraction, c: Fraction, n: int,
                     point: RationalPoint) -> Fraction:
    # very-well-poised 6phi5; the half-power parameter pair enters only
    # through (1 - a q^(2m)) / (1 - a), so the sum stays rational
    q = point["q"]
    point.check_nonzero(1 - a, f"(1 - a) with a={a}")
    arg = a * q ** (n + 1) / point.check_nonzero(b * c, f"b*c with b={b}, c={c}")
    total = Fraction(0)
    for m in range(n + 1):
        term = (poch_value(a, m, point) * (1 - a * q ** (2 * m)) / (1 - a)
                * poch_value(b, m, point) * poch_value(c, m, point)
                * poch_value(q ** (-n), m, point)
                * inv_poch_value(q, m, point)
                * inv_poch_value(a * q / b, m, point)
                * inv_poch_value(a * q / c, m, point)
                * inv_poch_value(a * q ** (n + 1), m, point)
                * arg ** m)
        total += term
    return total


def _value_report(identity: str, lhs: Fraction, rhs: Fraction, params: dict,
                  watch: Stopwatch, seed: int | None = None) -> IdentityReport:
    mismatch = value_mismatch(lhs, rhs)
    return IdentityReport(
        identity=identity, params=params, truncation=None,
        status="pass" if mismatch is None else "fail",
        first_mismatch=mismatch, wall_time_ms=watch.ms(),
        term_counts={}, seed=seed)


def classical_check(name: str, point: RationalPoint, n: int,
                    seed: int | None = None) -> IdentityReport:
    """Check one classical summation/transformation at the point.

    heine-1 is nonterminating on both sides, so it is checked in the
    truncated ring with the argument and two parameters kept formal
    (b = t, c = tq, argument = s) and a taken from the point; n is
    ignored for it.
    """
    watch = Stopwatch()
    q = point["q"]
    params: dict = {"n": n, "point": point.describe()}
    if name == "pfaff-saalschutz":
        a, b, c = point["a"], point["b"], point["c"]
        point.check_nonzero(c, "c")
        spec = PhiSpec([a, b, q ** (-n)], [c, a * b * q ** (1 - n) / c], q, n)
        lhs = phi_terminating(spec, point)
        rhs = (poch_value(c / a, n, point) * poch_value(c / b, n, point)
               * inv_poch_value(c, n, point)
               * inv_poch_value(c / (a * b), n, point))
        return _value_report(f"classical-{name}", lhs, rhs, params, watch, seed)
    if name == "chu-vandermonde-2":
        a, c = point["a"], point["c"]
        spec = PhiSpec([a, q ** (-n)], [c], q, n)
        lhs = phi_terminating(spec, point)
        rhs = a ** n * poch_value(c / a, n, point) * inv_poch_value(c, n, point)
        return _value_report(f"classical-{name}", lhs, rhs, params, watch, seed)
    if name == "qbinomial-theorem":
        z = point["z"]
        spec = PhiSpec([q ** (-n)], [], z, n)
        lhs = phi_terminating(spec, point)
        rhs = poch_value(z * q ** (-n), n, point)
        return _value_report(f"classical-{name}", lhs, rhs, params, watch, seed)
    if name == "sixphi5":
        a, b, c = point["a"], point["b"], point["c"]
        lhs = _vwp_sixphi5_sum(a, b, c, n, point)
        rhs = (poch_value(a * q, n, point) * poch_value(a * q / (b * c), n, point)
               * inv_poch_value(a * q / b, n, point)
               * inv_poch_value(a * q / c, n, point))
        return _value_report(f"classical-{name}", lhs, rhs, params, watch, seed)
    if name == "heine-1":
        a = point["a"]
        lhs, rhs = heine1_sides(a, Truncation(8, 8, 8))
        return series_report(f"classical-{name}", lhs, rhs,
                             params={"a": f"{a.numerator}/{a.denominator}"},
                             watch=watch, seed=seed)
    raise DomainError(f"unknown classical identity {name!r}")


def heine1_sides(a: Fraction, trunc: Truncation) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of Heine's first transformation of a 2phi1, with
    parameters (a, t; tq) and argument s, so that both the outer series
    (powers of s) and the transformed series (powers of t) terminate
    modulo the truncation."""
    one = TruncatedSeries.one(trunc)
    t = TruncatedSeries.variable(trunc, "t")
    s = TruncatedSeries.variable(trunc, "s")

    lhs = TruncatedSeries.zero(trunc)
    spow = one
    for n in range(trunc.s_cap + 1):
        term = (poch_finite((a, 0, 0, 0, 0), n, trunc) * poch_finite((1, 0, 1, 0, 0), n, trunc)
                * inv_qq(n, trunc) * inv_tq(n, trunc))
        lhs = lhs + term * spow
        spow = spow * s

    inner = TruncatedSeries.zero(trunc)
    tpow = one
    for m in range(trunc.max_t + 1):
        inner = inner + poch_finite((1, 0, 0, 1, 0), m, trunc) \
            * inv_poch((a, 0, 0, 1, 0), m, trunc) * tpow
        tpow = tpow * t
    rhs = (poch_infinite((1, 0, 1, 0, 0), trunc) * poch_infinite((a, 0, 0, 1, 0), trunc)
           * inv_poch_infinite((1, 1, 1, 0, 0), trunc)
           * inv_poch_infinite((1, 0, 0, 1, 0), trunc) * inner)
    return lhs, rhs


# -- the S_{d,n} layer ------------------------------------------------


def s_sum(d: int, n: int, point: RationalPoint) -> Fraction:
    """Defining sum S_{d,n} = sum_{j=0}^{2n} (t;q)_j (t;q)_{2n-j}
    (1/t;q)_{j+d} t^{j+d} / ((q;q)_j (q;q)_{2n-j} (t;q)_{j+d})."""
    t = point["t"]
    ti = 1 / point.check_nonzero(t, "t")
    total = Fraction(0)
    for j in range(2 * n + 1):
        total += (poch_value(t, j, point) * poch_value(t, 2 * n - j, point)
                  * poch_value(ti, j + d, point) * t ** (j + d)
                  * inv_poch_value(point["q"], j, point)
                  * inv_poch_value(point["q"], 2 * n - j, point)
                  * inv_poch_value(t, j + d, point))
    return total


def s_closed(d: int, n: int, point: RationalPoint) -> Fraction:
    """Closed form (t^2;q)_{2n} (q^d;q)_{2n} (1/t;q)_d t^d /
    ((q;q)_{2n} (t;q)_{2n+d})."""
    q, t = point["q"], point["t"]
    ti = 1 / point.check_nonzero(t, "t")
    return (poch_value(t * t, 2 * n, point) * poch_value(q ** d, 2 * n, point)
            * poch_value(ti, d, point) * t ** d
            * inv_poch_value(q, 2 * n, point)
            * inv_poch_value(t, 2 * n + d, point))


def s_closed_check(d: int, n: int, point: RationalPoint,
                   seed: int | None = None) -> IdentityReport:
    watch = Stopwatch()
    params = {"d": d, "n": n, "point": point.describe()}
    return _value_report("s-closed-form", s_sum(d, n, point),
                         s_closed(d, n, point), params, watch, seed)


def s_symmetry_check(l: int, n: int, point: RationalPoint,
                     seed: int | None = None) -> IdentityReport:
    """The pairing identity
    sum_j [2l,j]_q S_{j-l-n,n} = -sum_j [2l,j]_q S_{j-l-n+1,n}."""
    watch = Stopwatch()
    lhs = sum((qbinomial_value(2 * l, j, point) * s_sum(j - l - n, n, point)
               for j in range(2 * l + 1)), Fraction(0))
    rhs = -sum((qbinomial_value(2 * l, j, point) * s_sum(j - l - n + 1, n, point)
                for j in range(2 * l + 1)), Fraction(0))
    params = {"l": l, "n": n, "point": point.describe()}
    return _value_report("s-symmetry", lhs, rhs, params, watch, seed)


# -- expansion-coefficient summation identities -----------------------


def expansion_coeff_check(l: int, n: int, point: RationalPoint,
                          seed: int | None = None) -> IdentityReport:
    """The terminating sum behind the Hermite expansion coefficients:
    sum_{j=0}^{2l} (q^{j-l-n};q)_{2n} (1/t;q)_{j-l-n} t^j /
                   ((q;q)_j (q;q)_{2l-j} (t;q)_{j-l+n})
      = t^{2l} / ((q;q)_{l-n} (tq;q)_{l+n}),
    both sides exactly zero when l < n."""
    watch = Stopwatch()
    q, t = point["q"], point["t"]
    ti = 1 / point.check_nonzero(t, "t")
    lhs = Fraction(0)
    for j in range(2 * l + 1):
        lhs += (poch_value(q ** (j - l - n), 2 * n, point)
                * poch_value(ti, j - l - n, point) * t ** j
                * inv_poch_value(q, j, point)
                * inv_poch_value(q, 2 * l - j, point)
                * inv_poch_value(t, j - l + n, point))
    rhs = (t ** (2 * l) * inv_poch_value(q, l - n, point)
           * inv_poch_value(t * q, l + n, point))
    params = {"l": l, "n": n, "point": point.describe()}
    return _value_report("expansion-coeff-sum", lhs, rhs, params, watch, seed)


def wp_expansion_coeff_check(l: int, n: int, point: RationalPoint,
                             seed: int | None = None) -> IdentityReport:
    """The s-weighted variant of the same sum:
    sum_{j=0}^{2l} (s;q)_j (s;q)_{2l-j} (q^{j-l-n};q)_{2n} (1/t;q)_{j-l-n} t^j /
                   ((q;q)_j (q;q)_{2l-j} (t;q)_{j-l+n})
      = (s/t;q)_{l-n} (s;q)_{l+n} t^{2l} / ((q;q)_{l-n} (tq;q)_{l+n});
    at s = 0 it reduces to the unweighted sum."""
    watch = Stopwatch()
    q, t, s = point["q"], point["t"], point["s"]
    ti = 1 / point.check_nonzero(t, "t")
    lhs = Fraction(0)
    for j in range(2 * l + 1):
        lhs += (poch_value(s, j, point) * poch_value(s, 2 * l - j, point)
                * poch_value(q ** (j - l - n), 2 * n, point)
                * poch_value(ti, j - l - n, point) * t ** j
                * inv_poch_value(q, j, point)
                * inv_poch_value(q, 2 * l - j, point)
                * inv_poch_value(t, j - l + n, point))
    # evaluate the vanishing factor first so that l < n cannot hit the
    # negative-index (s/t;q) factor behind an exact zero
    inv_qq_part = inv_poch_value(q, l - n, point)
    if inv_qq_part == 0:
        rhs = Fraction(0)
    else:
        rhs = (poch_value(s * ti, l - n, point) * poch_value(s, l + n, point)
               * t ** (2 * l) * inv_qq_part
               * inv_poch_value(t * q, l + n, point))
    params = {"l": l, "n": n, "point": point.describe()}
    return _value_report("wp-expansion-coeff-sum", lhs, rhs, params, watch, seed)


# -- B and Phi evaluations (series ring) ------------------------------


def b_defining_sum(n: int, trunc: Truncation) -> TruncatedSeries:
    """B_n(z;q) = sum_{s=0}^n (-1)^{n-s} q^binom(n-s,2) /
    ((q;q)_s^2 (q;q)_{n-s}) * sum_{u1,u2} [s,u1]_q [s,u2]_q z^{2u1-2u2},
    the (u1,u2)-sum being H_s(z;q)^2."""
    total = TruncatedSeries.zero(trunc)
    for sig in range(n + 1):
        h = hermite(sig, trunc)
        inner = h * h
        coeff = inv_qq(sig, trunc) ** 2 * inv_qq(n - sig, trunc)
        sign = -1 if (n - sig) % 2 else 1
        total = total + (coeff * inner).scale(sign).shift(e_q=binom2(n - sig))
    return total


def b_closed(n: int, trunc: Truncation) -> TruncatedSeries:
    """H_{2n}(z;q) / (q;q)_n^2."""
    return hermite(2 * n, trunc) * inv_qq(n, trunc) ** 2


def phi_defining_sum(n: int, nprime: int, trunc: Truncation) -> TruncatedSeries:
    """Phi_{n,n'}(q) = sum_{s=0}^n (-1)^{n-s} q^binom(n-s,2)
    (q;q)_{s+n'} / ((q;q)_s^2 (q;q)_{n-s})."""
    total = TruncatedSeries.zero(trunc)
    for sig in range(n + 1):
        term = (poch_finite((1, 1, 0, 0, 0), sig + nprime, trunc) * inv_qq(sig, trunc) ** 2
                * inv_qq(n - sig, trunc))
        sign = -1 if (n - sig) % 2 else 1
        total = total + term.scale(sign).shift(e_q=binom2(n - sig))
    return total


def phi_closed(n: int, nprime: int, trunc: Truncation) -> TruncatedSeries:
    """q^(n^2) (q;q)_{n'} / (q;q)_n * [n',n]_q; zero when n > n'."""
    if n > nprime:
        return TruncatedSeries.zero(trunc)
    out = (poch_finite((1, 1, 0, 0, 0), nprime, trunc) * inv_qq(n, trunc)
           * qbinomial(nprime, n, trunc))
    return out.shift(e_q=n * n)


def b_phi_defining_sums(n: int, nprime: int,
                        trunc: Truncation) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(B_n as defining sum, Phi_{n,n'} as defining sum)."""
    return b_defining_sum(n, trunc), phi_defining_sum(n, nprime, trunc)


def b_phi_check(n: int, nprime: int, trunc: Truncation) -> list[IdentityReport]:
    watch = Stopwatch()
    reports = [
        series_report("b-eva", b_defining_sum(n, trunc), b_closed(n, trunc),
                      params={"n": n}, watch=watch),
        series_report("phi-eva", phi_defining_sum(n, nprime, trunc),
                      phi_closed(n, nprime, trunc),
                      params={"n": n, "nprime": nprime}, watch=watch),
    ]
    return reports


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


def run_at_random_points(check, names: tuple[str, ...], n_points: int,
                         seed: int, max_retries: int = 64) -> list[IdentityReport]:
    """Run `check(point, seed)` at n_points random points, redrawing a
    point whenever it hits a pole."""
    rng = random.Random(seed)
    reports = []
    for _ in range(n_points):
        for _attempt in range(max_retries):
            point = draw_point(rng, names)
            try:
                reports.append(check(point, seed))
                break
            except PoleError:
                continue
        else:
            raise DomainError(f"could not draw a pole-free point after {max_retries} tries")
    return reports
