"""Exact truncated multivariate formal series.

The ring is Q[q, t, s][z, z^-1] modulo the ideal generated by
q^(max_q+1), t^(max_t+1) and s^(max_s+1).  The Laurent variable z is
never truncated; every construction used by the engine keeps its
z-support finite.  Coefficients are exact rationals and all values are
immutable after construction.

A series is stored as q-rows over one common denominator.  A row is
keyed (e_t, e_s, e_z) and holds its first q-exponent and the tuple of
its integer numerators, from its first nonzero one to its last.  The
rows are kept sorted by key, no row is empty, and the denominator is
positive and coprime to the gcd of all numerators (the zero series has
no rows and denominator 1), so this form is canonical and equality is a
structural comparison.  No other form is kept: `terms()` alone turns
rows into terms (the error and debug preview reads its few straight from
the rows), and the checked constructor alone turns terms into rows.

A monomial is the exponent tuple (e_q, e_t, e_s, e_z); the canonical
total order on monomials is the lexicographic order on that tuple, and
every iteration and mismatch report uses it.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice

from .errors import DomainError, NonInvertible, TruncationMismatch, TruncationOverflow

Coeff = int | Fraction


class Monomial(namedtuple("Monomial", "e_q e_t e_s e_z")):
    """Exponent tuple; interchangeable with a plain 4-tuple as a dict key."""

    __slots__ = ()


class Truncation(namedtuple("Truncation", "max_q max_t max_s", defaults=(None,))):
    """Per-variable degree caps.  max_s is None when s is absent.

    A validated, immutable tuple: construction refuses a cap that is
    not an int (a bool is not) or is negative, and equality and hashing are those of the tuple
    (max_q, max_t, max_s).  Two series interoperate only when their
    truncations are equal.
    """

    __slots__ = ()

    def __new__(cls, max_q: int, max_t: int, max_s: int | None = None):
        caps = (max_q, max_t) + (() if max_s is None else (max_s,))
        if not all(type(cap) is int for cap in caps):
            raise DomainError(f"truncation caps must be integers, got {caps}")
        if min(caps) < 0:
            raise DomainError("truncation caps must be >= 0")
        return super().__new__(cls, max_q, max_t, max_s)

    @property
    def s_cap(self) -> int:
        """Effective cap on the s-exponent (0 when s is absent)."""
        return 0 if self.max_s is None else self.max_s

    def cap(self, var: str) -> int:
        return {"q": self.max_q, "t": self.max_t, "s": self.s_cap}[var]


def _exact(c) -> Coeff:
    """c itself if it is an int or a Fraction; anything else, a float
    above all, would enter the exact ring inexactly, so it is refused."""
    if not isinstance(c, (int, Fraction)):
        raise DomainError(f"coefficients must be int or Fraction, got {type(c).__name__} {c!r}")
    return c


def _check_exponents(e_q, e_t, e_s, e_z):
    """Refuse a non-int exponent, which no list index or row offset takes."""
    if not (type(e_q) is type(e_t) is type(e_s) is type(e_z) is int):
        raise DomainError(f"exponents must be integers, got {(e_q, e_t, e_s, e_z)}")


def _norm(c: Coeff) -> Coeff:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _ratio(c: Coeff) -> tuple[int, int]:
    """(numerator, denominator) of an int or a reduced Fraction."""
    return (c, 1) if type(c) is int else (c.numerator, c.denominator)


_VAR_INDEX = {"q": 0, "t": 1, "s": 2, "z": 3}
_UNIT_ROWS = (((0, 0, 0), 0, (1,)),)
_DENOMINATOR = operator.attrgetter("denominator")
_FIRST = operator.itemgetter(1)
_NUMS = operator.itemgetter(2)


# -- rows ------------------------------------------------------------------
#
# A row is the triple (key, first, nums): key = (e_t, e_s, e_z), first the
# q-exponent of nums[0], and nums the integer numerators over the series'
# denominator, nums[0] and nums[-1] nonzero.

def _row(key, first: int, nums):
    """The row of the numerators nums from q^first on, with its zero ends
    cut off, or None when every numerator is zero."""
    if nums[0] and nums[-1]:
        return key, first, tuple(nums)
    lo, hi = 0, len(nums)
    while lo < hi and not nums[lo]:
        lo += 1
    while hi > lo and not nums[hi - 1]:
        hi -= 1
    return (key, first + lo, tuple(nums[lo:hi])) if lo < hi else None


def _scaled(rows, m: int):
    """The rows with every numerator times the int m."""
    if m == 1:
        return rows
    return [(key, first, tuple(map(m.__mul__, nums))) for key, first, nums in rows]


def _combined(rows_a, rows_b) -> list:
    """The sorted rows of the sum of two sorted row lists over one
    denominator; equal keys add numerator by numerator."""
    out = []
    last = None
    for row in sorted(chain(rows_a, rows_b)):     # two sorted runs: one merge
        key = row[0]
        if key != last:
            out.append(row)
            last = key
            continue
        _, f1, n1 = out.pop()
        _, f2, n2 = row
        lo = min(f1, f2)
        hi = max(f1 + len(n1), f2 + len(n2))
        n1 = (0,) * (f1 - lo) + n1 + (0,) * (hi - f1 - len(n1))
        n2 = (0,) * (f2 - lo) + n2 + (0,) * (hi - f2 - len(n2))
        merged = _row(key, lo, tuple(map(operator.add, n1, n2)))
        if merged is None:
            last = None
        else:
            out.append(merged)
    return out


def _shifted(rows, e_q: int, e_t: int, e_s: int, e_z: int, trunc: "Truncation") -> list:
    """The rows times q^e_q t^e_t s^e_s z^e_z, with the terms past the caps
    dropped.  Only keys and first exponents move, so the rows stay sorted."""
    mq, mt, ms = trunc.max_q, trunc.max_t, trunc.s_cap
    out = []
    for (t, s, z), first, nums in rows:
        t, s, first = t + e_t, s + e_s, first + e_q
        if t < 0 or s < 0 or first < 0:
            raise DomainError("negative exponent produced by shift")
        if t > mt or s > ms or first > mq:
            continue
        if len(nums) > mq + 1 - first:
            nums = nums[:mq + 1 - first]
            while not nums[-1]:
                nums = nums[:-1]
        out.append(((t, s, z + e_z), first, nums))
    return out


def _terms_to_rows(terms: dict) -> tuple[int, tuple]:
    """(den, rows) of a term map of nonzero int and reduced Fraction
    coefficients within the caps."""
    vals = terms.values()
    if all(type(c) is int for c in vals):
        den = 1
        nums = terms
    else:
        den = math.lcm(*map(_DENOMINATOR, vals))
        nums = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
    by_key: dict = {}
    for (q, t, s, z), n in nums.items():
        by_key.setdefault((t, s, z), {})[q] = n
    rows = []
    for key in sorted(by_key):
        run = by_key[key]
        first = min(run)
        row = [0] * (max(run) - first + 1)
        for q, n in run.items():
            row[q - first] = n
        rows.append((key, first, tuple(row)))
    return den, tuple(rows)


# -- the ring product ---------------------------------------------------
#
# Products and sums of products are formed row by row (Kronecker
# substitution in q): each stored q-row is packed into one signed int,
# one w-bit digit per power of q.  One bigint multiply then forms a whole
# row product, and the t and s caps are checked once per row pair.  A sum
# of products a*b brings every pair to one common denominator
# D = lcm(den_a*den_b): each row product is scaled by D/(den_a*den_b),
# shifted to its absolute q-offset and added as a plain int into one
# packed accumulator per output row, and each accumulator is decoded
# once, straight into the numerators of an output row.  Every digit of
# it is at most the sum of (D/(den_a*den_b))*L1(a)*L1(b) over the pairs
# in absolute value (L1 = sum of |numerators|), so with w = bit_length
# of that sum + 2 the digits, read back in balanced (signed) form, never
# overflow into one another.  The width must come from the sum of the
# pair bounds, not their maximum, since the pairs add into the same
# digits.  A product is the one-pair sum; a one-term factor of a product
# skips all of this: its product is a shift and a scale.
# The caps bound q, t and s, never z, so when z -> 1/z fixes every operand
# it fixes the sum: the mirror path forms only the row pairs that land on
# e_z >= 0 and copies each e_z > 0 row to -e_z (TruncatedSeries._symmetric).

def _packed_rows(rows, w: int, lo: int, hi: int) -> list:
    """(key, int) for the rows with terms at q^lo..q^hi, each packed into
    one int with q^(lo+i) at bit offset w*i (lo <= every first exponent)."""
    out = []
    for key, first, nums in rows:
        if first > hi:
            continue
        if first + len(nums) > hi + 1:
            nums = nums[:hi + 1 - first]
        v = 0
        for c in reversed(nums):
            v = (v << w) + c
        out.append((key, v << (w * (first - lo))))
    return out


def _l1(rows) -> int:
    return sum(map(abs, chain.from_iterable(map(_NUMS, rows))))


def _sum_of_products(pairs, trunc: Truncation) -> "TruncatedSeries":
    """The sum of a*b over the pairs (a, b) of series."""
    mq, mt, ms = trunc.max_q, trunc.max_t, trunc.s_cap
    # pass 1: the lowest q-exponents lo_a, lo_b offset every row; a term
    # of one operand above mq - (lowest of the other) cannot reach the
    # output, and a pair with no room left contributes nothing
    live = []
    mirror = True
    for a, b in pairs:
        rows_a, rows_b = a._rows, b._rows
        if not rows_a or not rows_b:
            continue
        if len(rows_a) > len(rows_b):
            a, b, rows_a, rows_b = b, a, rows_b, rows_a
        lo_a, lo_b = min(map(_FIRST, rows_a)), min(map(_FIRST, rows_b))
        room = mq - lo_a - lo_b
        if room >= 0:
            live.append((room, lo_a, a._den, rows_a, lo_b, b._den, rows_b))
            mirror = mirror and a._symmetric() and b._symmetric()
    if not live:
        return TruncatedSeries.zero(trunc)
    den = math.lcm(*(den_a * den_b for _, _, den_a, _, _, den_b, _ in live))
    bound = sum(den // (den_a * den_b) * _l1(rows_a) * _l1(rows_b)
                for _, _, den_a, rows_a, _, den_b, rows_b in live)
    w = bound.bit_length() + 2

    # pass 2: every row product, scaled to den and shifted to its q-offset,
    # into one accumulator per output row
    acc: dict = {}
    get = acc.get
    for room, lo_a, den_a, rows_a, lo_b, den_b, rows_b in live:
        scale = den // (den_a * den_b)
        shift = w * (lo_a + lo_b)
        packed_b = _packed_rows(rows_b, w, lo_b, lo_b + room)
        for (ta, sa, za), va in _packed_rows(rows_a, w, lo_a, lo_a + room):
            rt, rs = mt - ta, ms - sa
            if scale != 1:
                va *= scale
            if mirror:
                for (tb, sb, zb), vb in packed_b:
                    if tb > rt:
                        break
                    if sb > rs or za + zb < 0:
                        continue
                    key = (ta + tb, sa + sb, za + zb)
                    acc[key] = get(key, 0) + (va * vb << shift)
                continue
            for (tb, sb, zb), vb in packed_b:
                if tb > rt:
                    break
                if sb > rs:
                    continue
                key = (ta + tb, sa + sb, za + zb)
                acc[key] = get(key, 0) + (va * vb << shift)

    base = 1 << w
    half, mask = base >> 1, base - 1
    rows = []
    for key in sorted(acc):
        x = acc[key]
        if not x:
            continue
        i = ((x & -x).bit_length() - 1) // w     # lowest nonzero digit
        if i > mq:
            continue
        first = i
        x >>= w * i
        nums = []
        while x and i <= mq:
            d = x & mask
            if d >= half:
                d -= base
            x = (x - d) >> w
            nums.append(d)
            i += 1
        while not nums[-1]:                      # cut at the q-cap
            nums.pop()
        rows.append((key, first, tuple(nums)))
        if mirror and key[2]:
            rows.append(((key[0], key[1], -key[2]), first, rows[-1][2]))
    return TruncatedSeries._reduced(trunc, den, sorted(rows) if mirror else rows, mirror or None)


class TruncatedSeries:
    """Exact series over the truncated ring, stored as sorted q-rows of
    integer numerators over one common denominator (module docstring).

    No stored numerator run starts or ends with zero and no stored term
    violates the truncation; construction reduces modulo the truncation
    ideal by dropping out-of-cap terms.
    """

    __slots__ = ("trunc", "_den", "_rows", "_sym")

    def __init__(self, trunc: Truncation, terms: dict | None = None):
        self.trunc = trunc
        clean: dict = {}
        if terms:
            mq, mt, ms = trunc.max_q, trunc.max_t, trunc.s_cap
            for mono, c in terms.items():
                eq, et, es, ez = mono   # checked before the cap drop, as c is
                if not (type(eq) is type(et) is type(es) is type(ez) is int):
                    _check_exponents(eq, et, es, ez)
                if eq < 0 or et < 0 or es < 0:
                    raise DomainError(f"negative exponent in monomial {tuple(mono)}")
                c = _exact(c)
                if eq > mq or et > mt or es > ms:
                    continue
                if c != 0:
                    clean[(eq, et, es, ez)] = _norm(c)
        self._den, self._rows = _terms_to_rows(clean) if clean else (1, ())
        self._sym = None

    @classmethod
    def _raw(cls, trunc: Truncation, den: int, rows, sym=None) -> "TruncatedSeries":
        # internal: rows sorted, within caps and canonical over den
        out = object.__new__(cls)
        out.trunc = trunc
        out._den = den
        out._rows = tuple(rows)
        out._sym = sym      # whether z -> 1/z fixes it; None until _symmetric reads it
        return out

    @classmethod
    def _reduced(cls, trunc: Truncation, den: int, rows, sym=None) -> "TruncatedSeries":
        # internal: rows sorted and within caps; den and the numerators are
        # divided by their gcd
        if den > 1:
            g = den
            for row in rows:
                g = math.gcd(g, *row[2])
                if g == 1:
                    break
            else:
                den //= g
                rows = [(key, first, tuple(map(g.__rfloordiv__, nums)))
                        for key, first, nums in rows]
        return cls._raw(trunc, den, rows, sym)

    @classmethod
    def zero(cls, trunc: Truncation) -> "TruncatedSeries":
        return cls._raw(trunc, 1, ())

    @classmethod
    def one(cls, trunc: Truncation) -> "TruncatedSeries":
        return cls._raw(trunc, 1, _UNIT_ROWS)

    @classmethod
    def sum_of_products(cls, trunc: Truncation, pairs) -> "TruncatedSeries":
        """The sum of a * b over the pairs (a, b) of series over trunc,
        formed in one packed accumulator and decoded once."""
        checked = []
        for a, b in pairs:
            if a.trunc != trunc or b.trunc != trunc:
                raise TruncationMismatch(
                    f"cannot combine series with truncations {a.trunc} and {b.trunc} "
                    f"in a sum over {trunc}")
            checked.append((a, b))
        if len(checked) == 1:       # one pair is a product, which skips packing
            return a * b            # when a factor is 1 or a single term
        return _sum_of_products(checked, trunc)

    @classmethod
    def from_z_slices(cls, trunc: Truncation, slices: dict) -> "TruncatedSeries":
        """sum_j c_j z^j over the items j: c_j of z-free series over trunc,
        in one pass with no addition; the inverse of z_slices."""
        parts = []
        for j, part in slices.items():
            if part.trunc != trunc:
                raise TruncationMismatch(f"z-slice {j} is over {part.trunc}, not {trunc}")
            for (_, _, z), _, _ in part._rows:
                if z:
                    raise DomainError(f"z-slice {j} has a term in z^{z}")
            parts.append((j, part))
        # canonical parts with disjoint supports over their lcm stay canonical
        den = math.lcm(*(part._den for _, part in parts))
        rows = [((t, s, j), first, nums)
                for j, part in parts
                for (t, s, _), first, nums in _scaled(part._rows, den // part._den)]
        rows.sort()
        return cls._raw(trunc, den, rows)

    @classmethod
    def monomial(cls, trunc: Truncation, coeff: Coeff = 1, e_q: int = 0,
                 e_t: int = 0, e_s: int = 0, e_z: int = 0) -> "TruncatedSeries":
        return cls(trunc, {(e_q, e_t, e_s, e_z): coeff})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def term_count(self) -> int:
        return sum(len(nums) - nums.count(0) for _, _, nums in self._rows)

    def coefficient(self, mono) -> Coeff:
        """Stored coefficient of the monomial, or exact zero."""
        q, t, s, z = mono
        rows = self._rows
        i = bisect_left(rows, ((t, s, z),))
        if i == len(rows) or rows[i][0] != (t, s, z):
            return 0
        _, first, nums = rows[i]
        if not first <= q < first + len(nums):
            return 0
        n = nums[q - first]
        return n if self._den == 1 else _norm(Fraction(n, self._den))

    def terms(self) -> Iterator[tuple[Monomial, Coeff]]:
        """Iterate (monomial, coefficient) in canonical order, the one
        reading of the rows as terms.  The rows are sorted by
        (e_t, e_s, e_z), so one list per q-exponent, filled row by row,
        is in canonical order without a sort."""
        den = self._den
        by_q: list = [[] for _ in range(max((f + len(n) for _, f, n in self._rows), default=0))]
        for (t, s, z), first, nums in self._rows:
            for q, n in enumerate(nums, first):
                if n:
                    by_q[q].append((Monomial(q, t, s, z),
                                    n if den == 1 else _norm(Fraction(n, den))))
        return chain.from_iterable(by_q)

    def z_slices(self) -> dict:
        """{j: c_j}, each c_j z-free and self = sum_j c_j z^j, in one pass
        over the rows; the inverse of from_z_slices."""
        slices: dict = {}
        for (t, s, z), first, nums in self._rows:
            slices.setdefault(z, []).append(((t, s, 0), first, nums))
        return {z: TruncatedSeries._reduced(self.trunc, self._den, rows)
                for z, rows in slices.items()}

    def _symmetric(self) -> bool:
        # flip_z() == self, scanned on the first read and kept: series never change
        if self._sym is None:
            rows = self._rows
            self._sym = rows == tuple(sorted([((t, s, -z), f, n) for (t, s, z), f, n in rows]))
        return self._sym

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return (self._rows == other._rows and self._den == other._den
                    and self.trunc == other.trunc)
        return NotImplemented

    def __hash__(self):
        raise TypeError("TruncatedSeries is not hashable")

    # -- ring operations ----------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                f"cannot combine series with truncations {self.trunc} and {other.trunc}")

    def _coerce(self, other) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.trunc, {(0, 0, 0, 0): other})
        return None

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        # self + sign * other over the lcm of the two denominators
        self._check_compatible(other)
        den = math.lcm(self._den, other._den)
        rows = _combined(_scaled(self._rows, den // self._den),
                         _scaled(other._rows, sign * (den // other._den)))
        return TruncatedSeries._reduced(self.trunc, den, rows)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, 1)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(self.trunc, self._den, _scaled(self._rows, -1))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, -1)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._plus(self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        small, big = (self, other) if len(self._rows) <= len(other._rows) else (other, self)
        if not small._rows:
            return small
        for one, rest in ((small, big), (big, small)):
            rows = one._rows
            if len(rows) == 1 and len(rows[0][2]) == 1:
                if rows == _UNIT_ROWS and one._den == 1:    # 1 * rest is rest
                    return rest
                # a one-term factor: rest shifted and scaled
                ((t, s, z), q, (n,)), = rows
                shifted = _shifted(rest._rows, q, t, s, z, self.trunc)
                return TruncatedSeries._reduced(
                    self.trunc, one._den * rest._den, _scaled(shifted, n))
        return _sum_of_products([(small, big)], self.trunc)

    __rmul__ = __mul__

    def scale(self, c: Coeff) -> "TruncatedSeries":
        c = _norm(_exact(c))
        if c == 0:
            return TruncatedSeries.zero(self.trunc)
        p, r = _ratio(c)
        return TruncatedSeries._reduced(self.trunc, self._den * r, _scaled(self._rows, p))

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:     # True is not the exponent 1
            raise DomainError("series powers must be nonnegative integers")
        result = TruncatedSeries.one(self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, e_q: int = 0, e_t: int = 0, e_s: int = 0, e_z: int = 0) -> "TruncatedSeries":
        """Multiply by the monomial q^e_q t^e_t s^e_s z^e_z.

        Negative shifts are permitted only when every resulting exponent
        stays nonnegative (z excepted).
        """
        _check_exponents(e_q, e_t, e_s, e_z)
        # a term dropped at a cap can leave a factor common to the rest
        return TruncatedSeries._reduced(
            self.trunc, self._den, _shifted(self._rows, e_q, e_t, e_s, e_z, self.trunc))

    def mul_binomial(self, c: Coeff, e_q: int = 0, e_t: int = 0, e_s: int = 0,
                     e_z: int = 0) -> "TruncatedSeries":
        """Multiply by the binomial 1 - c q^e_q t^e_t s^e_s z^e_z: the rows
        and their shifted images, added in one merge, no packing."""
        _check_exponents(e_q, e_t, e_s, e_z)
        if min(e_q, e_t, e_s) < 0:
            raise DomainError("binomial exponents must be >= 0")
        if not _exact(c):   # the binomial is 1
            return self
        p, r = _ratio(_norm(c))     # (r g - p m g) / r
        image = _shifted(self._rows, e_q, e_t, e_s, e_z, self.trunc)
        return TruncatedSeries._reduced(
            self.trunc, self._den * r, _combined(_scaled(self._rows, r), _scaled(image, -p)))

    def div_binomial(self, c: Coeff, e_q: int = 0, e_t: int = 0, e_s: int = 0,
                     e_z: int = 0) -> "TruncatedSeries":
        """Divide by 1 - c m, m = q^e_q t^e_t s^e_s z^e_z, as the product of
        the binomials 1 + (c m)^(2^i), i = 0, 1, ..., while m^(2^i) is within
        the caps: 1/(1 - x) = (1 + x)(1 + x^2)(1 + x^4)...  A degree-0 m is
        a scalar; as in invert, c m = 1 or a z-only c m raise."""
        _check_exponents(e_q, e_t, e_s, e_z)
        if min(e_q, e_t, e_s) < 0:
            raise DomainError("binomial exponents must be >= 0")
        if not _exact(c):   # the binomial is 1
            return self
        if not (e_q or e_t or e_s):
            if e_z or c == 1:
                raise NonInvertible(f"binomial 1 - ({c}) z^{e_z} is not a unit")
            return self.scale(1 / Fraction(1 - c))
        trunc, out = self.trunc, self
        while e_q <= trunc.max_q and e_t <= trunc.max_t and e_s <= trunc.s_cap:
            out = out.mul_binomial(-c, e_q, e_t, e_s, e_z)
            c, e_q, e_t, e_s, e_z = c * c, 2 * e_q, 2 * e_t, 2 * e_s, 2 * e_z
        return out

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo the truncation.

        Requires a nonzero constant term and, for the graded iteration
        on total (q,t,s)-degree to terminate, no other term of total
        (q,t,s)-degree zero.
        """
        terms = dict(self.terms())
        const = terms.get((0, 0, 0, 0), 0)
        if const == 0:
            raise NonInvertible(
                f"series has zero constant term: {self._preview()}")
        by_deg: dict[int, list] = {}
        for key, c in terms.items():
            d = key[0] + key[1] + key[2]
            if d == 0 and key != (0, 0, 0, 0):
                raise NonInvertible(
                    "series has a z-only term of (q,t,s)-degree zero and is "
                    f"not a unit: {self._preview()}")
            if d > 0:
                by_deg.setdefault(d, []).append((key, c))
        inv_c = _norm(Fraction(1, const) if isinstance(const, int) else 1 / const)
        g_by_deg: dict[int, dict] = {0: {(0, 0, 0, 0): inv_c}}
        mq, mt = self.trunc.max_q, self.trunc.max_t
        ms = self.trunc.s_cap
        # a stored monomial has total (q,t,s)-degree at most mq + mt + ms
        for d in range(1, mq + mt + ms + 1):
            acc: dict = {}
            for j, f_terms in by_deg.items():
                if j > d:
                    continue
                g_part = g_by_deg.get(d - j)
                if not g_part:
                    continue
                for (q1, t1, s1, z1), c1 in f_terms:
                    for (q2, t2, s2, z2), c2 in g_part.items():
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
                        acc[key] = c1 * c2 if prev is None else prev + c1 * c2
            slice_d = {}
            for key, c in acc.items():
                if c != 0:
                    c = _norm(-inv_c * c)
                    if c != 0:
                        slice_d[key] = c
            if slice_d:
                g_by_deg[d] = slice_d
        out: dict = {}
        for part in g_by_deg.values():
            out.update(part)
        return TruncatedSeries(self.trunc, out)

    # -- structural maps ----------------------------------------------

    def flip_z(self) -> "TruncatedSeries":
        """Negate every z-exponent (the z -> 1/z involution)."""
        return TruncatedSeries._raw(
            self.trunc, self._den,
            sorted(((t, s, -z), first, nums) for (t, s, z), first, nums in self._rows))

    def halve_z(self) -> "TruncatedSeries":
        """Halve every z-exponent (z^2 -> z); all of them must be even."""
        rows = []
        for (t, s, z), first, nums in self._rows:
            if z % 2:
                raise DomainError(f"halve_z needs even z-exponents, got z^{z}")
            rows.append(((t, s, z // 2), first, nums))
        return TruncatedSeries._raw(self.trunc, self._den, rows)

    def specialize(self, var: str, value) -> "TruncatedSeries":
        """Set q, t or s to 0, or substitute it by another of q, t and s.

        Zero keeps the rows free of var.  A variable target (e.g. t -> q)
        transfers exponents; it requires cap(var) >= cap(target) so that
        the substitution descends to the quotient ring, and terms pushed
        beyond the target cap are reduced away.  A float is refused as
        in the constructor, and so is any other target.
        """
        if var not in _VAR_INDEX:
            raise DomainError(f"unknown variable {var!r}")
        vi = _VAR_INDEX[var]
        if not isinstance(value, str) and _exact(value) == 0 and var != "z":
            rows = ([(key, 0, nums[:1]) for key, first, nums in self._rows if not first]
                    if var == "q" else [row for row in self._rows if not row[0][vi - 1]])
            return TruncatedSeries._reduced(self.trunc, self._den, rows)
        if var == "z" or value not in ("q", "t", "s"):
            raise DomainError(f"unsupported substitution {var} -> {value}")
        if var == value:
            return self
        if self.trunc.cap(var) < self.trunc.cap(value):
            raise TruncationOverflow(
                f"substituting {var} -> {value} needs cap({var}) >= cap({value}); "
                f"got {self.trunc}")
        ti = _VAR_INDEX[value]
        out: dict = {}
        for (t, s, z), first, nums in self._rows:
            for q, n in enumerate(nums, first):
                if n:
                    e = [q, t, s, z]
                    e[ti] += e[vi]
                    e[vi] = 0
                    key = tuple(e)
                    out[key] = out.get(key, 0) + n
        return TruncatedSeries(self.trunc, out).scale(Fraction(1, self._den))

    # -- debug text -----------------------------------------------------

    def _preview(self) -> str:
        """The canonically first four terms, read from a few numerators of
        each row: the rows are sorted by (e_t, e_s, e_z), so a row holds
        none of those terms past its first four nonzero ones."""
        limit = 4
        den = self._den
        firsts = heapq.nsmallest(limit, chain.from_iterable(
            islice(((q, t, s, z, n) for q, n in enumerate(nums, first) if n), limit)
            for (t, s, z), first, nums in self._rows))
        shown = " + ".join(
            f"{n if den == 1 else _norm(Fraction(n, den))}*q^{q}t^{t}s^{s}z^{z}"
            for q, t, s, z, n in firsts)
        more = "" if self.term_count() <= limit else " + ..."
        return (shown or "0") + more

    def __repr__(self):
        return f"TruncatedSeries({self.trunc}, {self._preview()})"
