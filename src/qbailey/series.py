"""Exact truncated multivariate formal series.

The ring is Q[q, t, s][z, z^-1] modulo the ideal generated by
q^(max_q+1), t^(max_t+1) and s^(max_s+1).  The Laurent variable z is
never truncated; every construction used by the engine keeps its
z-support finite.  Coefficients are exact rationals, series are sparse
maps from exponent tuples to coefficients, and all values are immutable
after construction.

A monomial is the exponent tuple (e_q, e_t, e_s, e_z); the canonical
total order on monomials is the lexicographic order on that tuple, and
every iteration, rendering and mismatch report uses it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .errors import DomainError, NonInvertible, TruncationMismatch, TruncationOverflow

Coeff = Union[int, Fraction]


class Monomial(NamedTuple):
    """Exponent tuple; interchangeable with a plain 4-tuple as a dict key."""

    e_q: int
    e_t: int
    e_s: int
    e_z: int


@dataclass(frozen=True)
class Truncation:
    """Per-variable degree caps.  max_s is None when s is absent.

    Two series interoperate only when their truncations are equal.
    """

    max_q: int
    max_t: int
    max_s: int | None = None

    def __post_init__(self):
        if self.max_q < 0 or self.max_t < 0:
            raise DomainError("truncation caps must be >= 0")
        if self.max_s is not None and self.max_s < 0:
            raise DomainError("truncation caps must be >= 0")

    @property
    def s_cap(self) -> int:
        """Effective cap on the s-exponent (0 when s is absent)."""
        return 0 if self.max_s is None else self.max_s

    def degree_bound(self) -> int:
        """Largest total (q,t,s)-degree a stored monomial can have."""
        return self.max_q + self.max_t + self.s_cap

    def cap(self, var: str) -> int:
        return {"q": self.max_q, "t": self.max_t, "s": self.s_cap}[var]


def _norm(c: Coeff) -> Coeff:
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


_VAR_INDEX = {"q": 0, "t": 1, "s": 2, "z": 3}
_DENOMINATOR = operator.attrgetter("denominator")


# -- the ring product ---------------------------------------------------
#
# A product is formed row by row (Kronecker substitution in q): the terms
# of each operand are grouped into q-rows keyed (e_t, e_s, e_z), brought
# to integer numerators over the operand's common denominator, and each
# row is packed into one signed int, one w-bit digit per power of q.  One
# bigint multiply then forms a whole row product, the t and s caps are
# checked once per row pair, and the packed products of one output row
# are added as plain ints.  Every coefficient of every output row is at
# most L1(a)*L1(b) in absolute value (L1 = sum of |numerators|), so with
# w = bit_length(L1(a)*L1(b)) + 2 the digits, read back in balanced
# (signed) form, never overflow into one another.  A one-term operand
# skips all of this: its product is a shift and a scale.

def _term_times(one: dict, terms: dict, trunc: Truncation) -> dict:
    """Terms of the single term `one` times the series `terms`."""
    ((q1, t1, s1, z1), c1), = one.items()
    rq, rt, rs = trunc.max_q - q1, trunc.max_t - t1, trunc.s_cap - s1
    out = {}
    for (q2, t2, s2, z2), c2 in terms.items():
        if q2 > rq or t2 > rt or s2 > rs:
            continue
        c = c1 * c2
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        out[(q1 + q2, t1 + t2, s1 + s2, z1 + z2)] = c
    return out


def _integer_terms(terms: dict) -> tuple[int, dict, int]:
    """(den, nums, L1): the common denominator of the coefficients, the
    terms with their integer numerators over it, and the sum of the
    absolute numerators."""
    vals = terms.values()
    if set(map(type, vals)) == {int}:
        return 1, terms, sum(map(abs, vals))
    den = math.lcm(*map(_DENOMINATOR, vals))
    nums = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
    return den, nums, sum(map(abs, nums.values()))


def _packed_rows(nums: dict, w: int, lo: int, hi: int) -> dict:
    """Rows keyed (e_t, e_s, e_z) of the terms with e_q <= hi, each packed
    into one int with q^(lo+i) at bit offset w*i (lo <= every e_q)."""
    rows: dict = {}
    get = rows.get
    for (q, t, s, z), c in nums.items():
        if q > hi:
            continue
        key = (t, s, z)
        rows[key] = get(key, 0) + (c << (w * (q - lo)))
    return rows


def _row_product(a: dict, b: dict, trunc: Truncation) -> dict:
    """Terms of the product of two term maps."""
    if not a or not b:
        return {}
    mq, mt, ms = trunc.max_q, trunc.max_t, trunc.s_cap
    # the lowest q-exponents lo_a, lo_b offset every row; a term of one
    # operand above mq - (lowest of the other) cannot reach the output
    lo_a, lo_b = min(a)[0], min(b)[0]
    room = mq - lo_a - lo_b
    if room < 0:
        return {}
    den_a, nums_a, l1_a = _integer_terms(a)
    den_b, nums_b, l1_b = _integer_terms(b)
    w = (l1_a * l1_b).bit_length() + 2
    rows_a = _packed_rows(nums_a, w, lo_a, lo_a + room)
    rows_b = sorted(_packed_rows(nums_b, w, lo_b, lo_b + room).items())  # by e_t
    acc: dict = {}
    get = acc.get
    for (ta, sa, za), va in rows_a.items():
        rt, rs = mt - ta, ms - sa
        for (tb, sb, zb), vb in rows_b:
            if tb > rt:
                break
            if sb > rs:
                continue
            key = (ta + tb, sa + sb, za + zb)
            acc[key] = get(key, 0) + va * vb

    den = den_a * den_b
    lo = lo_a + lo_b
    base = 1 << w
    half, mask = base >> 1, base - 1
    out = {}
    for (t, s, z), x in acc.items():
        if not x:
            continue
        i = ((x & -x).bit_length() - 1) // w     # lowest nonzero digit
        x >>= w * i
        while x and i <= room:
            d = x & mask
            if d >= half:
                d -= base
            x = (x - d) >> w
            if d:
                out[(lo + i, t, s, z)] = d if den == 1 else _norm(Fraction(d, den))
            i += 1
    return out


class TruncatedSeries:
    """Sparse exact series over the truncated ring.

    No stored coefficient is zero and no stored monomial violates the
    truncation; construction reduces modulo the truncation ideal by
    dropping out-of-cap terms.
    """

    __slots__ = ("trunc", "_terms")

    def __init__(self, trunc: Truncation, terms: dict | None = None):
        self.trunc = trunc
        clean: dict = {}
        if terms:
            mq, mt, ms = trunc.max_q, trunc.max_t, trunc.s_cap
            for mono, c in terms.items():
                eq, et, es, ez = mono
                if eq > mq or et > mt or es > ms:
                    continue
                if eq < 0 or et < 0 or es < 0:
                    raise DomainError(f"negative exponent in monomial {tuple(mono)}")
                c = _norm(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
                if c != 0:
                    clean[(eq, et, es, ez)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, trunc: Truncation, terms: dict) -> "TruncatedSeries":
        # internal: terms already normalized and within caps
        out = object.__new__(cls)
        out.trunc = trunc
        out._terms = terms
        return out

    @classmethod
    def zero(cls, trunc: Truncation) -> "TruncatedSeries":
        return cls._raw(trunc, {})

    @classmethod
    def one(cls, trunc: Truncation) -> "TruncatedSeries":
        return cls._raw(trunc, {(0, 0, 0, 0): 1})

    @classmethod
    def monomial(cls, trunc: Truncation, coeff: Coeff = 1, e_q: int = 0,
                 e_t: int = 0, e_s: int = 0, e_z: int = 0) -> "TruncatedSeries":
        return cls(trunc, {(e_q, e_t, e_s, e_z): coeff})

    @classmethod
    def variable(cls, trunc: Truncation, name: str) -> "TruncatedSeries":
        exps = [0, 0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls(trunc, {tuple(exps): 1})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def coefficient(self, mono) -> Coeff:
        """Stored coefficient of the monomial, or exact zero."""
        return self._terms.get(tuple(mono), 0)

    def constant_term(self) -> Coeff:
        return self._terms.get((0, 0, 0, 0), 0)

    def terms(self) -> Iterator[tuple[Monomial, Coeff]]:
        """Iterate (monomial, coefficient) in canonical order."""
        for key in sorted(self._terms):
            yield Monomial(*key), self._terms[key]

    def z_support(self) -> tuple[int, int]:
        """(min, max) z-exponent over stored terms; (0, 0) for the zero series."""
        if not self._terms:
            return (0, 0)
        zs = [k[3] for k in self._terms]
        return (min(zs), max(zs))

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.trunc == other.trunc and self._terms == other._terms
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

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_compatible(rhs)
        acc = dict(self._terms)
        for key, c in rhs._terms.items():
            new = acc.get(key, 0) + c
            if new == 0:
                acc.pop(key, None)
            else:
                acc[key] = _norm(new)
        return TruncatedSeries._raw(self.trunc, acc)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(self.trunc, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        if len(small) == 1:
            return TruncatedSeries._raw(self.trunc, _term_times(small, big, self.trunc))
        return TruncatedSeries._raw(self.trunc, _row_product(small, big, self.trunc))

    __rmul__ = __mul__

    def scale(self, c: Coeff) -> "TruncatedSeries":
        c = _norm(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if c == 0:
            return TruncatedSeries.zero(self.trunc)
        return TruncatedSeries._raw(
            self.trunc, {k: _norm(v * c) for k, v in self._terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
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
        mq, mt = self.trunc.max_q, self.trunc.max_t
        ms = self.trunc.s_cap
        out: dict = {}
        for (q1, t1, s1, z1), c in self._terms.items():
            eq, et, es = q1 + e_q, t1 + e_t, s1 + e_s
            if eq < 0 or et < 0 or es < 0:
                raise DomainError("negative exponent produced by shift")
            if eq > mq or et > mt or es > ms:
                continue
            out[(eq, et, es, z1 + e_z)] = c
        return TruncatedSeries._raw(self.trunc, out)

    def mul_binomial(self, c: Coeff, e_q: int = 0, e_t: int = 0, e_s: int = 0,
                     e_z: int = 0) -> "TruncatedSeries":
        """Multiply by the binomial 1 - c q^e_q t^e_t s^e_s z^e_z: one
        shift-and-add pass over the terms, no packing."""
        if min(e_q, e_t, e_s) < 0:
            raise DomainError("binomial exponents must be >= 0")
        c = _norm(c)        # an integral Fraction multiplies as an int
        mq, mt, ms = self.trunc.max_q, self.trunc.max_t, self.trunc.s_cap
        out = dict(self._terms)
        for (q1, t1, s1, z1), v in self._terms.items():
            eq, et, es = q1 + e_q, t1 + e_t, s1 + e_s
            if eq > mq or et > mt or es > ms:
                continue
            key = (eq, et, es, z1 + e_z)
            new = out.get(key, 0) - c * v     # each key is the image of one term
            if new:
                out[key] = _norm(new)
            else:
                out.pop(key, None)
        return TruncatedSeries._raw(self.trunc, out)

    def div_binomial(self, c: Coeff, e_q: int = 0, e_t: int = 0, e_s: int = 0,
                     e_z: int = 0) -> "TruncatedSeries":
        """Divide by 1 - c m, m = q^e_q t^e_t s^e_s z^e_z: h[k] = g[k] + c h[k-m]
        along each chain k, k+m, ... from its lowest key up to the caps.  A
        degree-0 m is a scalar; as in invert, c m = 1 or a z-only c m raise."""
        if min(e_q, e_t, e_s) < 0:
            raise DomainError("binomial exponents must be >= 0")
        mq, mt, ms = self.trunc.max_q, self.trunc.max_t, self.trunc.s_cap
        if not (e_q or e_t or e_s):
            if c and (e_z or c == 1):
                raise NonInvertible(f"binomial 1 - ({c}) z^{e_z} is not a unit")
            return self.scale(1 / Fraction(1 - c))
        terms = self._terms
        out: dict = {}
        for key in sorted(terms):
            if key in out:
                continue
            q1, t1, s1, z1 = key
            acc = 0
            while q1 <= mq and t1 <= mt and s1 <= ms:
                key = (q1, t1, s1, z1)
                acc = terms.get(key, 0) + c * acc
                if type(acc) is not int and acc.denominator == 1:
                    acc = acc.numerator
                out[key] = acc       # zeros too: they mark the chain as walked
                q1, t1, s1, z1 = q1 + e_q, t1 + e_t, s1 + e_s, z1 + e_z
        return TruncatedSeries._raw(self.trunc, {k: v for k, v in out.items() if v})

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo the truncation.

        Requires a nonzero constant term and, for the graded iteration
        on total (q,t,s)-degree to terminate, no other term of total
        (q,t,s)-degree zero.
        """
        const = self._terms.get((0, 0, 0, 0), 0)
        if const == 0:
            raise NonInvertible(
                f"series has zero constant term: {self._preview()}")
        by_deg: dict[int, list] = {}
        for key, c in self._terms.items():
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
        for d in range(1, self.trunc.degree_bound() + 1):
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
        return TruncatedSeries._raw(self.trunc, out)

    # -- structural maps ----------------------------------------------

    def flip_z(self) -> "TruncatedSeries":
        """Negate every z-exponent (the z -> 1/z involution)."""
        return TruncatedSeries._raw(
            self.trunc, {(k[0], k[1], k[2], -k[3]): c for k, c in self._terms.items()})

    def halve_z(self) -> "TruncatedSeries":
        """Halve every z-exponent (z^2 -> z); all of them must be even."""
        out: dict = {}
        for (q1, t1, s1, z1), c in self._terms.items():
            if z1 % 2:
                raise DomainError(f"halve_z needs even z-exponents, got z^{z1}")
            out[(q1, t1, s1, z1 // 2)] = c
        return TruncatedSeries._raw(self.trunc, out)

    def specialize(self, var: str, value) -> "TruncatedSeries":
        """Substitute a variable by a rational value or by another variable.

        Rational values are allowed for q, t and s (including zero) and
        for z when nonzero.  A variable target (e.g. t -> q) transfers
        exponents; it requires cap(var) >= cap(target) so that the
        substitution descends to the quotient ring, and terms pushed
        beyond the target cap are reduced away.
        """
        if var not in _VAR_INDEX:
            raise DomainError(f"unknown variable {var!r}")
        vi = _VAR_INDEX[var]
        if isinstance(value, str):
            if var == "z" or value not in ("q", "t", "s"):
                raise DomainError(f"unsupported substitution {var} -> {value}")
            ti = _VAR_INDEX[value]
            if vi == ti:
                return self
            if self.trunc.cap(var) < self.trunc.cap(value):
                raise TruncationOverflow(
                    f"substituting {var} -> {value} needs cap({var}) >= cap({value}); "
                    f"got {self.trunc}")
            out: dict = {}
            cap_t = self.trunc.cap(value)
            for key, c in self._terms.items():
                e = key[vi]
                new = list(key)
                new[vi] = 0
                new[ti] = key[ti] + e
                if new[ti] > cap_t:
                    continue
                k2 = tuple(new)
                prev = out.get(k2, 0)
                tot = prev + c
                if tot == 0:
                    out.pop(k2, None)
                else:
                    out[k2] = _norm(tot)
            return TruncatedSeries._raw(self.trunc, out)
        val = Fraction(value)
        if val == 0:
            if var == "z":
                raise DomainError("z may only be specialized to a nonzero rational")
            return TruncatedSeries._raw(
                self.trunc, {key: c for key, c in self._terms.items() if not key[vi]})
        out = {}
        for key, c in self._terms.items():
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
        return TruncatedSeries._raw(self.trunc, out)

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in canonical monomial order, each
        `num/den * q^a t^b s^c z^e`."""
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms):
            c = self._terms[key]
            num, den = (c, 1) if isinstance(c, int) else (c.numerator, c.denominator)
            parts.append(f"{num}/{den} * q^{key[0]} t^{key[1]} s^{key[2]} z^{key[3]}")
        return " + ".join(parts)

    def _preview(self, limit: int = 4) -> str:
        keys = sorted(self._terms)[:limit]
        shown = " + ".join(
            f"{self._terms[k]}*q^{k[0]}t^{k[1]}s^{k[2]}z^{k[3]}" for k in keys)
        more = "" if len(self._terms) <= limit else " + ..."
        return (shown or "0") + more

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"TruncatedSeries({self.trunc}, {self._preview()})"
