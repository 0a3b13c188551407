"""Machine-readable verdicts for identity checks.

A report either passes or carries the canonically smallest mismatching
monomial with both coefficients, so a failure localizes to one term;
its status is read off that mismatch.  Reports are built here alone,
each on one clock: `_compare` times building and comparing two sides,
`_first_failure` a chain of sub-checks up to the first that fails (a
chain that ran none is a usage error, not a pass).  Serialization
sorts keys, which makes reports byte-stable up to the wall time.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .errors import DomainError
from .series import TruncatedSeries, Truncation


def _fmt(c) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return f"{c}/1"


def first_mismatch(lhs: TruncatedSeries, rhs: TruncatedSeries) -> dict | None:
    """Smallest monomial (canonical order) where the two series differ:
    the first term of lhs - rhs, which refuses unequal truncations."""
    if lhs == rhs:
        return None
    mono, _ = next((lhs - rhs).terms())
    return {"monomial": list(mono), "lhs": _fmt(lhs.coefficient(mono)),
            "rhs": _fmt(rhs.coefficient(mono))}


def value_mismatch(lhs, rhs) -> dict | None:
    """Scalar comparison reported as a constant-monomial mismatch."""
    if lhs != rhs:
        return {"monomial": [0, 0, 0, 0], "lhs": _fmt(lhs), "rhs": _fmt(rhs)}
    return None


class IdentityReport:
    """The verdict of one identity check: what was checked (identity,
    params, truncation, seed), the first mismatch or None, the wall time
    and the term counts of the sides."""

    def __init__(self, identity: str, params: dict, truncation: Truncation | None,
                 first_mismatch: dict | None, wall_time_ms: int,
                 term_counts: dict | None = None, seed: int | None = None):
        self.identity = identity
        self.params = params
        self.truncation = truncation
        self.first_mismatch = first_mismatch
        self.wall_time_ms = wall_time_ms
        self.term_counts = {} if term_counts is None else term_counts
        self.seed = seed

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        trunc = None
        if self.truncation is not None:
            trunc = {"max_q": self.truncation.max_q,
                     "max_t": self.truncation.max_t,
                     "max_s": self.truncation.max_s}
        return {
            "identity": self.identity,
            "params": self.params,
            "truncation": trunc,
            "status": self.status,
            "first_mismatch": self.first_mismatch,
            "wall_time_ms": self.wall_time_ms,
            "term_counts": self.term_counts,
            "seed": self.seed,
        }

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.first_mismatch is not None:
            extra = f"  first mismatch: {self.first_mismatch}"
        return f"[{verdict}] {self.identity} {self.params}{extra}"


class Stopwatch:
    def __init__(self):
        self._start = time.perf_counter()

    def ms(self) -> int:
        return int((time.perf_counter() - self._start) * 1000)


def _compare(identity: str, sides, params: dict, seed: int | None = None) -> IdentityReport:
    """The verdict on the two series, or two exact values, that sides()
    builds, timed from before it builds them.  Private, as _first_failure
    is: a profiler that wraps public names charges the sides to the caller."""
    watch = Stopwatch()
    lhs, rhs = sides()
    if isinstance(lhs, TruncatedSeries):
        return IdentityReport(identity, params, lhs.trunc, first_mismatch(lhs, rhs), watch.ms(),
                              {"lhs": lhs.term_count(), "rhs": rhs.term_count()}, seed)
    return IdentityReport(identity, params, None, value_mismatch(lhs, rhs), watch.ms(), {}, seed)


def _first_failure(identity: str, params: dict, truncation: Truncation | None,
                   subchecks, seed: int | None = None) -> IdentityReport:
    """The verdict of a chain of sub-checks, timed from this call.
    `subchecks` yields (labels, mismatch, term_counts) lazily, so their
    sums run inside this frame and on its clock; the chain stops at the
    first mismatch and reports it as {**labels, **mismatch}, with the
    term_counts of the last sub-check run.  A chain that yields none
    checked nothing and raises DomainError.  The frame stays private: a
    profiler that wraps public names charges the sums to the caller."""
    watch = Stopwatch()
    failure = labels = None
    for labels, mismatch, counts in subchecks:
        if mismatch is not None:
            failure = {**labels, **mismatch}
            break
    if labels is None:
        raise DomainError(f"{identity}: the chain ran no sub-check")
    return IdentityReport(identity, params, truncation, failure, watch.ms(), counts, seed)
