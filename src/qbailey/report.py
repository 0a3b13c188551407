"""Machine-readable verdicts for identity checks.

A report either passes or carries the canonically smallest mismatching
monomial with both coefficients, so a failure localizes to one term.
Serialization sorts keys, which makes reports byte-stable across runs
up to the recorded wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .series import TruncatedSeries, Truncation


def _fmt(c) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return f"{c}/1"


def first_mismatch(lhs: TruncatedSeries, rhs: TruncatedSeries) -> dict | None:
    """Smallest monomial (canonical order) where the two series differ."""
    if lhs._terms == rhs._terms:
        return None
    keys = set(lhs._terms) | set(rhs._terms)
    for key in sorted(keys):
        a = lhs._terms.get(key, 0)
        b = rhs._terms.get(key, 0)
        if a != b:
            return {"monomial": list(key), "lhs": _fmt(a), "rhs": _fmt(b)}
    return None


def value_mismatch(lhs, rhs) -> dict | None:
    """Scalar comparison reported as a constant-monomial mismatch."""
    if lhs != rhs:
        return {"monomial": [0, 0, 0, 0], "lhs": _fmt(lhs), "rhs": _fmt(rhs)}
    return None


@dataclass
class IdentityReport:
    identity: str
    params: dict
    truncation: Truncation | None
    status: str  # "pass" | "fail"
    first_mismatch: dict | None
    wall_time_ms: int
    term_counts: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

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


def series_report(identity: str, lhs: TruncatedSeries, rhs: TruncatedSeries,
                  params: dict, watch: Stopwatch | None = None,
                  seed: int | None = None,
                  mismatch_context: dict | None = None) -> IdentityReport:
    """Compare two series and package the verdict."""
    mismatch = first_mismatch(lhs, rhs)
    if mismatch is not None and mismatch_context:
        mismatch = {**mismatch_context, **mismatch}
    return IdentityReport(
        identity=identity,
        params=params,
        truncation=lhs.trunc,
        status="pass" if mismatch is None else "fail",
        first_mismatch=mismatch,
        wall_time_ms=watch.ms() if watch else 0,
        term_counts={"lhs": lhs.term_count(), "rhs": rhs.term_count()},
        seed=seed,
    )
