"""Tests for the verdict layer: status is read off the first mismatch,
and a chain of sub-checks stops at the first one that fails."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbailey.errors import DomainError, TruncationMismatch
from qbailey.report import IdentityReport, _compare, _first_failure, first_mismatch
from qbailey.series import TruncatedSeries, Truncation

MISMATCH = {"monomial": [0, 0, 0, 0], "lhs": "1/1", "rhs": "0/1"}


def test_status_is_derived_from_the_mismatch():
    report = IdentityReport("x", {}, None, None, 0)
    assert (report.passed, report.status, report.to_dict()["status"]) == (True, "pass", "pass")
    report.first_mismatch = dict(MISMATCH)
    assert (report.passed, report.status, report.to_dict()["status"]) == (False, "fail", "fail")
    assert report.summary_line().startswith("[FAIL] x")


def test_value_report():
    # two exact values: no truncation, no term counts
    passed = _compare("v", lambda: (Fraction(1, 3), Fraction(1, 3)), {"n": 1}).to_dict()
    del passed["wall_time_ms"]
    assert passed == {"identity": "v", "params": {"n": 1}, "truncation": None,
                      "status": "pass", "first_mismatch": None, "term_counts": {},
                      "seed": None}
    failed = _compare("v", lambda: (Fraction(1), Fraction(0)), {}, seed=3)
    assert (failed.status, failed.first_mismatch, failed.seed) == ("fail", MISMATCH, 3)


def _counted_subchecks(ran, failing):
    for n in range(5):
        ran.append(n)
        yield {"n": n}, MISMATCH if n in failing else None, {"lhs": n, "rhs": 10 * n}


def test_first_failure_runs_no_subcheck_after_the_first_mismatch():
    ran = []
    report = _first_failure("x", {"n_max": 4}, None, _counted_subchecks(ran, {2, 3}),
                            seed=7)
    assert ran == [0, 1, 2]
    assert report.status == "fail"
    assert report.first_mismatch == {"n": 2, **MISMATCH}
    assert report.term_counts == {"lhs": 2, "rhs": 20}
    assert (report.params, report.seed) == ({"n_max": 4}, 7)


def test_first_failure_pass_keeps_the_last_counts():
    ran = []
    report = _first_failure("x", {}, None, _counted_subchecks(ran, set()))
    assert ran == [0, 1, 2, 3, 4]
    assert report.passed and report.first_mismatch is None
    assert report.term_counts == {"lhs": 4, "rhs": 40}
    with pytest.raises(DomainError, match="ran no sub-check"):
        _first_failure("x", {}, None, iter(()))


def test_first_failure_times_the_subchecks_it_runs(monkeypatch):
    # the sub-checks are lazy, so their work runs on the chain's own clock
    now = [100.0]
    monkeypatch.setattr(time, "perf_counter", lambda: now[0])

    def slow_subchecks():
        for n in range(2):
            now[0] += 0.25
            yield {"n": n}, None, {}

    now[0] += 1.0           # work before the call is not the chain's
    assert _first_failure("x", {}, None, slow_subchecks()).wall_time_ms == 500


@pytest.mark.parametrize("one, truncation, counts", [
    (TruncatedSeries.one(Truncation(2, 2)), Truncation(2, 2), {"lhs": 1, "rhs": 1}),
    (Fraction(1), None, {})], ids=["series", "value"])
def test_compare_times_its_side_builders(monkeypatch, one, truncation, counts):
    # the clock starts before sides() runs, so the report's wall time
    # covers building both sides, not only comparing them
    now = [100.0]
    monkeypatch.setattr(time, "perf_counter", lambda: now[0])

    def sides():
        now[0] += 0.75
        return one, one

    now[0] += 1.0           # work before the call is not the comparison's
    got = _compare("x", sides, {"n": 1}, seed=3)
    assert (got.passed, got.wall_time_ms, got.params, got.seed) == (True, 750, {"n": 1}, 3)
    assert (got.truncation, got.term_counts) == (truncation, counts)


TR = Truncation(3, 2)


def test_first_mismatch_of_equal_series_is_none():
    terms = {(0, 0, 0, 0): 1, (1, 0, 0, -2): Fraction(2, 3), (2, 1, 0, 1): -4}
    assert first_mismatch(TruncatedSeries(TR, terms), TruncatedSeries(TR, dict(terms))) is None
    assert first_mismatch(TruncatedSeries.zero(TR), TruncatedSeries.zero(TR)) is None


def test_first_mismatch_names_the_smallest_differing_monomial():
    # canonical order is lexicographic on (e_q, e_t, e_s, e_z): of the
    # three differing monomials, q z^-2 comes first
    lhs = TruncatedSeries(TR, {(0, 2, 0, 0): 5, (1, 0, 0, -2): 2, (1, 0, 0, 3): 1,
                               (2, 1, 0, -1): Fraction(1, 2)})
    rhs = TruncatedSeries(TR, {(0, 2, 0, 0): 5, (1, 0, 0, -2): Fraction(7, 3),
                               (1, 0, 0, 3): 4, (2, 1, 0, -1): Fraction(1, 3)})
    assert first_mismatch(lhs, rhs) == {"monomial": [1, 0, 0, -2], "lhs": "2/1", "rhs": "7/3"}
    assert first_mismatch(rhs, lhs) == {"monomial": [1, 0, 0, -2], "lhs": "7/3", "rhs": "2/1"}


def test_first_mismatch_reports_a_one_sided_monomial_as_zero():
    common = {(0, 0, 0, 0): 1, (2, 0, 0, 0): 3}
    lhs = TruncatedSeries(TR, {**common, (1, 1, 0, -1): Fraction(-1, 2)})
    rhs = TruncatedSeries(TR, common)
    assert first_mismatch(lhs, rhs) == {"monomial": [1, 1, 0, -1], "lhs": "-1/2", "rhs": "0/1"}
    assert first_mismatch(rhs, lhs) == {"monomial": [1, 1, 0, -1], "lhs": "0/1", "rhs": "-1/2"}


def test_series_over_unequal_truncations_are_refused():
    # == is False, but no coefficient of the two differs, so a scan of
    # their terms would pass them; their difference refuses them instead
    lhs, rhs = TruncatedSeries.one(Truncation(8, 6)), TruncatedSeries.one(Truncation(4, 4))
    with pytest.raises(TruncationMismatch):
        first_mismatch(lhs, rhs)
    with pytest.raises(TruncationMismatch):
        _compare("x", lambda: (lhs, rhs), {})


def reference_first_mismatch(lhs, rhs):
    """The scan of the union of both sides' monomials that first_mismatch
    ran before it read lhs - rhs: a frozen copy, kept as its oracle."""
    def fmt(c):
        return f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else f"{c}/1"

    if lhs == rhs:
        return None
    for mono in sorted({m for m, _ in lhs.terms()} | {m for m, _ in rhs.terms()}):
        a, b = lhs.coefficient(mono), rhs.coefficient(mono)
        if a != b:
            return {"monomial": list(mono), "lhs": fmt(a), "rhs": fmt(b)}
    return None


_monos = st.tuples(st.integers(0, TR.max_q), st.integers(0, TR.max_t), st.just(0),
                   st.integers(-2, 2))
_coeffs = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                     max_denominator=5))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_monos, _coeffs, max_size=8),
       st.dictionaries(_monos, _coeffs, max_size=3),
       st.dictionaries(_monos, _coeffs, max_size=3))
def test_first_mismatch_matches_the_union_scan(common, left, right):
    # two sides that share most terms and differ in a few, or not at all
    lhs = TruncatedSeries(TR, {**common, **left})
    rhs = TruncatedSeries(TR, {**common, **right})
    assert first_mismatch(lhs, rhs) == reference_first_mismatch(lhs, rhs)
    assert first_mismatch(rhs, lhs) == reference_first_mismatch(rhs, lhs)
