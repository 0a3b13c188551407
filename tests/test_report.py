"""Tests for the verdict layer: status is read off the first mismatch,
and a chain of sub-checks stops at the first one that fails."""

import time
from fractions import Fraction

import pytest

from qbailey.errors import DomainError
from qbailey.report import IdentityReport, Stopwatch, _first_failure, value_report

MISMATCH = {"monomial": [0, 0, 0, 0], "lhs": "1/1", "rhs": "0/1"}


def test_status_is_derived_from_the_mismatch():
    report = IdentityReport("x", {}, None, None, 0)
    assert (report.passed, report.status, report.to_dict()["status"]) == (True, "pass", "pass")
    report.first_mismatch = dict(MISMATCH)
    assert (report.passed, report.status, report.to_dict()["status"]) == (False, "fail", "fail")
    assert report.summary_line().startswith("[FAIL] x")


def test_value_report():
    watch = Stopwatch()
    passed = value_report("v", Fraction(1, 3), Fraction(1, 3), {"n": 1}, watch).to_dict()
    del passed["wall_time_ms"]
    assert passed == {"identity": "v", "params": {"n": 1}, "truncation": None,
                      "status": "pass", "first_mismatch": None, "term_counts": {},
                      "seed": None}
    failed = value_report("v", Fraction(1), Fraction(0), {}, watch, seed=3)
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
