"""Acceptance suite: one test per criterion, run at the stated
parameters with exact rational equality throughout.  Each test prints a
single pass/fail line (visible with `pytest -s` or on failure)."""

import json
import random
import time
from fractions import Fraction

from qbailey import bailey as B
from qbailey import cli
from qbailey import hypergeometric as hg
from qbailey import macdonald as M
from qbailey.series import Truncation


def _line(num: int, ok: bool, desc: str, elapsed: float | None = None):
    verdict = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{verdict} criterion {num}: {desc}{timing}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_fermionic_bosonic_duality():
    trunc = Truncation(10, 8)
    for k in (1, 2, 3):
        start = time.perf_counter()
        equal = M.fermionic_index(k, trunc) == M.bosonic_index(k, trunc)
        elapsed = time.perf_counter() - start
        _line(1, equal and elapsed < 60,
              f"fermionic = bosonic, k={k}, (nq,nt)=(10,8)", elapsed)


def test_criterion_2_second_fermionic_form():
    trunc = Truncation(8, 6)
    start = time.perf_counter()
    for k in (1, 2):
        equal = M.fermionic_index(k, trunc) == M.fermionic2_index(k, trunc)
        _line(2, equal, f"fermionic = fermionic2, k={k}, (nq,nt)=(8,6)")
    elapsed = time.perf_counter() - start
    _line(2, elapsed < 120, "both depths within the time budget", elapsed)


def test_criterion_3_dynkin_data_form():
    trunc = Truncation(6, 4)
    for k in (1, 2, 3):
        # any non-integral exponent raises InternalConsistencyError,
        # so completing at all certifies the integrality assertion
        equal = M.original_index(k, trunc) == M.fermionic2_index(k, trunc)
        _line(3, equal, f"original = fermionic2, k={k}, (nq,nt)=(6,4)")


def test_criterion_4_conjugate_pair():
    trunc = Truncation(10, 10)
    gamma, delta = B.hermite_conjugate_pair(trunc)
    report = B.verify_conjugate_pair(gamma, delta, 5)
    _line(4, report.passed, "conjugate pair relation, n <= 5, (nq,nt)=(10,10)")


def test_criterion_5_transform_corollary():
    trunc = Truncation(10, 8)
    gamma, delta = B.hermite_conjugate_pair(trunc)
    alpha, beta = B.seed_pair(trunc)
    ok = B.bailey_transform_check(alpha, beta, gamma, delta).passed
    _line(5, ok, "transform: seed pair")
    rng = random.Random(20240315)
    for k in (1, 2):
        for tag, params in (
                ("zeros", B.ChainParams.of([0] * k, [0] * k)),
                ("random", B.ChainParams.of(
                    [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(k)],
                    [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(k)]))):
            ak, bk = B.chain_lift(alpha, beta, params, trunc)
            ok = B.bailey_transform_check(ak, bk, gamma, delta).passed
            _line(5, ok, f"transform: chain k={k}, (b,c) {tag}")


def test_criterion_6_parametrized_identity():
    trunc = Truncation(10, 8)
    rng = random.Random(20240316)
    for k in (1, 2):
        b = [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(k)]
        c = [Fraction(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(k)]
        ok = M.generalized_identity(k, b, c, trunc).passed
        _line(6, ok, f"parametrized identity, k={k}, random nonzero (b,c)")
        ok = M.generalized_identity(k, [0] * k, [0] * k, trunc).passed
        _line(6, ok, f"parametrized identity, k={k}, b=c=0")
    # the b=c=0 sides reproduce the criterion-1 series bit-for-bit
    for k in (1, 2):
        lhs, rhs = M.generalized_sides(k, [0] * k, [0] * k, trunc)
        same = (lhs.render() == M.fermionic_index(k, trunc).render()
                and rhs.render() == M.bosonic_index(k, trunc).render())
        _line(6, same, f"b=c=0 sides match the k={k} criterion-1 series bit-for-bit")


def test_criterion_7_wp_conjugate_pair():
    trunc = Truncation(8, 8, 6)
    gamma_p, delta_p = B.wp_conjugate_pair(trunc)
    report = B.verify_wp_conjugate(gamma_p, delta_p, 4)
    _line(7, report.passed, "wp conjugate relation, n <= 4, (nq,nt,ns)=(8,8,6)")
    collapse = B.wp_collapse_check(trunc, 4)
    _line(7, collapse.passed, "s=0 collapses wp families entrywise")


def test_criterion_8_expansion_coefficient_sums():
    fixed = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5),
                              "s": Fraction(5, 7)})
    ok = all(hg.expansion_coeff_check(l, n, fixed).passed
             for l in range(7) for n in range(7))
    _line(8, ok, "coefficient sum, l,n <= 6 at (q,t)=(2/3,3/5)")
    ok = all(hg.wp_expansion_coeff_check(l, n, fixed).passed
             for l in range(5) for n in range(5))
    _line(8, ok, "s-weighted coefficient sum, l,n <= 4 at (2/3,3/5,5/7)")
    # l < n cases are exact 0 = 0, not merely equal
    zero_zero = [(hg.expansion_coeff_check(l, n, fixed), l, n)
                 for n in range(1, 7) for l in range(n)]
    lhs_zero = all(r.passed for r, _, _ in zero_zero)
    _line(8, lhs_zero, "l < n cases return exact 0 = 0")

    def b1(point, seed):
        for l in range(7):
            for n in range(7):
                r = hg.expansion_coeff_check(l, n, point, seed)
                if not r.passed:
                    return r
        return r

    def c_sum(point, seed):
        for l in range(5):
            for n in range(5):
                r = hg.wp_expansion_coeff_check(l, n, point, seed)
                if not r.passed:
                    return r
        return r

    reports = hg.run_at_random_points(b1, ("q", "t"), 10, seed=8801)
    _line(8, all(r.passed for r in reports), "coefficient sum at 10 seeded points")
    reports = hg.run_at_random_points(c_sum, ("q", "t", "s"), 10, seed=8802)
    _line(8, all(r.passed for r in reports),
          "s-weighted coefficient sum at 10 seeded points")


def test_criterion_9_classical_layer_selftest():
    start = time.perf_counter()
    reports = cli.selftest_reports()
    elapsed = time.perf_counter() - start
    identities = {r.identity for r in reports}
    required = {"classical-pfaff-saalschutz", "classical-chu-vandermonde-2",
                "classical-qbinomial-theorem", "classical-sixphi5",
                "classical-heine-1", "s-closed-form", "s-symmetry",
                "b-eva", "phi-eva", "hermite-orthogonality",
                "ultraspherical-orthogonality", "hermite-linearization",
                "weight-expansion", "expansion-coeff-closed-form"}
    ok = (all(r.passed for r in reports) and required <= identities
          and elapsed < 60)
    _line(9, ok, f"classical layer: {len(reports)} checks", elapsed)


def test_criterion_10_multisum_rogers_ramanujan():
    for k in (1, 2, 3):
        report = M.multi_rogers_ramanujan(k, 20)
        _line(10, report.passed, f"multisum Rogers-Ramanujan, k={k}, max_q=20")


def test_criterion_11_positivity_and_symmetry():
    trunc = Truncation(10, 8)
    for k in (1, 2, 3):
        bosonic = M.bosonic_index(k, trunc)
        unrefined = M.specialize_index(bosonic, "unrefined")
        ok = all(isinstance(coeff, int) and coeff >= 0
                 for _, coeff in unrefined.terms())
        _line(11, ok, f"unrefined bosonic coefficients are nonnegative "
                      f"integers, k={k}")
        _line(11, bosonic.flip_z() == bosonic, f"bosonic z-symmetry, k={k}")
    small = Truncation(6, 4)
    for k in (1, 2):
        for name in ("fermionic", "fermionic2", "original"):
            series = getattr(M, f"{name}_index")(k, small)
            _line(11, series.flip_z() == series, f"{name} z-symmetry, k={k}")


def _strip_times(reports):
    out = []
    for r in reports:
        d = r.to_dict()
        d["wall_time_ms"] = None
        out.append(d)
    return json.dumps(out, sort_keys=True)


def test_criterion_12_determinism():
    trunc = Truncation(8, 8)

    def run_conj():
        gamma, delta = B.hermite_conjugate_pair(trunc)
        return [B.verify_conjugate_pair(gamma, delta, 3)]

    _line(12, _strip_times(run_conj()) == _strip_times(run_conj()),
          "conjugate-pair reports byte-identical across runs")

    def run_points():
        def check(point, seed):
            return hg.expansion_coeff_check(3, 2, point, seed)
        return hg.run_at_random_points(check, ("q", "t"), 5, seed=777)

    _line(12, _strip_times(run_points()) == _strip_times(run_points()),
          "seeded rational-point reports byte-identical across runs")

    def run_index():
        return [M.generalized_identity(1, [0], [0], Truncation(6, 5))]

    _line(12, _strip_times(run_index()) == _strip_times(run_index()),
          "index identity reports byte-identical across runs")
