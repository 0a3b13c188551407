"""Tests for the index representations and the identities that link
them."""

import functools
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbailey import macdonald as M
from qbailey import qfunctions as qf
from qbailey.errors import DomainError, InternalConsistencyError, TruncationOverflow
from qbailey.series import TruncatedSeries, Truncation

TR = Truncation(8, 6)
SMALL = Truncation(5, 3)


def retruncate(f, small):
    return TruncatedSeries(small, dict(f._terms))


def test_dynkin_adjacency():
    d1 = M.DynkinData.build(1)
    assert d1.edges() == {(1, 2), (1, 3)}
    d2 = M.DynkinData.build(2)
    assert d2.edges() == {(1, 2), (2, 3), (3, 4), (3, 5)}
    d3 = M.DynkinData.build(3)
    assert d3.edges() == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)}
    with pytest.raises(InternalConsistencyError):
        M.DynkinData(1, ((0, 1, 0), (0, 0, 1), (0, 1, 0)))   # asymmetric


def test_constant_terms():
    for fn in (M.bosonic_index, M.fermionic_index, M.fermionic2_index,
               M.original_index):
        series = fn(1, SMALL)
        assert series.coefficient((0, 0, 0, 0)) == 1


def test_cross_representation_equality():
    for k in (1, 2):
        f = M.fermionic_index(k, TR)
        assert f == M.bosonic_index(k, TR)
        assert f == M.fermionic2_index(k, TR)
    small = Truncation(6, 4)
    f3 = M.fermionic_index(3, small)
    assert f3 == M.bosonic_index(3, small)
    assert f3 == M.fermionic2_index(3, small)
    for k in (1, 2):
        assert M.original_index(k, small) == M.fermionic2_index(k, small)


def test_z_inversion_symmetry():
    for k in (1, 2):
        for fn in (M.bosonic_index, M.fermionic_index, M.fermionic2_index):
            series = fn(k, SMALL)
            assert series.flip_z() == series


def test_low_order_coefficients():
    f = M.fermionic_index(1, TR)
    # t^1 row: q^0 gives z^2 + 1 + z^-2, q^1 gives z^2 + 2 + z^-2
    assert f.coefficient((0, 1, 0, 2)) == 1
    assert f.coefficient((0, 1, 0, 0)) == 1
    assert f.coefficient((0, 1, 0, -2)) == 1
    assert f.coefficient((1, 1, 0, 0)) == 2
    assert f.coefficient((1, 1, 0, 2)) == 1
    b = M.bosonic_index(1, TR)
    assert b.coefficient((0, 1, 0, 2)) == 1
    assert b.coefficient((0, 1, 0, 0)) == 1


def test_unrefined_matches_direct_multisum():
    # independent evaluation of the z = 1 multisum
    k, trunc = 2, SMALL
    direct = TruncatedSeries.zero(trunc)
    for chain in combinations_with_replacement(range(trunc.max_t + 1), k):
        if sum(chain) > trunc.max_t:
            continue
        val = TruncatedSeries.monomial(
            trunc, 1, e_q=sum(v * v for v in chain[:-1]), e_t=sum(chain))
        val = val * qf.inv_qq(chain[0], trunc)
        for a, b in zip(chain, chain[1:]):
            val = val * qf.inv_qq(b - a, trunc)
        inner = TruncatedSeries.zero(trunc)
        for j in range(2 * chain[-1] + 1):
            inner = inner + qf.qbinomial(2 * chain[-1], j, trunc)
        direct = direct + val * inner
    assert M.specialize_index(M.fermionic_index(k, trunc), "unrefined") == direct


def test_monotone_truncation_consistency():
    # a result at larger caps, cut down to smaller caps, equals the
    # result computed at the smaller caps
    for k in (1, 2, 3):
        for fn in (M.bosonic_index, M.fermionic_index, M.fermionic2_index,
                   M.original_index):
            assert retruncate(fn(k, TR), SMALL) == fn(k, SMALL)
    b, c = [Fraction(2, 5), Fraction(1, 3)], [Fraction(4, 7), Fraction(5, 2)]
    for big, small in zip(M.generalized_sides(2, b, c, TR),
                          M.generalized_sides(2, b, c, SMALL)):
        assert retruncate(big, SMALL) == small


def test_generalized_identity_zero_parameters_match_plain():
    for k in (1, 2, 3):
        report = M.generalized_identity(k, [0] * k, [0] * k, TR)
        assert report.passed
    # at b = c = 0 the two sides are bit-for-bit the plain representations
    report = M.generalized_identity(2, [0, 0], [0, 0], TR)
    assert report.passed
    # reproduce by comparing the series themselves
    f = M.fermionic_index(2, TR)
    b = M.bosonic_index(2, TR)
    assert f == b


def test_generalized_identity_nonzero_parameters():
    assert M.generalized_identity(1, [1], [0], TR).passed
    assert M.generalized_identity(
        2, [Fraction(2, 5), Fraction(1, 3)], [Fraction(4, 7), Fraction(5, 2)],
        Truncation(6, 5)).passed
    with pytest.raises(DomainError):
        M.generalized_identity(0, [], [], TR)
    with pytest.raises(DomainError):
        M.generalized_identity(2, [0], [0, 0], TR)


def reference_chains(k, cap):
    # frozen copy of the recursive chain enumerator the side builders
    # used before they switched to itertools
    def rec(level, lo, left, prefix):
        if level == 0:
            yield prefix
            return
        v = lo
        while v * level <= left:
            yield from rec(level - 1, v, left - v, prefix + (v,))
            v += 1
    yield from rec(k, 0, cap, ())


def reference_fermionic_index(k, trunc):
    # frozen copy of the plain chain loop fermionic_index was written as
    total = TruncatedSeries.zero(trunc)
    for chain in reference_chains(k, trunc.max_t):
        qexp = sum(v * v for v in chain[:-1])
        if qexp > trunc.max_q:
            continue
        val = TruncatedSeries.monomial(trunc, 1, e_q=qexp, e_t=sum(chain))
        val = val * qf.inv_qq(chain[0], trunc)
        for a, b in zip(chain, chain[1:]):
            val = val * qf.inv_qq(b - a, trunc)
        total = total + val * qf.hermite(2 * chain[-1], trunc)
    return total


def reference_bosonic_prefactor(trunc):
    return (qf.inv_poch_infinite((1, 0, 1, 0, 0), trunc)
            * qf.inv_poch_infinite((1, 0, 1, 0, 2), trunc)
            * qf.inv_poch_infinite((1, 0, 1, 0, -2), trunc))


def reference_bosonic_index(k, trunc):
    # frozen copy of the plain n-loop bosonic_index was written as
    total = TruncatedSeries.zero(trunc)
    n = 0
    while (k + 1) * n <= trunc.max_t and k * n * n + qf.binom2(n) <= trunc.max_q:
        total = total + reference_bosonic_summand(k, n, trunc)
        n += 1
    return reference_bosonic_prefactor(trunc) * total


def reference_bosonic_summand(k, n, trunc):
    sign = -1 if n % 2 else 1
    mono = TruncatedSeries.monomial(trunc, sign,
                                    e_q=k * n * n + qf.binom2(n), e_t=(k + 1) * n)
    val = (mono * qf.poch_finite((1, n + 1, 0, 0, 0), n, trunc)
           * qf.poch_infinite((1, 2 * n, 2, 0, 0), trunc)
           * qf.poch_finite((1, n, 1, 0, 0), n, trunc).invert()
           * qf.inv_poch_infinite((1, 2 * n + 1, 1, 0, 0), trunc))
    return val * qf.ultraspherical(2 * n, trunc, "t")


def reference_generalized_sides(k, b, c, trunc):
    # frozen copy of the two loops generalized_sides was written as, with
    # every parameter factor formed even when the parameter is zero
    def bc_base(x):
        return (x, 1, 1, 0, 0)

    lhs = TruncatedSeries.zero(trunc)
    for chain in reference_chains(k, trunc.max_t):
        qexp = sum(chain[:-1])
        if qexp > trunc.max_q:
            continue
        val = TruncatedSeries.monomial(trunc, 1, e_q=qexp, e_t=sum(chain))
        diffs = [chain[0]] + [y - x for x, y in zip(chain, chain[1:])]
        for i in range(k):
            val = val * qf.inv_qq(diffs[i], trunc)
            val = val * qf.poch_finite(bc_base(b[i] * c[i]), diffs[i], trunc)
        den = TruncatedSeries.one(trunc)
        for i in range(k):
            den = den * qf.poch_finite(bc_base(b[i]), chain[i], trunc) \
                * qf.poch_finite(bc_base(c[i]), chain[i], trunc)
        val = val * den.invert()
        for i in range(1, k):
            val = val * qf.combined_poch(b[i], chain[i - 1], trunc) \
                * qf.combined_poch(c[i], chain[i - 1], trunc)
        lhs = lhs + val * qf.hermite(2 * chain[-1], trunc)

    rhs_sum = TruncatedSeries.zero(trunc)
    n = 0
    while (k + 1) * n <= trunc.max_t and k * n + qf.binom2(n) <= trunc.max_q:
        sign = -1 if n % 2 else 1
        mono = TruncatedSeries.monomial(trunc, sign,
                                        e_q=k * n + qf.binom2(n), e_t=(k + 1) * n)
        val = (mono * qf.poch_finite((1, n + 1, 0, 0, 0), n, trunc)
               * qf.poch_infinite((1, 2 * n, 2, 0, 0), trunc)
               * qf.poch_finite((1, n, 1, 0, 0), n, trunc).invert()
               * qf.inv_poch_infinite((1, 2 * n + 1, 1, 0, 0), trunc))
        den = TruncatedSeries.one(trunc)
        for i in range(k):
            val = val * qf.combined_poch(b[i], n, trunc) * qf.combined_poch(c[i], n, trunc)
            den = den * qf.poch_finite(bc_base(b[i]), n, trunc) \
                * qf.poch_finite(bc_base(c[i]), n, trunc)
        val = val * den.invert()
        rhs_sum = rhs_sum + val * qf.ultraspherical(2 * n, trunc, "t")
        n += 1
    return lhs, reference_bosonic_prefactor(trunc) * rhs_sum


PARAMETER = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), max_q=st.integers(0, 7), max_t=st.integers(0, 6),
       data=st.data())
@example(k=2, max_q=6, max_t=5, data=None)
@example(k=3, max_q=0, max_t=4, data=None)
@example(k=3, max_q=5, max_t=0, data=None)
@example(k=1, max_q=3, max_t=6, data=None)
def test_side_builders_match_frozen_loops(k, max_q, max_t, data):
    # the plain forms and both parametrized sides against frozen copies of
    # the loops they replaced; zero and nonzero parameters mix freely
    trunc = Truncation(max_q, max_t)
    if data is None:                     # explicit examples: fixed mixed vectors
        b, c = [0, Fraction(1, 2), 0][:k], [3, 0, Fraction(-2, 3)][:k]
    else:
        b = data.draw(st.lists(PARAMETER, min_size=k, max_size=k), label="b")
        c = data.draw(st.lists(PARAMETER, min_size=k, max_size=k), label="c")
    assert M.fermionic_index(k, trunc).render() == reference_fermionic_index(k, trunc).render()
    assert M.bosonic_index(k, trunc).render() == reference_bosonic_index(k, trunc).render()
    for got, want in zip(M.generalized_sides(k, b, c, trunc),
                         reference_generalized_sides(k, b, c, trunc)):
        assert got.render() == want.render()


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("qbailey."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _macdonald_calls_per_branch(entry, *args):
    # qualified names of the qbailey.macdonald functions that run during
    # entry(*args), one set per function the entry point calls directly,
    # with every cache cleared before each such call (a cache hit would
    # hide a shared function); the entry's own comprehensions count as
    # the entry point
    root = entry.__qualname__
    branches = []

    def in_entry(code):
        return code.co_qualname == root or code.co_qualname.startswith(root + ".")

    def hook(frame, event, arg):
        if event != "call" or frame.f_globals.get("__name__") != M.__name__:
            return
        if in_entry(frame.f_code):
            return
        if in_entry(frame.f_back.f_code):
            _clear_caches()
            branches.append(set())
        branches[-1].add(frame.f_code.co_qualname)

    _clear_caches()
    sys.setprofile(hook)
    try:
        entry(*args)
    finally:
        sys.setprofile(None)
    return branches


def test_sides_share_no_macdonald_function():
    # the two sides of an identity are computed independently: apart from
    # the public entry point, no macdonald function runs on both
    k, trunc = 2, Truncation(6, 4)
    fermionic = {"fermionic_index"}.union(
        *_macdonald_calls_per_branch(M.fermionic_index, k, trunc))
    bosonic = {"bosonic_index"}.union(
        *_macdonald_calls_per_branch(M.bosonic_index, k, trunc))
    assert not fermionic & bosonic
    for b, c in (([0, 0], [0, 0]), ([Fraction(2, 5), 0], [3, Fraction(1, 2)])):
        lhs, rhs = _macdonald_calls_per_branch(M.generalized_sides, k, b, c, trunc)
        assert lhs and rhs and not lhs & rhs


def test_multi_rogers_ramanujan():
    for k in (1, 2, 3):
        report = M.multi_rogers_ramanujan(k, 20)
        assert report.passed
    with pytest.raises(DomainError):
        M.multi_rogers_ramanujan(0, 10)


def test_original_integrality_guard(monkeypatch):
    # a symmetric but wrong adjacency (the fork edge (2k-1)-(2k+1)
    # dropped) must trip the integrality assertion instead of silently
    # producing a series: the weight of rho node 2k-1 loses
    # l_(2k+1) + m_(2k+1) but keeps l_2k + m_2k = u1 + u2, so it is odd
    # for some (u1, u2).  A dropped path edge cannot be caught this way:
    # l = m on every path node, so every weight stays even and every
    # exponent integral.
    bad = {}
    for k in (1, 2, 3):
        matrix = [list(row) for row in M.DynkinData.build(k).adjacency]
        matrix[2 * k - 2][2 * k] = matrix[2 * k][2 * k - 2] = 0
        bad[k] = M.DynkinData(k, tuple(tuple(r) for r in matrix))
    monkeypatch.setattr(M.DynkinData, "build", classmethod(lambda cls, k: bad[k]))
    for k in (1, 2, 3):
        with pytest.raises(InternalConsistencyError):
            M.original_index(k, SMALL)


def reference_original_index(k, trunc):
    # frozen copy of the dense form original_index was first written as:
    # every rho up to max_q, the full (2k+1)^2 quadratic form per rho,
    # and integrality asserted through Fraction exponents
    adj = M.DynkinData.build(k).adjacency
    size = 2 * k + 1
    total = TruncatedSeries.zero(trunc)
    for svec in M._svectors(k, trunc.max_t):
        sigma_k = svec[-1]
        for u1 in range(sigma_k + 1):
            for u2 in range(sigma_k + 1):
                total = total + reference_rho_block(k, adj, size, svec, u1, u2, trunc)
    return M._tq_qq_inf_power(k, trunc) * total


@functools.cache
def reference_inv_tpoch(r, trunc):
    # frozen 1/(t;q)_r: the Pochhammer product inverted by the generic
    # kernel, so the oracles do not run the inv_poch under test
    return qf.poch_finite((1, 0, 1, 0, 0), r, trunc).invert()


def reference_rho_block(k, adj, size, svec, u1, u2, trunc):
    block = TruncatedSeries.zero(trunc)
    l = [0] * size
    m = [0] * size
    for i in range(k - 1):
        l[2 * i + 1] = m[2 * i + 1] = svec[i]
    sigma_k = svec[-1]
    l[2 * k - 1] = u1
    m[2 * k - 1] = u2
    l[2 * k] = sigma_k - u1
    m[2 * k] = sigma_k - u2
    for rho in M._svectors(k, trunc.max_q):
        for i in range(k):
            l[2 * i] = m[2 * i] = rho[i]
        quad = sum(adj[i][j] * l[i] * m[j] for i in range(size) for j in range(size))
        e_q = Fraction(quad, 2) + Fraction(sum(l[2 * i] + m[2 * i] for i in range(k)), 2)
        e_t = Fraction(sum(l[2 * i + 1] + m[2 * i + 1] for i in range(k - 1))
                       + l[2 * k - 1] + m[2 * k - 1] + l[2 * k] + m[2 * k], 2)
        if e_q.denominator != 1 or e_t.denominator != 1:
            raise InternalConsistencyError(
                f"non-integral exponent for l={l}, m={m}: q^{e_q} t^{e_t}")
        e_q, e_t = int(e_q), int(e_t)
        if e_q > trunc.max_q or e_t > trunc.max_t:
            continue
        val = TruncatedSeries.monomial(trunc, 1, e_q=e_q, e_t=e_t,
                                       e_z=2 * m[2 * k] - 2 * l[2 * k])
        for i in range(k):
            val = val * reference_inv_tpoch(l[2 * i], trunc) * qf.inv_qq(m[2 * i], trunc)
        block = block + val
    fixed = qf.inv_qq(l[2 * k], trunc) * qf.inv_qq(m[2 * k], trunc)
    for i in range(k):
        fixed = fixed * qf.inv_qq(l[2 * i + 1], trunc) * qf.inv_qq(m[2 * i + 1], trunc)
    return block * fixed


@pytest.mark.parametrize("const2,weights,couplings", [
    (0, (2, 2, 2), ((), (0,), (0, 0))),
    (2, (4, 2, 6), ((), (1,), (0, 1))),
    (0, (2, 2, 2), ((), (1,), (1, 1))),
    (4, (2, 8), ((), (1,)))])
def test_rho_sum_matches_brute_force(const2, weights, couplings):
    # the D-series graph has no rho-rho edge, so couplings are tested here
    trunc = Truncation(7, 3)
    factor = [reference_inv_tpoch(r, trunc) * qf.inv_qq(r, trunc)
              for r in range(trunc.max_q + 1)]
    expected = TruncatedSeries.zero(trunc)
    for rho in M._svectors(len(weights), trunc.max_q):
        e2 = const2 + sum(r * w for r, w in zip(rho, weights)) + 2 * sum(
            a * rho[i] * rho[j] for i, row in enumerate(couplings) for j, a in enumerate(row))
        val = TruncatedSeries.monomial(trunc, 1, e_q=e2 // 2)
        for r in rho:
            val = val * factor[r]
        expected = expected + val
    assert M._rho_sum(const2, weights, couplings, factor, trunc) == expected


@pytest.mark.parametrize("k,max_q,max_t", [
    (1, 10, 8), (1, 3, 9), (1, 0, 4), (1, 6, 0),
    (2, 7, 6), (2, 3, 8), (2, 9, 3), (2, 0, 5),
    (3, 6, 4), (3, 2, 7), (3, 8, 2)])
def test_original_matches_dense_reference(k, max_q, max_t):
    trunc = Truncation(max_q, max_t)
    assert M.original_index(k, trunc) == reference_original_index(k, trunc)


def test_specializations():
    # Hall-Littlewood: at q = 0 only the n = 0 outer term survives and
    # every infinite product collapses to its first factor, leaving
    # (1-t^2) / ((1-t)(1-t z^2)(1-t z^-2)) = (1+t)/((1-t z^2)(1-t z^-2))
    trunc = TR
    b = M.bosonic_index(1, trunc)
    hl = M.specialize_index(b, "hall-littlewood")
    one = TruncatedSeries.one(trunc)
    t = TruncatedSeries.variable(trunc, "t")
    tz2 = TruncatedSeries.monomial(trunc, 1, e_t=1, e_z=2)
    tz2i = TruncatedSeries.monomial(trunc, 1, e_t=1, e_z=-2)
    expected = (one + t) * ((one - tz2) * (one - tz2i)).invert()
    assert hl == expected

    schur_tr = Truncation(6, 6)
    f = M.fermionic_index(1, schur_tr)
    schur = M.specialize_index(f, "schur")
    assert schur.coefficient((0, 0, 0, 0)) == 1
    mono_t = TruncatedSeries.monomial(schur_tr, 1, e_t=2)
    assert M.specialize_index(mono_t, "schur") == \
        TruncatedSeries.monomial(schur_tr, 1, e_q=2)
    with pytest.raises(TruncationOverflow):
        M.specialize_index(M.fermionic_index(1, Truncation(6, 4)), "schur")
    with pytest.raises(DomainError):
        M.specialize_index(f, "bogus")


def test_coefficient_table():
    f = M.fermionic_index(1, Truncation(4, 3))
    rows = M.coefficient_rows(f)
    assert rows[0] == (0, 0, 0, 1, 1)
    assert rows == sorted(rows)
    csv_text = M.rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "0,0,0,1,1"
    obj = M.rows_to_json_obj(rows)
    assert obj["columns"] == ["e_q", "e_t", "e_z", "num", "den"]
    assert obj["rows"][0] == [0, 0, 0, 1, 1]
    with_s = TruncatedSeries.monomial(Truncation(2, 2, 2), 1, e_s=1)
    with pytest.raises(DomainError):
        M.coefficient_rows(with_s)


def test_representation_builders():
    # each --rep name in REPRESENTATIONS has a builder <name>_index, and
    # every builder rejects k < 1 itself
    assert M.REPRESENTATIONS == ("bosonic", "fermionic", "fermionic2", "original")
    for rep in M.REPRESENTATIONS:
        with pytest.raises(DomainError):
            getattr(M, f"{rep}_index")(0, TR)
