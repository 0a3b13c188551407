"""Tests for the index representations and the identities that link
them."""

import contextlib
import functools
import io
import json
import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from conftest import clear_caches
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbailey import cli
from qbailey import macdonald as M
from qbailey import qfunctions as qf
from qbailey import series as S
from qbailey.errors import DomainError, InternalConsistencyError, TruncationOverflow
from qbailey.series import TruncatedSeries, Truncation

TR = Truncation(8, 6)
SMALL = Truncation(5, 3)


def retruncate(f, small):
    return TruncatedSeries(small, dict(f.terms()))


def edges(dynkin):
    """1-based edge set {(i, j) : i < j, a_ij = 1}."""
    adj = dynkin.adjacency
    return {(i + 1, j + 1) for i in range(len(adj)) for j in range(i + 1, len(adj))
            if adj[i][j]}


def test_dynkin_adjacency():
    assert edges(M.DynkinData.build(1)) == {(1, 2), (1, 3)}
    assert edges(M.DynkinData.build(2)) == {(1, 2), (2, 3), (3, 4), (3, 5)}
    assert edges(M.DynkinData.build(3)) == {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)}
    for adjacency, text in ((((0, 1), (1, 0)), "adjacency matrix has wrong shape"),
                            (((0, 2, 0), (2, 0, 1), (0, 1, 0)), "adjacency entries must be 0 or 1"),
                            (((1, 1, 0), (1, 0, 1), (0, 1, 0)), "adjacency diagonal must vanish"),
                            (((0, 1, 0), (0, 0, 1), (0, 1, 0)), "adjacency must be symmetric")):
        with pytest.raises(InternalConsistencyError) as info:
            M.DynkinData(1, adjacency)
        assert str(info.value) == text
    with pytest.raises(AttributeError):
        M.DynkinData.build(1).k = 2


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
    assert M.fermionic_index(k, trunc).specialize("z", 1) == direct


def test_monotone_truncation_consistency():
    # a result at larger caps, cut down to smaller caps, equals the
    # result computed at the smaller caps
    for k in (1, 2, 3):
        for fn in (M.bosonic_index, M.fermionic_index, M.fermionic2_index,
                   M.original_index):
            assert retruncate(fn(k, TR), SMALL) == fn(k, SMALL)
    for b, c in (([Fraction(-3, 2)], [Fraction(5, 4)]),
                 ([Fraction(2, 5), Fraction(1, 3)], [Fraction(4, 7), Fraction(5, 2)]),
                 ([Fraction(1, 2), 3, Fraction(-2, 3)], [2, Fraction(1, 4), Fraction(7, 5)])):
        for big, small in zip(M.generalized_sides(len(b), b, c, TR),
                              M.generalized_sides(len(b), b, c, SMALL)):
            assert retruncate(big, SMALL) == small


def test_multi_rogers_ramanujan_truncation_projection():
    # both sides at a larger q-cap, cut down, equal the sides at the
    # smaller cap, including caps that end between two chain exponents
    for k in (1, 2, 3):
        for big_q, small_q in ((30, 12), (17, 16), (9, 0)):
            for wide, narrow in zip(M.multi_rogers_ramanujan(k, big_q),
                                    M.multi_rogers_ramanujan(k, small_q)):
                assert wide.trunc == Truncation(big_q, 0)
                assert retruncate(wide, narrow.trunc) == narrow


def test_generalized_identity_zero_parameters_match_plain():
    for k in (1, 2, 3):
        lhs, rhs = M.generalized_sides(k, [0] * k, [0] * k, TR)
        assert lhs == rhs
    # at b = c = 0 the two sides are the plain representations
    lhs, rhs = M.generalized_sides(2, [0, 0], [0, 0], TR)
    assert lhs == M.fermionic_index(2, TR) == M.bosonic_index(2, TR) == rhs


def test_generalized_identity_nonzero_parameters():
    lhs, rhs = M.generalized_sides(1, [1], [0], TR)
    assert lhs == rhs
    lhs, rhs = M.generalized_sides(
        2, [Fraction(2, 5), Fraction(1, 3)], [Fraction(4, 7), Fraction(5, 2)],
        Truncation(6, 5))
    assert lhs == rhs
    with pytest.raises(DomainError):
        M.generalized_sides(0, [], [], TR)
    with pytest.raises(DomainError):
        M.generalized_sides(2, [0], [0, 0], TR)


def test_generalized_sides_refuse_float_parameters():
    # the bosonic side reads b and c itself, not through ChainParams
    for b, c in (([0.1], [0]), ([0], [0.5]), ([Fraction(1, 2), 0.5], [0, 0])):
        with pytest.raises(DomainError, match="int or Fraction"):
            M.generalized_sides(len(b), b, c, Truncation(3, 2))


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
@example(k=5, max_q=7, max_t=6, data=None)
@example(k=5, max_q=3, max_t=8, data=None)
def test_side_builders_match_frozen_loops(k, max_q, max_t, data):
    # the plain forms and both parametrized sides against frozen copies of
    # the loops they replaced; zero and nonzero parameters mix freely.  The
    # k = 5 examples take the fermionic lift deeper than the drawn k <= 3.
    trunc = Truncation(max_q, max_t)
    if data is None:                     # explicit examples: fixed mixed vectors
        b = [0, Fraction(1, 2), 0, -1, Fraction(5, 4)][:k]
        c = [3, 0, Fraction(-2, 3), 0, 0][:k]
    else:
        b = data.draw(st.lists(PARAMETER, min_size=k, max_size=k), label="b")
        c = data.draw(st.lists(PARAMETER, min_size=k, max_size=k), label="c")
    assert M.fermionic_index(k, trunc).render() == reference_fermionic_index(k, trunc).render()
    assert M.bosonic_index(k, trunc).render() == reference_bosonic_index(k, trunc).render()
    for got, want in zip(M.generalized_sides(k, b, c, trunc),
                         reference_generalized_sides(k, b, c, trunc)):
        assert got.render() == want.render()


# the ring kernel and the primitive builders, the only modules the two
# sides of an identity may share
SHARED_MODULES = ("qbailey.series", "qbailey.qfunctions")


def _calls_per_branch(entry, *args):
    # qualified names "module.qualname" of the qbailey functions outside
    # SHARED_MODULES that run during entry(*args), one set per function
    # the entry point calls directly, with every cache cleared before each
    # such call (a cache hit would hide a shared function); the entry's
    # own comprehensions count as the entry point
    root = entry.__qualname__
    branches = []

    def in_entry(code):
        return code.co_qualname == root or code.co_qualname.startswith(root + ".")

    def audited(frame):
        module = frame.f_globals.get("__name__", "")
        return module.startswith("qbailey.") and module not in SHARED_MODULES

    def hook(frame, event, arg):
        if event != "call" or not audited(frame) or in_entry(frame.f_code):
            return
        if in_entry(frame.f_back.f_code):
            clear_caches()
            branches.append(set())
        branches[-1].add(f"{frame.f_globals['__name__']}.{frame.f_code.co_qualname}")

    clear_caches()
    sys.setprofile(hook)
    try:
        entry(*args)
    finally:
        sys.setprofile(None)
    return branches


LIFT = "qbailey.bailey.chain_lift"


def test_sides_share_only_kernel_and_primitives():
    # the two sides of an identity are computed independently: apart from
    # the public entry points, no function of any qbailey module but the
    # ring kernel and the primitive builders runs on both, and only the
    # fermionic side runs the Bailey-lemma lift
    k, trunc = 2, Truncation(6, 4)
    for left, right in ((M.fermionic_index, M.bosonic_index),       # thm-main
                        (M.fermionic_index, M.fermionic2_index),    # thm-kks
                        (M.original_index, M.fermionic2_index)):    # appx-a
        lhs, rhs = ({f"{M.__name__}.{side.__name__}"}.union(*_calls_per_branch(side, k, trunc))
                    for side in (left, right))
        assert not lhs & rhs, (left.__name__, right.__name__, lhs & rhs)
        assert (LIFT in lhs) == (left is M.fermionic_index) and LIFT not in rhs
    for b, c in (([0, 0], [0, 0]), ([Fraction(2, 5), 0], [3, Fraction(1, 2)])):
        lhs, rhs = _calls_per_branch(M.generalized_sides, k, b, c, trunc)
        assert lhs and rhs and not lhs & rhs, lhs & rhs
        assert LIFT in lhs and LIFT not in rhs


def reference_multi_rr_lhs(k, trunc):
    # frozen copy of the chain loop the multisum side was first written
    # as: every chain n_1 <= ... <= n_k with n_i^2 <= max_q, one product
    # chain of k factors each
    max_q = trunc.max_q
    pairs = []
    for chain in combinations_with_replacement(range(math.isqrt(max_q) + 1), k):
        qexp = sum(v * v for v in chain)
        if qexp > max_q:
            continue
        val = TruncatedSeries.monomial(trunc, 1, e_q=qexp)
        for a, bb in zip(chain, chain[1:]):
            val = val * qf.inv_qq(bb - a, trunc)
        pairs.append((val, qf.inv_qq(chain[0], trunc)))
    return TruncatedSeries.sum_of_products(trunc, pairs)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("max_q", [0, 1, 16, 17, 40, 80])
def test_multi_rogers_ramanujan_levels_match_chain_loop(k, max_q):
    lhs = M.multi_rogers_ramanujan(k, max_q)[0]
    assert lhs.render() == reference_multi_rr_lhs(k, Truncation(max_q, 0)).render()


def test_multi_rogers_ramanujan():
    for k in (1, 2, 3):
        lhs, rhs = M.multi_rogers_ramanujan(k, 20)
        assert lhs == rhs
    with pytest.raises(DomainError):
        M.multi_rogers_ramanujan(0, 10)


def test_original_integrality_guard(monkeypatch):
    # a symmetric but wrong adjacency (the fork edge (2k-1)-(2k+1)
    # dropped) must be refused instead of silently producing a series.
    # _dynkin_walk refuses it before any weight is read: node 2k+1 is cut
    # off, so rho node 2k-1 has node 2k alone ahead, which the walk takes
    # for a path node, and "the walk along the path cannot continue at
    # node 2k".  The integrality (evenness) check never runs.  Past the
    # walk, the weight of rho node 2k-1 would lose l_(2k+1) + m_(2k+1)
    # but keep l_2k + m_2k = u1 + u2, so it would be odd at
    # (u1, u2) = (1, 0); that evenness check is covered by
    # test_original_weight_guard_stands_apart_from_the_walk.
    bad = {}
    for k in (1, 2, 3):
        matrix = [list(row) for row in M.DynkinData.build(k).adjacency]
        matrix[2 * k - 2][2 * k] = matrix[2 * k][2 * k - 2] = 0
        bad[k] = M.DynkinData(k, tuple(tuple(r) for r in matrix))
    monkeypatch.setattr(M.DynkinData, "build", classmethod(lambda cls, k: bad[k]))
    for k in (1, 2, 3):
        with pytest.raises(InternalConsistencyError):
            M.original_index(k, SMALL)


def test_original_bipartition_guard(monkeypatch):
    # the rho nodes and the fixed nodes are the two colour classes of the
    # D-series graph; an adjacency with a rho-rho edge (nodes 1-3, 1-based)
    # or a fixed-fixed edge (the fork nodes 2k, 2k+1) must be refused
    # instead of silently producing a series.  The walk refuses both: node
    # 1, or the node before the fork, then has two neighbours ahead that
    # are not two leaves.
    def with_edge(k, i, j):
        matrix = [list(row) for row in M.DynkinData.build(k).adjacency]
        matrix[i][j] = matrix[j][i] = 1
        return M.DynkinData(k, tuple(tuple(r) for r in matrix))

    bad = [with_edge(k, 0, 2) for k in (2, 3)] + \
        [with_edge(k, 2 * k - 1, 2 * k) for k in (1, 2, 3)]
    for data in bad:
        monkeypatch.setattr(M.DynkinData, "build", classmethod(lambda cls, k: data))
        with pytest.raises(InternalConsistencyError,
                           match="not one path node or two fork nodes"):
            M.original_index(data.k, SMALL)


@pytest.mark.parametrize("k,caps", [(2, (6, 4)), (3, (7, 6))])
def test_original_relabelled_dynkin_graph(monkeypatch, k, caps):
    # D_{2k+1} with the labels of nodes 2 and 3 (1-based) swapped is the
    # same graph: the walk from node 1 steps on 3 as the first fixed node
    # and on 2 as the next rho node, so the series is unchanged
    trunc = Truncation(*caps)
    adj = M.DynkinData.build(k).adjacency
    label = list(range(2 * k + 1))
    label[1], label[2] = 2, 1
    swapped = M.DynkinData(k, tuple(tuple(adj[i][j] for j in label) for i in label))
    assert swapped.adjacency != adj
    monkeypatch.setattr(M.DynkinData, "build", classmethod(lambda cls, k: swapped))
    assert M.original_index(k, trunc) == M.fermionic2_index(k, trunc)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("i,j,edge", [(1, 2, 0), (0, 3, 1)], ids=["drop-2-3", "add-1-4"])
def test_original_perturbed_adjacency(monkeypatch, k, i, j, edge):
    # the walk order and the weights come from the adjacency: a dropped
    # path edge (nodes 2-3, 1-based), which keeps every exponent integral,
    # or an extra edge across the colour classes (nodes 1-4) must raise
    # or change the series
    matrix = [list(row) for row in M.DynkinData.build(k).adjacency]
    matrix[i][j] = matrix[j][i] = edge
    bad = M.DynkinData(k, tuple(tuple(r) for r in matrix))
    monkeypatch.setattr(M.DynkinData, "build", classmethod(lambda cls, k: bad))
    try:
        series = M.original_index(k, TR)
    except InternalConsistencyError:
        return
    assert series != M.fermionic2_index(k, TR)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_original_weight_guard_stands_apart_from_the_walk(monkeypatch, k):
    # the weights are read off the adjacency, not off the walk: with the
    # walk of the intact graph and the fork edge (2k-1)-(2k+1) dropped,
    # the fork weight is odd at (u1, u2) = (1, 0) and must raise
    walk = M._dynkin_walk(M.DynkinData.build(k).adjacency)
    matrix = [list(row) for row in M.DynkinData.build(k).adjacency]
    matrix[2 * k - 2][2 * k] = matrix[2 * k][2 * k - 2] = 0
    bad = M.DynkinData(k, tuple(tuple(r) for r in matrix))
    monkeypatch.setattr(M.DynkinData, "build", classmethod(lambda cls, k: bad))
    monkeypatch.setattr(M, "_dynkin_walk", lambda adj: walk)
    with pytest.raises(InternalConsistencyError, match="odd weight"):
        M.original_index(k, SMALL)


def svectors(k, cap):
    # all tuples (s_1..s_k) of nonnegative ints with sum <= cap, in
    # lexicographic order: the gaps p_i - p_{i-1} (p_0 = 0) of the
    # nondecreasing tuples p_1 <= ... <= p_k <= cap, which are the
    # partial sums of s and come in the same order
    for p in combinations_with_replacement(range(cap + 1), k):
        yield tuple(b - a for a, b in zip((0, *p), p))


def reference_original_index(k, trunc):
    # frozen copy of the dense form original_index was first written as:
    # every rho up to max_q, the full (2k+1)^2 quadratic form per rho,
    # and integrality asserted through Fraction exponents
    adj = M.DynkinData.build(k).adjacency
    size = 2 * k + 1
    total = TruncatedSeries.zero(trunc)
    for svec in svectors(k, trunc.max_t):
        sigma_k = svec[-1]
        for u1 in range(sigma_k + 1):
            for u2 in range(sigma_k + 1):
                total = total + reference_rho_block(k, adj, size, svec, u1, u2, trunc)
    return reference_tq_qq_inf_power(k, trunc) * total


def reference_tq_qq_inf_power(k, trunc):
    # ((t;q)_inf (q;q)_inf)^k, the prefactor of both Dynkin-side forms
    return (qf.poch_infinite((1, 0, 1, 0, 0), trunc)
            * qf.poch_infinite((1, 1, 0, 0, 0), trunc)) ** k


def reference_fermionic2_index(k, trunc):
    # frozen copy of the per-s-vector loop fermionic2_index was written
    # as: one product chain of 2k factors for each s-vector
    pairs = []
    for svec in svectors(k, trunc.max_t):
        val = TruncatedSeries.monomial(trunc, 1, e_t=sum(svec))
        s_full = (0,) + svec
        for i in range(k):
            val = val * M._r_geometric(s_full[i] + s_full[i + 1] + 1, trunc)
            val = val * qf.inv_qq(svec[i], trunc) ** 2
        h = qf.hermite(svec[-1], trunc)
        pairs.append((val * h, h))
    return reference_tq_qq_inf_power(k, trunc) * TruncatedSeries.sum_of_products(trunc, pairs)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("max_q,max_t", [(4, 7), (8, 5), (0, 6), (7, 0)])
def test_fermionic2_levels_match_svector_loop(k, max_q, max_t):
    trunc = Truncation(max_q, max_t)
    assert M.fermionic2_index(k, trunc).render() == reference_fermionic2_index(k, trunc).render()


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
    for rho in svectors(k, trunc.max_q):
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


def node_sum_product(weights, node_sum, trunc):
    # the rho-sum as the product of the node sums of its weights
    val = TruncatedSeries.one(trunc)
    for w in weights:
        val = val * node_sum(w)
    return val


def rho_factors(trunc):
    return [reference_inv_tpoch(r, trunc) * qf.inv_qq(r, trunc)
            for r in range(trunc.max_q + 1)]


def brute_rho_sum(const2, weights, couplings, factor, trunc):
    # every rho with entries summing to at most max_q, its full doubled
    # exponent formed per rho and its factors multiplied out
    expected = TruncatedSeries.zero(trunc)
    for rho in svectors(len(weights), trunc.max_q):
        e2 = const2 + sum(r * w for r, w in zip(rho, weights)) + 2 * sum(
            a * rho[i] * rho[j] for i, row in enumerate(couplings) for j, a in enumerate(row))
        val = TruncatedSeries.monomial(trunc, 1, e_q=e2 // 2)
        for r in rho:
            val = val * factor[r]
        expected = expected + val
    return expected


@pytest.mark.parametrize("const2,weights,couplings", [
    (0, (2, 2, 2), ((), (0,), (0, 0))),
    (2, (4, 2, 6), ((), (1,), (0, 1))),
    (0, (2, 2, 2), ((), (1,), (1, 1))),
    (4, (2, 8), ((), (1,)))])
def test_rho_sum_matches_brute_force(const2, weights, couplings):
    # a block's rho-sum is the product of its node sums exactly when the
    # fixed-fixed constant and the rho-rho couplings are zero, as on the
    # bipartite D-series graph: the product matches brute_rho_sum with
    # both zeroed, and differs from it when either is kept, which is why
    # original_index refuses such a graph (test_original_bipartition_guard)
    trunc = Truncation(7, 3)
    factor = rho_factors(trunc)
    zero = tuple((0,) * i for i in range(len(weights)))
    rho_sum = node_sum_product(weights, lambda w: M._node_sum(w, factor, trunc), trunc)
    assert rho_sum == brute_rho_sum(0, weights, zero, factor, trunc)
    assert (rho_sum == brute_rho_sum(const2, weights, couplings, factor, trunc)) == \
        (const2 == 0 and couplings == zero)


@pytest.mark.parametrize("couplings", [((), (1,), (1, 1)), ((), (1,), (0, 1))])
def test_rho_sums_sharing_one_memo_match_brute_force(couplings):
    # original_index reads each node sum from one memo keyed by the
    # weight alone.  The tuples here are unsorted, repeated (the second
    # time every node sum is memoized), share weights, and include a
    # weight above 2 max_q, whose node sum is 1.  Each product of memoized
    # node sums matches brute_rho_sum with zero couplings; with the given
    # rho-rho couplings the three-node product no longer does, so the
    # memo, keyed by weights alone, holds only for a bipartite graph
    trunc = Truncation(9, 3)
    factor = rho_factors(trunc)
    assert M._node_sum(20, factor, trunc) == TruncatedSeries.one(trunc)
    node_sum = functools.cache(lambda w: M._node_sum(w, factor, trunc))
    keys = [(2, 2, 2), (4, 2, 6), (2, 2, 4), (2, 4, 2), (4, 4), (6, 4, 2), (2, 20),
            (2, 20, 2), (6, 2), (4, 2, 6), (2, 2), (2, 2, 2)]
    for weights in keys:
        zero = tuple((0,) * i for i in range(len(weights)))
        assert node_sum_product(weights, node_sum, trunc) == \
            brute_rho_sum(0, weights, zero, factor, trunc), weights
    assert node_sum_product((2, 2, 2), node_sum, trunc) != \
        brute_rho_sum(0, (2, 2, 2), couplings, factor, trunc)


def test_original_forms_each_product_once(monkeypatch):
    # the Dynkin-data form sums node by node along the path, so its work
    # grows polynomially in k and the caps: at most twice the packed sums
    # of fermionic2_index at the same caps (36, 48, 48 at the benchmark
    # caps, 132 at k=2 (24,18) and 202 at k=6 (14,10)).  Enumerating the
    # s-vectors made 112, 143, 93 and 3,625 of them.
    packed = S._sum_of_products
    calls = []
    monkeypatch.setattr(S, "_sum_of_products",
                        lambda pairs, trunc: calls.append(1) or packed(pairs, trunc))
    for (k, max_q, max_t), limit in (((1, 10, 8), 72), ((2, 7, 6), 96), ((3, 7, 4), 96),
                                     ((2, 24, 18), 264), ((6, 14, 10), 404)):
        clear_caches()
        calls.clear()
        M.original_index(k, Truncation(max_q, max_t))
        assert len(calls) <= limit, (k, max_q, max_t, len(calls))


# the bases t, tz^2 and t/z^2 of the bosonic Euler factors
EULER_BASES = ((1, 0, 1, 0, 0), (1, 0, 1, 0, 2), (1, 0, 1, 0, -2))


@pytest.mark.parametrize("k,b,c,caps", [
    (1, [0], [0], (12, 9)), (3, [0] * 3, [0] * 3, (10, 8)),
    (2, [Fraction(2, 5), 0], [3, Fraction(1, 2)], (7, 7)),
    (2, [Fraction(6, 9), Fraction(7, 5)], [Fraction(7, 2), Fraction(7, 9)], (8, 8))])
def test_bosonic_euler_factors_in_turn_match_the_prefactor(monkeypatch, k, b, c, caps):
    # the frozen order: the three-base prefactor times the sum that the
    # bosonic side forms with every Euler factor read as 1
    trunc = Truncation(*caps)
    side = M._bosonic_side(k, b, c, trunc)
    monkeypatch.setattr(M, "infinite_product", lambda num, den, tr: TruncatedSeries.one(tr))
    total = M._bosonic_side(k, b, c, trunc)
    assert side == qf.infinite_product((), EULER_BASES, trunc) * total


# argv, and a bound on the row pairs it lines up: between the counts
# of the product orders that formed the bosonic prefactor
# 1/(t,tz^2,t/z^2;q)_inf before multiplying it into the sum, and
# (F_k(s) H_s) H_s in fermionic2 (8,870, 109,064, 5,716 and 6,827), and
# of the orders that multiply the narrow factors in one at a time
# (3,423, 27,844, 1,932 and 5,847)
ROW_PAIRS = (
    (["verify", "thm-main", "--k", "3", "--nq", "16", "--nt", "12"], 4200),
    (["verify", "thm-main", "--k", "3", "--nq", "40", "--nt", "30"], 34000),
    (["table", "--rep", "bosonic", "--k", "2", "--nq", "14", "--nt", "10"], 2400),
    (["table", "--rep", "fermionic2", "--k", "2", "--nq", "14", "--nt", "10"], 6300),
)


def test_narrow_factors_go_into_wide_sums_one_at_a_time(monkeypatch):
    # a packed product costs about one bigint multiply per pair of rows
    # (e_t, e_s, e_z), so a wide operand should meet only narrow ones.
    # The kernel packs the rows of the two operands of each product in
    # turn; their lengths multiply to the pairs it lines up
    packed = S._packed_rows
    lengths = []

    def counted(nums, w, lo, hi):
        rows = packed(nums, w, lo, hi)
        lengths.append(len(rows))
        return rows

    monkeypatch.setattr(S, "_packed_rows", counted)
    for argv, limit in ROW_PAIRS:
        clear_caches()
        lengths.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        pairs = sum(a * b for a, b in zip(lengths[::2], lengths[1::2]))
        assert pairs <= limit, (argv, pairs)


@pytest.mark.parametrize("k,max_q,max_t", [
    (1, 10, 8), (1, 3, 9), (1, 0, 4), (1, 6, 0),
    (2, 7, 6), (2, 3, 8), (2, 9, 3), (2, 0, 5),
    (3, 6, 4), (3, 2, 7), (3, 8, 2),
    (4, 5, 3), (4, 2, 6)])
def test_original_matches_dense_reference(k, max_q, max_t):
    trunc = Truncation(max_q, max_t)
    assert M.original_index(k, trunc) == reference_original_index(k, trunc)


def test_svectors_match_the_filtered_product():
    # the s-vectors are exactly the tuples with sum <= cap, in
    # lexicographic order
    for k in range(1, 5):
        for cap in range(7):
            expected = [v for v in product(range(cap + 1), repeat=k) if sum(v) <= cap]
            assert list(svectors(k, cap)) == expected


def test_specializations():
    # Hall-Littlewood: at q = 0 only the n = 0 outer term survives and
    # every infinite product collapses to its first factor, leaving
    # (1-t^2) / ((1-t)(1-t z^2)(1-t z^-2)) = (1+t)/((1-t z^2)(1-t z^-2))
    trunc = TR
    b = M.bosonic_index(1, trunc)
    hl = b.specialize("q", 0)
    one = TruncatedSeries.one(trunc)
    t = TruncatedSeries.variable(trunc, "t")
    tz2 = TruncatedSeries.monomial(trunc, 1, e_t=1, e_z=2)
    tz2i = TruncatedSeries.monomial(trunc, 1, e_t=1, e_z=-2)
    expected = (one + t) * ((one - tz2) * (one - tz2i)).invert()
    assert hl == expected

    schur_tr = Truncation(6, 6)
    f = M.fermionic_index(1, schur_tr)
    schur = f.specialize("t", "q")
    assert schur.coefficient((0, 0, 0, 0)) == 1
    mono_t = TruncatedSeries.monomial(schur_tr, 1, e_t=2)
    assert mono_t.specialize("t", "q") == TruncatedSeries.monomial(schur_tr, 1, e_q=2)
    with pytest.raises(TruncationOverflow):
        M.fermionic_index(1, Truncation(6, 4)).specialize("t", "q")


def test_coefficient_table():
    # one row (e_q, e_t, e_z, num, den) per term, in canonical order
    f = M.fermionic_index(1, Truncation(4, 3))
    expected = [[m.e_q, m.e_t, m.e_z, c, 1] for m, c in f.terms()]
    assert expected[0] == [0, 0, 0, 1, 1]
    assert expected == sorted(expected)

    def table(fmt):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["table", "--rep", "fermionic", "--k", "1", "--nq", "4",
                             "--nt", "3", "--format", fmt]) == 0
        return out.getvalue()

    csv_text = table("csv")
    assert csv_text.splitlines()[0] == "0,0,0,1,1"
    assert csv_text == "".join(",".join(map(str, row)) + "\n" for row in expected)
    obj = json.loads(table("json"))
    assert obj == {"columns": ["e_q", "e_t", "e_z", "num", "den"], "rows": expected}


def test_representation_builders():
    # each --rep name in REPRESENTATIONS has a builder <name>_index, and
    # every builder rejects k < 1 itself
    assert M.REPRESENTATIONS == ("bosonic", "fermionic", "fermionic2", "original")
    for rep in M.REPRESENTATIONS:
        with pytest.raises(DomainError):
            getattr(M, f"{rep}_index")(0, TR)
