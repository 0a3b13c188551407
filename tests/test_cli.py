"""CLI contract tests: exit codes, formats, determinism, fault
injection."""

import contextlib
import io
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import clear_caches
from hypothesis import given, settings
from hypothesis import strategies as st
from test_hypergeometric import reference_inv_poch_value, reference_poch_value

from qbailey import cli, report
from qbailey import hypergeometric as hg
from qbailey.series import TruncatedSeries, Truncation


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: strip_wall_time(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [strip_wall_time(v) for v in obj]
    return obj


def test_verify_pass_and_usage_errors(capsys):
    code, out, _ = run(capsys, ["verify", "thm-main", "--k", "1",
                                "--nq", "6", "--nt", "4"])
    assert code == 0
    assert "[PASS] thm-main" in out

    code, _, err = run(capsys, ["verify", "thm-main", "--k", "0"])
    assert code == 2
    assert "k must be >= 1" in err

    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "not-an-identity"])
    assert exc.value.code == 2


def test_verify_json_roundtrip(capsys):
    code, out, _ = run(capsys, ["verify", "multi-rr", "--k", "2",
                                "--nq", "16", "--json"])
    assert code == 0
    parsed = json.loads(out)
    assert isinstance(parsed, list) and parsed[0]["status"] == "pass"
    assert json.dumps(parsed, sort_keys=True) == out.strip()


def test_verify_determinism_modulo_wall_time(capsys):
    argv = ["verify", "lemma-b1", "--lmax", "3", "--nmax", "3",
            "--points", "3", "--seed", "42", "--json"]
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, argv)
        assert code == 0
        reports = json.loads(out)
        for r in reports:
            r["wall_time_ms"] = None
        outs.append(json.dumps(reports, sort_keys=True))
    assert outs[0] == outs[1]


def test_rational_points_match_reference_loops(capsys, monkeypatch):
    # every rational-point report must come out the same when the pair
    # reader behind every Pochhammer factor is the frozen
    # factor-by-factor loops instead.  Every factor must reach them:
    # swapped, the loops run as often as the live reader did, for each
    # kind, and no point the run builds holds a prefix table, while live
    # every point that read a factor does.  A sum that read a table
    # without the reader would otherwise pass vacuously.
    post_init = hg.RationalPoint.__post_init__

    def frozen_pair(a, n, point, inverse):
        ref = reference_inv_poch_value if inverse else reference_poch_value
        value = ref(Fraction(*a), n, point)
        return value.numerator, value.denominator

    def outputs(pair_reader):
        calls, points, readers = Counter(), [], {}

        def read(a, n, point, inverse):
            calls["inverse" if inverse else "product"] += 1
            readers[id(point)] = point
            return pair_reader(a, n, point, inverse)

        def built(point):
            points.append(point)
            post_init(point)

        monkeypatch.setattr(hg, "_poch_pair", read)
        monkeypatch.setattr(hg.RationalPoint, "__post_init__", built)
        out = []
        for identity in ("lemma-b1", "appx-c"):
            code, text, _ = run(capsys, ["verify", identity, "--lmax", "3",
                                         "--nmax", "3", "--points", "4",
                                         "--seed", "5", "--json"])
            out.append((code, strip_wall_time(json.loads(text))))
        point = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5)})
        sides = [hg.s_symmetry_sides(l, n, point) for l in range(3) for n in range(3)]
        sides += [(hg.s_sum(d, n, point), hg.s_closed(d, n, point))
                  for d in range(-3, 4) for n in range(3)]
        point = hg.RationalPoint({"q": Fraction(2, 3), "a": Fraction(3, 5),
                                  "b": Fraction(5, 7), "c": Fraction(7, 11),
                                  "z": Fraction(4, 9)})
        sides += [hg.classical_sides(name, point, n)
                  for name in ("pfaff-saalschutz", "chu-vandermonde-2",
                               "qbinomial-theorem", "sixphi5")
                  for n in (0, 3, 5)]
        assert all(lhs == rhs for lhs, rhs in sides)
        out += [[str(lhs), str(rhs)] for lhs, rhs in sides]
        return json.dumps(out, sort_keys=True), calls, points, readers.values()

    tables, live_calls, live_points, live_readers = outputs(hg._poch_pair)
    assert '"fail"' not in tables
    oracle_tables, oracle_calls, oracle_points, _ = outputs(frozen_pair)
    assert oracle_tables == tables
    assert live_calls["product"] > 0 and live_calls["inverse"] > 0
    assert oracle_calls["product"] == live_calls["product"]
    assert oracle_calls["inverse"] == live_calls["inverse"]
    assert live_readers and all(point._poch_tables for point in live_readers)
    assert len(oracle_points) == len(live_points) > 0
    assert not any(point._poch_tables for point in oracle_points)


def test_verify_seed_recorded_without_flag(capsys):
    code, out, _ = run(capsys, ["verify", "lemma-b1", "--lmax", "1",
                                "--nmax", "1", "--points", "1", "--json"])
    assert code == 0
    reports = json.loads(out)
    assert any(r["seed"] is not None for r in reports)


def test_verify_grid_ids(capsys):
    code, out, _ = run(capsys, ["verify", "appx-c", "--lmax", "2",
                                "--nmax", "2", "--points", "2", "--seed", "7"])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "thm-conj-pair", "--nq", "6",
                                "--nt", "6", "--nmax", "2"])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "thm-general", "--k", "1",
                                "--nq", "6", "--nt", "4", "--b", "1/2",
                                "--c", "0"])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "corollary-special",
                                "--pair", "chain(2;0,1/2;0,0)",
                                "--nq", "6", "--nt", "4"])
    assert code == 0


@pytest.mark.parametrize("identity, sides", [("lemma-b1", "expansion_coeff_sides"),
                                             ("appx-c", "wp_expansion_coeff_sides")])
def test_failing_grid_names_l_n_and_the_point(capsys, monkeypatch, identity, sides):
    # sides that differ at (l, n) = (2, 1) fail the grid of every point
    # there: the report names l and n beside the mismatch, keeps the
    # point in its params, and no later (l, n) of that point is run
    original = getattr(hg, sides)
    ran = []

    def failing(l, n, point):
        ran.append((l, n))
        return (Fraction(1), Fraction(0)) if (l, n) == (2, 1) else original(l, n, point)

    monkeypatch.setattr(hg, sides, failing)
    code, out, _ = run(capsys, ["verify", identity, "--lmax", "3", "--nmax", "3",
                                "--points", "2", "--seed", "5", "--json"])
    assert code == 1
    reports = json.loads(out)
    assert len(reports) == 3
    for r in reports:
        assert r["status"] == "fail" and r["identity"] == identity
        assert r["first_mismatch"] == {"l": 2, "n": 1, "monomial": [0, 0, 0, 0],
                                       "lhs": "1/1", "rhs": "0/1"}
        assert set(r["params"]) == {"lmax", "nmax", "point"}
        assert r["truncation"] is None and r["term_counts"] == {}
    fixed = {"q": "2/3", "t": "3/5", "s": "5/7"}
    assert reports[0]["params"]["point"] == {k: fixed[k] for k in ("q", "t", "s")
                                             if identity == "appx-c" or k != "s"}
    per_point = [(l, n) for l in range(3) for n in range(4)][:10]
    assert ran == per_point * 3


def test_grid_builds_one_report_per_point(capsys, monkeypatch):
    # each (l, n) of a point is compared as two values, with no report of
    # its own: two random points and the fixed one make three reports
    built = []

    class Counting(report.IdentityReport):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(report, "IdentityReport", Counting)
    code, out, _ = run(capsys, ["verify", "lemma-b1", "--lmax", "2", "--nmax", "2",
                                "--points", "2", "--seed", "5"])
    assert code == 0 and out.endswith("3/3 checks passed\n")
    assert len(built) == 3


def test_selftest_times_each_report_on_its_own_stopwatch(monkeypatch):
    # a stopwatch shared by a loop would charge the k-th report with the
    # time of all k checks; each distinct report starts its own
    started = []

    class Counting(report.Stopwatch):
        def __init__(self):
            started.append(1)
            super().__init__()

    monkeypatch.setattr(report, "Stopwatch", Counting)
    reports = cli.selftest_reports()
    assert len({id(r) for r in reports}) == 158
    assert len(started) == 158


def test_chain_deeper_than_the_recursion_limit(capsys):
    # the lift builds its levels iteratively, lowest first, so the chain
    # depth is not bounded by the interpreter's recursion limit
    depth = sys.getrecursionlimit() + 1
    code, out, _ = run(capsys, ["verify", "corollary-special",
                                "--pair", f"chain({depth};;)", "--nq", "4", "--nt", "4"])
    assert code == 0 and "[PASS] bailey-transform" in out


def test_rho_levels_deeper_than_the_recursion_limit(capsys):
    # the original form builds its rho products prefix by prefix in a
    # loop, so k is not bounded by the interpreter's recursion limit
    k = sys.getrecursionlimit() + 1
    code, out, _ = run(capsys, ["verify", "appx-a", "--k", str(k), "--nq", "0", "--nt", "0"])
    assert code == 0 and "[PASS] appx-a" in out


def test_verify_pair_grammar_errors(capsys):
    code, _, err = run(capsys, ["verify", "corollary-special",
                                "--pair", "chain(2;0;0)"])
    assert code == 2 and "rationals" in err
    code, _, err = run(capsys, ["verify", "corollary-special",
                                "--pair", "mystery"])
    assert code == 2


@pytest.mark.parametrize("value", ["thm31", "thm61"])
def test_conjugate_flag_is_a_usage_error(capsys, value):
    # the transform always uses the ordinary conjugate pair, so there is
    # no --conjugate flag; the report still names the pair thm31
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "corollary-special", "--conjugate", value])
    assert exc.value.code == 2
    code, out, _ = run(capsys, ["verify", "corollary-special", "--nq", "4", "--nt", "4",
                                "--json"])
    assert code == 0
    assert json.loads(out)[0]["params"] == {"pair": "seed", "conjugate": "thm31"}


def test_table_csv_and_equality_across_reps(capsys, tmp_path):
    code, out, _ = run(capsys, ["table", "--k", "1", "--rep", "fermionic",
                                "--nq", "4", "--nt", "3", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "0,0,0,1,1"

    f1 = tmp_path / "fermionic.csv"
    f2 = tmp_path / "bosonic.csv"
    assert cli.main(["table", "--k", "1", "--rep", "fermionic", "--nq", "4",
                     "--nt", "3", "--output", str(f1)]) == 0
    assert cli.main(["table", "--k", "1", "--rep", "bosonic", "--nq", "4",
                     "--nt", "3", "--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_table_json_mirrors_csv(capsys):
    code, out, _ = run(capsys, ["table", "--k", "1", "--rep", "fermionic",
                                "--nq", "3", "--nt", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    code, csv_out, _ = run(capsys, ["table", "--k", "1", "--rep", "fermionic",
                                    "--nq", "3", "--nt", "2", "--format", "csv"])
    csv_rows = [[int(x) for x in line.split(",")]
                for line in csv_out.splitlines()]
    assert obj["rows"] == csv_rows


def test_table_usage_errors(capsys):
    code, _, err = run(capsys, ["table", "--k", "1", "--rep", "schur",
                                "--nq", "5", "--nt", "3"])
    assert code == 2 and "schur" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--k", "1", "--rep", "wrong"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, ["table", "--k", "1", "--rep", "schur",
                                "--nq", "3", "--nt", "4"])
    assert code == 0


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "checks passed" in out


def test_selftest_passes_where_a_point_draws_a_second_terminator(capsys):
    # seed 46522 draws q = 4/2 and a = 2/16 = q^(-3) for a terminating sum
    code, out, _ = run(capsys, ["selftest", "--seed", "46522", "--json"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 170 and all(r["status"] == "pass" for r in reports)


# k = 10**19 does not fit an index and k = 2**63 - 1 fails the size check
# of a list of k Fractions, so both fail before anything is allocated
@pytest.mark.parametrize("argv", [
    ["verify", "thm-main", "--k", str(10 ** 19), "--nq", "1", "--nt", "1"],
    ["verify", "appx-a", "--k", str(10 ** 19)],
    ["table", "--rep", "original", "--k", str(10 ** 19)],
    ["verify", "thm-general", "--k", str(2 ** 63 - 1), "--nq", "1", "--nt", "1"],
    ["verify", "corollary-special", "--pair", f"chain({2 ** 63 - 1};;)"],
], ids=["thm-main", "appx-a", "table-original", "thm-general", "corollary-special"])
def test_huge_k_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: a size is too large") and "Traceback" not in err


def test_selftest_detects_mutation(capsys, monkeypatch):
    # corrupt H_4, which only the closed form of the B evaluation reads
    # (as H_{2n} at n = 2); the self test must fail and name the identity
    original = hg.hermite

    def corrupted(n, trunc):
        got = original(n, trunc)
        if n == 4:
            return got + TruncatedSeries.monomial(trunc, 1, e_q=1)
        return got

    monkeypatch.setattr(hg, "hermite", corrupted)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert "[FAIL]" in out and "b-eva" in out


_TABLE = ["--k", "2", "--nq", "14", "--nt", "10"]


@pytest.mark.parametrize("argv", [
    *(["verify", "thm-main", "--k", str(k), "--nq", "16", "--nt", "12"] for k in (1, 2, 3)),
    *(["verify", "thm-kks", "--k", str(k), "--nq", "12", "--nt", "10"] for k in (1, 2)),
    ["verify", "multi-rr", "--k", "1", "--nq", "40"],
    *(["table", "--rep", rep, *_TABLE] for rep in ("bosonic", "fermionic", "fermionic2")),
    *(["verify", "appx-a", "--k", str(k), "--nq", str(nq), "--nt", str(nt)]
      for k, nq, nt in ((1, 10, 8), (2, 7, 6), (3, 7, 4))),
    ["verify", "thm-general", "--k", "2", "--b", "2/3,7/4", "--c", "5/2,3/8",
     "--nq", "8", "--nt", "8"],
    ["verify", "thm-conj-pair", "--nmax", "4", "--nq", "8", "--nt", "8"],
    ["verify", "thm-wp", "--nmax", "3", "--nq", "6", "--nt", "6", "--ns", "4"],
    pytest.param(["verify", "thm-wp", "--nmax", "2", "--nq", "6", "--nt", "6", "--ns", "0"],
                 id="verify-thm-wp-ns0"),
    ["verify", "corollary-special", "--pair", "seed", "--nq", "8", "--nt", "8"],
    ["verify", "corollary-special", "--pair", "chain(2;3/2,4/9;6/5,2/7)",
     "--nq", "8", "--nt", "8"],
    ["selftest"],
], ids=lambda argv: "-".join(argv[:2]))
def test_no_series_inversion_on_the_hot_paths(capsys, monkeypatch, argv):
    # every Pochhammer inverse comes from inv_poch's binomial divisions
    # or Euler's series, also where s is absent (--ns 0); no series is
    # inverted (caches are cleared, so every builder runs)
    calls = []
    invert = TruncatedSeries.invert
    monkeypatch.setattr(TruncatedSeries, "invert", lambda self: calls.append(1) or invert(self))
    clear_caches()
    code, out, _ = run(capsys, argv)
    assert code == 0 and "FAIL" not in out
    assert calls == []


# argvs that type flags their identity does not read, and those flags
UNREAD_FLAGS = [
    (["verify", "thm-general", "--k", "2", "--pair", "chain(2;1/2,1/3;1/4,1/5)"], "--pair"),
    (["verify", "thm-main", "--k", "2", "--nmax", "99", "--points", "7", "--b", "5",
      "--lmax", "3"], "--b, --lmax, --nmax, --points"),
    (["verify", "lemma-b1", "--nq", "500", "--k", "9", "--lmax", "1", "--nmax", "1",
      "--points", "0"], "--k, --nq"),
    (["verify", "multi-rr", "--k", "1", "--nq", "10", "--nt", "5"], "--nt"),
    (["verify", "thm-conj-pair", "--k", "0", "--nq", "4", "--nt", "4", "--nmax", "1"], "--k"),
]


@pytest.mark.parametrize("argv", [
    ["verify", "thm-main", "--nq", "-1"],
    ["verify", "multi-rr", "--nq", "-5"],
    ["verify", "thm-wp", "--ns", "-1"],
    ["table", "--rep", "fermionic", "--nq", "-2"],
    ["verify", "corollary-special", "--pair", "chain(x;0;0)"],
    ["table", "--rep", "fermionic", "--nq", "2", "--nt", "2",
     "--output", "/nonexistent/x.csv"],
    ["verify", "thm-conj-pair", "--nmax", "-3"],
    ["verify", "lemma-b1", "--lmax", "-1"],
    ["verify", "appx-c", "--points", "-1"],
    *(argv for argv, _ in UNREAD_FLAGS),
])
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err
    assert "PASS" not in out


@pytest.mark.parametrize("argv, unread", UNREAD_FLAGS)
def test_unread_flags_are_named(capsys, argv, unread):
    # a typed flag the identity does not read would not be checked, so
    # the run stops before any check and names every such flag
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {argv[1]} does not read {unread}\n"


# -- the argument grammar, property-tested -----------------------------
#
# Every argument vector exits 0, 1 or 2 without a traceback; malformed
# pair ids, bad rationals, wrong list lengths and negative caps exit 2.
# Depths and caps stay small: a chain of depth k allocates k-long
# parameter lists.  --pair values go in as --pair=value, because argparse
# reads a separate value that starts with a minus sign as an option;
# --b and --c take either form.


def run_quiet(argv):
    # exit code and stderr of one in-process run, without capsys, which
    # hypothesis does not reset between examples; argparse's own usage
    # errors leave through SystemExit
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


GOOD_RATIONAL = st.one_of(st.integers(-9, 9).map(str),
                          st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)))
BAD_RATIONAL = st.sampled_from(["x", "1/0", "1//2", "1/", "/2", "1.2.3", "(1)", "nan", "inf"])


@st.composite
def rational_lists(draw, k):
    # (text, well_formed) for a --b/--c value or a chain's parameter list
    kind = draw(st.sampled_from(["zeros", "good", "length", "bad"]))
    if kind == "zeros":
        return "", True
    if kind == "good":
        return ",".join(draw(st.lists(GOOD_RATIONAL, min_size=k, max_size=k))), True
    if kind == "length":
        n = draw(st.integers(1, 4).filter(lambda n: n != k))
        return ",".join(draw(st.lists(GOOD_RATIONAL, min_size=n, max_size=n))), False
    items = draw(st.lists(GOOD_RATIONAL, min_size=k - 1, max_size=k - 1))
    items.insert(draw(st.integers(0, k - 1)), draw(BAD_RATIONAL))
    return ",".join(items), False


@st.composite
def pair_ids(draw):
    # (identifier, well_formed) for --pair
    kind = draw(st.sampled_from(["seed", "chain", "depth", "parts", "other"]))
    if kind == "seed":
        return "seed", True
    if kind == "depth":                 # not an integer, or below 1
        k = draw(st.sampled_from(["x", "", "1.5", "2/1"]) | st.integers(-3, 0).map(str))
        return f"chain({k};;)", False
    if kind == "parts":
        return draw(st.sampled_from(["chain()", "chain(1)", "chain(1;0)", "chain(1;0;0;0)"])), False
    if kind == "other":
        text = draw(st.text(max_size=12).filter(
            lambda t: t != "seed" and not (t.startswith("chain(") and t.endswith(")"))))
        return text, False
    k = draw(st.integers(1, 3))
    (b, b_ok), (c, c_ok) = draw(rational_lists(k)), draw(rational_lists(k))
    return f"chain({k};{b};{c})", b_ok and c_ok


def assert_exit(argv, well_formed):
    code, err = run_quiet(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if well_formed:
        assert code == 0, (argv, err)
    else:
        assert code == 2 and err.startswith("usage error:"), (argv, err)


@settings(max_examples=60, deadline=None)
@given(pair=pair_ids())
def test_pair_id_grammar(pair):
    text, well_formed = pair
    assert_exit(["verify", "corollary-special", f"--pair={text}", "--nq", "3", "--nt", "3"],
                well_formed)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), joined=st.booleans(), data=st.data())
def test_rational_list_grammar(k, joined, data):
    (b, b_ok), (c, c_ok) = data.draw(rational_lists(k)), data.draw(rational_lists(k))
    lists = [f"--b={b}", f"--c={c}"] if joined else ["--b", b, "--c", c]
    assert_exit(["verify", "thm-general", "--k", str(k), *lists, "--nq", "3", "--nt", "3"],
                b_ok and c_ok)


@pytest.mark.parametrize("separate, joined", [
    (["--k", "1", "--b", "-1/2", "--c", "0"], ["--k", "1", "--b=-1/2", "--c=0"]),
    (["--k", "2", "--c", "-1,2"], ["--k", "2", "--c=-1,2"]),
    (["--k", "2", "--b", "-3/4,-1", "--c", "-1/2,2"], ["--k", "2", "--b=-3/4,-1", "--c=-1/2,2"]),
], ids=["b-minus-half", "c-minus-one-two", "both"])
def test_list_may_start_with_a_minus_sign(capsys, separate, joined):
    # a separate list that starts with a minus sign is read as the value
    # of --b or --c, and prints what the --flag=value form prints
    caps = ["--nq", "5", "--nt", "4"]
    code, out, err = run(capsys, ["verify", "thm-general", *separate, *caps])
    assert (code, err) == (0, "")
    assert run(capsys, ["verify", "thm-general", *joined, *caps]) == (code, out, err)


def test_missing_list_value_stays_an_argparse_error(capsys):
    # an option in place of the list is not taken as its value
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "thm-general", "--k", "1", "--b", "--json"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; an argparse error, a usage
    # error raised after parsing and a passing run, called in turn, give
    # the same exit codes and output every time, and none leaves state
    # in the parser for the next call
    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    argvs = (["verify", "thm-main", "--k", "one"],
             ["verify", "thm-main", "--k", "0"],
             ["table", "--rep", "bosonic", "--k", "2", "--nq", "5", "--nt", "4"])
    first = [outcome(argv) for argv in argvs]
    assert [code for code, _, _ in first] == [2, 2, 0]
    assert "invalid int value" in first[0][2] and "k must be >= 1" in first[1][2]
    assert first[2][1].startswith("0,0,0,1,1\n")
    for _ in range(2):
        assert [outcome(argv) for argv in argvs] == first
    assert cli.build_parser() is cli.build_parser()


CAP_FLAGS = ("--nq", "--nt", "--ns", "--nmax", "--lmax", "--points")


VERIFY_FLAGS = sorted({f"--{flag}" for runner in cli._RUNNERS.values()
                       for flag in runner.__kwdefaults__})


@settings(max_examples=60, deadline=None)
@given(identity=st.sampled_from(list(cli._RUNNERS)), k=st.integers(1, 2),
       caps=st.lists(st.integers(-2, 3), min_size=len(CAP_FLAGS), max_size=len(CAP_FLAGS)),
       data=st.data())
def test_verify_cap_grammar(identity, k, caps, data):
    # --k, --seed and the caps the identity reads: a negative cap is a
    # usage error; one more flag that it does not read is a usage error
    # whatever the caps, and the error names that flag
    reads = {f"--{flag}" for flag in cli._RUNNERS[identity].__kwdefaults__}
    typed = [(flag, cap) for flag, cap in zip(("--k", "--seed", *CAP_FLAGS), (k, 1, *caps))
             if flag in reads]
    argv = ["verify", identity, *(x for flag, value in typed for x in (flag, str(value)))]
    assert_exit(argv, all(cap >= 0 for flag, cap in typed if flag in CAP_FLAGS))
    unread = data.draw(st.sampled_from([f for f in VERIFY_FLAGS if f not in reads]))
    code, err = run_quiet([*argv, unread, "1"])
    assert code == 2 and err == f"usage error: {identity} does not read {unread}\n"


@settings(max_examples=30, deadline=None)
@given(rep=st.sampled_from(["bosonic", "fermionic", "fermionic2", "original",
                            "hall-littlewood"]),
       k=st.integers(1, 2), nq=st.integers(-2, 4), nt=st.integers(-2, 4))
def test_table_cap_grammar(rep, k, nq, nt):
    argv = ["table", "--rep", rep, "--k", str(k), "--nq", str(nq), "--nt", str(nt)]
    assert_exit(argv, min(nq, nt) >= 0)

