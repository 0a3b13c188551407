"""CLI contract tests: exit codes, formats, determinism, fault
injection."""

import json
from fractions import Fraction

import pytest
from test_hypergeometric import reference_inv_poch_value, reference_poch_value
from test_macdonald import _clear_caches

from qbailey import cli
from qbailey import hypergeometric as hg
from qbailey.series import TruncatedSeries


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
    # every rational-point report must come out the same when poch_value
    # and inv_poch_value are the frozen factor-by-factor loops instead
    def outputs():
        out = []
        for identity in ("lemma-b1", "appx-c"):
            code, text, _ = run(capsys, ["verify", identity, "--lmax", "3",
                                         "--nmax", "3", "--points", "4",
                                         "--seed", "5", "--json"])
            out.append((code, strip_wall_time(json.loads(text))))
        point = hg.RationalPoint({"q": Fraction(2, 3), "t": Fraction(3, 5)})
        out += [strip_wall_time(hg.s_symmetry_check(l, n, point).to_dict())
                for l in range(3) for n in range(3)]
        return json.dumps(out, sort_keys=True)

    tables = outputs()
    monkeypatch.setattr(hg, "poch_value", reference_poch_value)
    monkeypatch.setattr(hg, "inv_poch_value", reference_inv_poch_value)
    assert outputs() == tables


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


def test_verify_pair_grammar_errors(capsys):
    code, _, err = run(capsys, ["verify", "corollary-special",
                                "--pair", "chain(2;0;0)"])
    assert code == 2 and "rationals" in err
    code, _, err = run(capsys, ["verify", "corollary-special",
                                "--pair", "mystery"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "corollary-special",
                                "--conjugate", "thm61"])
    assert code == 2


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
    _clear_caches()
    code, out, _ = run(capsys, argv)
    assert code == 0 and "FAIL" not in out
    assert calls == []


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
])
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err
    assert "PASS" not in out
