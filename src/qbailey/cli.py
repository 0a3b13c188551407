"""Command-line entry point.

Subcommands: verify (run one identity check), table (coefficient table
export), selftest (the classical-identity layer at fixed seeds).

Exit codes are the untyped contract: 0 pass, 1 mathematical mismatch,
2 usage error.  All output is produced after computation completes and
reports serialize with sorted keys, so repeated runs are byte-identical
up to the recorded wall times.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import bailey, hypergeometric as hg, macdonald, qfunctions
from .errors import DomainError, QBaileyError
from .report import IdentityReport, Stopwatch, series_report
from .series import Truncation

FIXED_POINT = {"q": Fraction(2, 3), "t": Fraction(3, 5), "s": Fraction(5, 7)}

IDENTITY_IDS = ("thm-main", "thm-kks", "thm-conj-pair", "thm-wp", "thm-general",
                "appx-a", "lemma-b1", "appx-c", "multi-rr", "corollary-special")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational: {text!r}")


def _parse_rational_list(text: str, k: int, what: str) -> list[Fraction]:
    if not text:
        return [Fraction(0)] * k
    vals = [_parse_rational(part) for part in text.split(",")]
    if len(vals) != k:
        raise DomainError(f"{what} needs {k} comma-separated rationals")
    return vals


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return random.SystemRandom().randrange(2 ** 32)


def _parse_pair_id(text: str, trunc: Truncation):
    """Family identifier grammar: `seed` or `chain(k;b1,..,bk;c1,..,ck)`."""
    if text == "seed":
        return bailey.seed_pair(trunc)
    if text.startswith("chain(") and text.endswith(")"):
        body = text[len("chain("):-1]
        parts = body.split(";")
        if len(parts) != 3:
            raise DomainError(
                "chain identifier must look like chain(k;b1,..,bk;c1,..,ck)")
        try:
            k = int(parts[0])
        except ValueError:
            raise DomainError(f"chain depth must be an integer, got {parts[0]!r}")
        if k < 1:
            raise DomainError("chain depth k must be >= 1")
        b = _parse_rational_list(parts[1], k, "b")
        c = _parse_rational_list(parts[2], k, "c")
        alpha, beta = bailey.seed_pair(trunc)
        return bailey.chain_lift(alpha, beta, bailey.ChainParams.of(b, c), trunc)
    raise DomainError(f"unknown pair identifier {text!r}")


def _index(rep: str, k: int, trunc: Truncation):
    # the builder is looked up by name at call time, so a profiler that
    # rebinds the module's functions (perfbench/tracer.py) sees the call
    return getattr(macdonald, f"{rep}_index")(k, trunc)


# -- verify dispatch ---------------------------------------------------


def _index_pair_check(identity: str, k: int, trunc: Truncation,
                      left: str, right: str) -> list[IdentityReport]:
    watch = Stopwatch()
    lhs, rhs = (_index(rep, k, trunc) for rep in (left, right))
    return [series_report(identity, lhs, rhs,
                          {"k": k, "lhs": left, "rhs": right}, watch)]


def _grid_point_reports(check_grid, names, lmax, nmax, points, seed):
    fixed = hg.RationalPoint({k: v for k, v in FIXED_POINT.items() if k in names})
    return [check_grid(lmax, nmax, fixed, None)] + hg.run_at_random_points(
        lambda point, sd: check_grid(lmax, nmax, point, sd), names, points, seed)


def _coeff_sum_grid(check_fn, identity):
    def grid(lmax, nmax, point, seed):
        watch = Stopwatch()
        for l in range(lmax + 1):
            for n in range(nmax + 1):
                sub = check_fn(l, n, point, seed)
                if not sub.passed:
                    return IdentityReport(
                        identity, {"lmax": lmax, "nmax": nmax,
                                   "point": point.describe()},
                        None, "fail", {"l": l, "n": n, **sub.first_mismatch},
                        watch.ms(), {}, seed)
        return IdentityReport(identity,
                              {"lmax": lmax, "nmax": nmax, "point": point.describe()},
                              None, "pass", None, watch.ms(), {}, seed)
    return grid


def _verify(args) -> list[IdentityReport]:
    identity = args.identity
    nq, nt, ns = args.nq, args.nt, args.ns
    for flag in ("nmax", "lmax", "points"):
        if getattr(args, flag) < 0:
            raise DomainError(f"--{flag} must be >= 0")
    if identity in ("thm-main", "thm-kks", "thm-general", "appx-a", "multi-rr"):
        if args.k < 1:
            raise DomainError("k must be >= 1")
    if identity == "thm-main":
        return _index_pair_check(identity, args.k, Truncation(nq, nt),
                                 "fermionic", "bosonic")
    if identity == "thm-kks":
        return _index_pair_check(identity, args.k, Truncation(nq, nt),
                                 "fermionic", "fermionic2")
    if identity == "appx-a":
        return _index_pair_check(identity, args.k, Truncation(nq, nt),
                                 "original", "fermionic2")
    if identity == "thm-conj-pair":
        gamma, delta = bailey.hermite_conjugate_pair(Truncation(nq, nt))
        return [bailey.verify_conjugate_pair(gamma, delta, args.nmax)]
    if identity == "thm-wp":
        trunc = Truncation(nq, nt, ns)
        gamma_p, delta_p = bailey.wp_conjugate_pair(trunc)
        return [bailey.verify_wp_conjugate(gamma_p, delta_p, args.nmax),
                bailey.wp_collapse_check(trunc, args.nmax)]
    if identity == "thm-general":
        b = _parse_rational_list(args.b, args.k, "--b")
        c = _parse_rational_list(args.c, args.k, "--c")
        return [macdonald.generalized_identity(args.k, b, c, Truncation(nq, nt))]
    if identity == "corollary-special":
        trunc = Truncation(nq, nt)
        alpha, beta = _parse_pair_id(args.pair, trunc)
        if args.conjugate != "thm31":
            raise DomainError("the transform check uses the ordinary conjugate "
                              "pair; --conjugate must be thm31")
        gamma, delta = bailey.hermite_conjugate_pair(trunc)
        report = bailey.bailey_transform_check(alpha, beta, gamma, delta)
        report.params = {"pair": args.pair, "conjugate": args.conjugate}
        return [report]
    if identity == "lemma-b1":
        seed = _resolve_seed(args)
        return _grid_point_reports(
            _coeff_sum_grid(hg.expansion_coeff_check, "lemma-b1"),
            ("q", "t"), args.lmax, args.nmax, args.points, seed)
    if identity == "appx-c":
        seed = _resolve_seed(args)
        return _grid_point_reports(
            _coeff_sum_grid(hg.wp_expansion_coeff_check, "appx-c"),
            ("q", "t", "s"), args.lmax, args.nmax, args.points, seed)
    if identity == "multi-rr":
        return [macdonald.multi_rogers_ramanujan(args.k, nq)]
    raise DomainError(f"unknown identity {identity!r}")


# -- selftest ----------------------------------------------------------

SELFTEST_SEED = 47201


def selftest_reports(seed: int = SELFTEST_SEED) -> list[IdentityReport]:
    """The classical-identity layer at fixed seeds: classical sums and
    transformations, S_{d,n}, orthogonality, linearization, the weight
    expansion, expansion coefficients, and the B/Phi evaluations."""
    reports: list[IdentityReport] = []
    fixed_qt = hg.RationalPoint({"q": FIXED_POINT["q"], "t": FIXED_POINT["t"]})

    classical_points = {
        "pfaff-saalschutz": ("a", "b", "c"),
        "chu-vandermonde-2": ("a", "c"),
        "qbinomial-theorem": ("z",),
        "sixphi5": ("a", "b", "c"),
        "heine-1": ("a",),
    }
    for name, extra in classical_points.items():
        for n in (0, 3, 5):
            def check(point, sd, name=name, n=n):
                return hg.classical_check(name, point, n, sd)
            reports.extend(hg.run_at_random_points(
                check, ("q",) + extra, 3, seed + n))
            if name == "heine-1":
                break   # the series check does not depend on n

    for d in range(-4, 5):
        for n in range(3):
            reports.append(hg.s_closed_check(d, n, fixed_qt))
    for l in range(3):
        for n in range(3):
            reports.append(hg.s_symmetry_check(l, n, fixed_qt))

    trunc = Truncation(8, 6, 4)
    watch = Stopwatch()
    for m in range(4):
        for n in range(4):
            reports.append(series_report(
                "hermite-orthogonality",
                qfunctions.hermite_inner(m, n, trunc),
                qfunctions.hermite_inner_closed(m, n, trunc),
                {"m": m, "n": n}, watch))
    watch = Stopwatch()
    for m in range(3):
        for n in range(3):
            reports.append(series_report(
                "ultraspherical-orthogonality",
                qfunctions.ultraspherical_inner(m, n, trunc),
                qfunctions.ultraspherical_inner_closed(m, n, trunc),
                {"m": m, "n": n}, watch))
    watch = Stopwatch()
    for m in range(5):
        for n in range(5):
            reports.append(series_report(
                "hermite-linearization",
                qfunctions.hermite_linearize(m, n, trunc),
                qfunctions.hermite(m, trunc) * qfunctions.hermite(n, trunc),
                {"m": m, "n": n}, watch))
    watch = Stopwatch()
    lhs, rhs = qfunctions.weight_expansion_sides(trunc)
    reports.append(series_report("weight-expansion", lhs, rhs, {}, watch))
    watch = Stopwatch()
    for n in range(3):
        for l in range(4):
            reports.append(series_report(
                "expansion-coeff-closed-form",
                qfunctions.hermite_expansion_coeff(n, l, trunc),
                qfunctions.hermite_expansion_coeff_closed(n, l, trunc),
                {"n": n, "l": l}, watch))
    for n in range(4):
        for nprime in range(4):
            reports.extend(hg.b_phi_check(n, nprime, trunc))
    return reports


# -- subcommand runners ------------------------------------------------


def _emit_reports(reports: list[IdentityReport], as_json: bool) -> int:
    if as_json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.summary_line())
        n_fail = sum(1 for r in reports if not r.passed)
        print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify(args) -> int:
    return _emit_reports(_verify(args), args.json)


def _cmd_table(args) -> int:
    if args.k < 1:
        raise DomainError("k must be >= 1")
    trunc = Truncation(args.nq, args.nt)
    rep = args.rep
    if rep in macdonald.REPRESENTATIONS:
        series = _index(rep, args.k, trunc)
    else:                               # schur or hall-littlewood
        if rep == "schur" and args.nq > args.nt:
            raise DomainError("--rep schur requires nq <= nt")
        series = macdonald.specialize_index(macdonald.fermionic_index(args.k, trunc), rep)
    rows = macdonald.coefficient_rows(series)
    if args.format == "csv":
        text = macdonald.rows_to_csv(rows)
    else:
        text = json.dumps(macdonald.rows_to_json_obj(rows), sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write the table: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else SELFTEST_SEED
    return _emit_reports(selftest_reports(seed), args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbailey",
        description="Exact verification of q-series identities and the "
                    "index representations they connect.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one identity check")
    p_verify.add_argument("identity", choices=IDENTITY_IDS)
    p_verify.add_argument("--k", type=int, default=1)
    p_verify.add_argument("--nq", type=int, default=8)
    p_verify.add_argument("--nt", type=int, default=6)
    p_verify.add_argument("--ns", type=int, default=4)
    p_verify.add_argument("--nmax", type=int, default=4)
    p_verify.add_argument("--lmax", type=int, default=4)
    p_verify.add_argument("--points", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--b", type=str, default="",
                          help="comma-separated rationals, e.g. 1/2,0")
    p_verify.add_argument("--c", type=str, default="")
    p_verify.add_argument("--pair", type=str, default="seed",
                          help="seed or chain(k;b1,..,bk;c1,..,ck)")
    p_verify.add_argument("--conjugate", type=str, default="thm31",
                          help="thm31, the ordinary conjugate pair")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=_cmd_verify)

    p_table = sub.add_parser("table", help="export a coefficient table")
    p_table.add_argument("--k", type=int, default=1)
    p_table.add_argument("--rep", type=str, required=True,
                         choices=list(macdonald.REPRESENTATIONS)
                         + ["schur", "hall-littlewood"])
    p_table.add_argument("--nq", type=int, default=8)
    p_table.add_argument("--nt", type=int, default=6)
    p_table.add_argument("--format", type=str, default="csv",
                         choices=["csv", "json"])
    p_table.add_argument("--output", type=str, default=None)
    p_table.set_defaults(fn=_cmd_table)

    p_self = sub.add_parser("selftest", help="run the classical-identity layer")
    p_self.add_argument("--seed", type=int, default=None)
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QBaileyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
