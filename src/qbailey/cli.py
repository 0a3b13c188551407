"""Command-line entry point.

Subcommands: verify (run one identity check), table (coefficient table
export), selftest (the classical-identity layer at fixed seeds).

Exit codes are the untyped contract: 0 pass, 1 mathematical mismatch,
2 usage error.  All output is produced after computation completes and
reports serialize with sorted keys, so repeated runs are byte-identical
up to the recorded wall times.  No report is built or timed here: a
comparison goes through `report._compare`, whose clock starts before it
builds the two sides, and a chain of sub-checks through
`report._first_failure`.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import bailey, hypergeometric as hg, macdonald, qfunctions
from .errors import DomainError, QBaileyError
from .report import IdentityReport, _compare, _first_failure, _fmt, value_mismatch
from .series import Truncation

FIXED_POINT = {"q": Fraction(2, 3), "t": Fraction(3, 5), "s": Fraction(5, 7)}


def _parse_rational_list(text: str, k: int, what: str) -> list[Fraction]:
    if not text:
        return [Fraction(0)] * k
    try:
        vals = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{what} is not a list of rationals: {text!r}")
    if len(vals) != k:
        raise DomainError(f"{what} needs {k} comma-separated rationals")
    return vals


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


# -- verify runners ----------------------------------------------------
# A runner's keyword-only parameters are the flags its id reads, with
# their defaults; it looks public builders up per call, as `_index` does.


def _index_pair(left: str, right: str):
    """An id that compares two index representations, named for `_index`."""
    def _run(identity, *, k=1, nq=8, nt=6):
        trunc = Truncation(nq, nt)
        return [_compare(identity, lambda: (_index(left, k, trunc), _index(right, k, trunc)),
                         {"k": k, "lhs": left, "rhs": right})]
    return _run


def _grid_reports(identity: str, sides, names: tuple[str, ...], lmax: int, nmax: int,
                  points: int, seed: int | None) -> list[IdentityReport]:
    """One report per point, the fixed point and then `points` random ones
    (from an entropy seed if none is given): sides(l, n, point) compared
    over l <= lmax, n <= nmax, each (l, n) one sub-check labelled l and n."""
    def grid(point, sd):
        subchecks = (({"l": l, "n": n}, value_mismatch(*sides(l, n, point)), {})
                     for l in range(lmax + 1) for n in range(nmax + 1))
        return _first_failure(identity, {"lmax": lmax, "nmax": nmax,
                                         "point": point.describe()}, None, subchecks, sd)

    fixed = hg.RationalPoint({k: v for k, v in FIXED_POINT.items() if k in names})
    if seed is None:
        seed = random.SystemRandom().randrange(2 ** 32)
    return [grid(fixed, None)] + hg.run_at_random_points(grid, names, points, seed)


def _lemma_b1(identity, *, lmax=4, nmax=4, points=10, seed=None):
    return _grid_reports(identity, hg.expansion_coeff_sides, ("q", "t"),
                         lmax, nmax, points, seed)


def _appx_c(identity, *, lmax=4, nmax=4, points=10, seed=None):
    return _grid_reports(identity, hg.wp_expansion_coeff_sides, ("q", "t", "s"),
                         lmax, nmax, points, seed)


def _conj_pair(identity, *, nmax=4, nq=8, nt=6):
    gamma, delta = bailey.hermite_conjugate_pair(Truncation(nq, nt))
    return [bailey.verify_conjugate_pair(gamma, delta, nmax)]


def _wp(identity, *, nmax=4, nq=8, nt=6, ns=4):
    gamma_p, delta_p = bailey.wp_conjugate_pair(Truncation(nq, nt, ns))
    return [bailey.verify_wp_conjugate(gamma_p, delta_p, nmax),
            bailey.wp_collapse_check(gamma_p, delta_p, nmax)]


def _general(identity, *, k=1, b="", c="", nq=8, nt=6):
    bs, cs = _parse_rational_list(b, k, "--b"), _parse_rational_list(c, k, "--c")
    return [_compare("parametrized-duality",
                     lambda: macdonald.generalized_sides(k, bs, cs, Truncation(nq, nt)),
                     {"k": k, "b": [_fmt(x) for x in bs], "c": [_fmt(x) for x in cs]})]


def _special(identity, *, pair="seed", nq=8, nt=6):
    trunc = Truncation(nq, nt)
    alpha, beta = _parse_pair_id(pair, trunc)
    # every family is paired with the ordinary conjugate pair, which
    # the report names thm31
    gamma, delta = bailey.hermite_conjugate_pair(trunc)
    return [bailey.bailey_transform_check(alpha, beta, gamma, delta,
                                          {"pair": pair, "conjugate": "thm31"})]


def _multi_rr(identity, *, k=1, nq=8):
    return [_compare("multisum-rogers-ramanujan",
                     lambda: macdonald.multi_rogers_ramanujan(k, nq), {"k": k, "max_q": nq})]


# the verify ids, in `verify --help` order; cli-private runners only
_RUNNERS = {
    "thm-main": _index_pair("fermionic", "bosonic"),
    "thm-kks": _index_pair("fermionic", "fermionic2"),
    "thm-conj-pair": _conj_pair,
    "thm-wp": _wp,
    "thm-general": _general,
    "appx-a": _index_pair("original", "fermionic2"),
    "lemma-b1": _lemma_b1,
    "appx-c": _appx_c,
    "multi-rr": _multi_rr,
    "corollary-special": _special,
}


def _verify(args) -> list[IdentityReport]:
    """The reports of args.identity; args holds only the typed flags
    (their argparse default is SUPPRESS), and an unread one exits 2."""
    runner = _RUNNERS[args.identity]
    flags = {f: v for f, v in vars(args).items() if f not in ("command", "identity", "json", "fn")}
    unread = ", ".join(f"--{f}" for f in sorted(set(flags) - set(runner.__kwdefaults__)))
    if unread:
        raise DomainError(f"{args.identity} does not read {unread}")
    for flag in ("nq", "nt", "ns", "nmax", "lmax", "points"):
        if flags.get(flag, 0) < 0:
            raise DomainError(f"--{flag} must be >= 0")
    if flags.get("k", 1) < 1:
        raise DomainError("k must be >= 1")
    return runner(args.identity, **flags)


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
    }
    for name, extra in classical_points.items():
        for n in (0, 3, 5):
            def check(point, sd, name=name, n=n):
                return _compare(f"classical-{name}", lambda: hg.classical_sides(name, point, n),
                                {"n": n, "point": point.describe()}, sd)
            reports.extend(hg.run_at_random_points(
                check, ("q",) + extra, 3, seed + n))

    def heine(point, sd):
        # a series identity: only a comes from the point, and n plays no part
        a = point["a"]
        return _compare("classical-heine-1", lambda: hg.heine1_sides(a, Truncation(8, 8, 8)),
                        {"a": _fmt(a)}, sd)
    reports.extend(hg.run_at_random_points(heine, ("q", "a"), 3, seed))

    def grid(identity, rows, cols, sides, point=None):
        # one report per (i, j), row by row, over rows = (name, range)
        # and cols, labelled by both names and, if given, the point
        (row, row_range), (col, col_range) = rows, cols
        for i in row_range:
            for j in col_range:
                params = {row: i, col: j}
                if point is not None:
                    params["point"] = point.describe()
                reports.append(_compare(identity, lambda: sides(i, j), params))

    grid("s-closed-form", ("d", range(-4, 5)), ("n", range(3)),
         lambda d, n: (hg.s_sum(d, n, fixed_qt), hg.s_closed(d, n, fixed_qt)), fixed_qt)
    grid("s-symmetry", ("l", range(3)), ("n", range(3)),
         lambda l, n: hg.s_symmetry_sides(l, n, fixed_qt), fixed_qt)
    trunc = Truncation(8, 6, 4)
    grid("hermite-orthogonality", ("m", range(4)), ("n", range(4)),
         lambda m, n: (qfunctions.hermite_inner(m, n, trunc),
                       qfunctions.hermite_inner_closed(m, n, trunc)))
    grid("ultraspherical-orthogonality", ("m", range(3)), ("n", range(3)),
         lambda m, n: (qfunctions.ultraspherical_inner(m, n, trunc),
                       qfunctions.ultraspherical_inner_closed(m, n, trunc)))
    grid("hermite-linearization", ("m", range(5)), ("n", range(5)),
         lambda m, n: (qfunctions.hermite_linearize(m, n, trunc),
                       qfunctions.hermite(m, trunc) * qfunctions.hermite(n, trunc)))
    reports.append(_compare("weight-expansion", lambda: qfunctions.weight_expansion_sides(trunc),
                            {}))
    grid("expansion-coeff-closed-form", ("n", range(3)), ("l", range(4)),
         lambda n, l: (qfunctions.hermite_expansion_coeff(n, l, trunc),
                       qfunctions.hermite_expansion_coeff_closed(n, l, trunc)))
    for n in range(4):
        # B_n does not depend on n': one report, paired with each Phi_{n,n'}
        b_report = _compare("b-eva", lambda: (hg.b_defining_sum(n, trunc), hg.b_closed(n, trunc)),
                            {"n": n})
        for nprime in range(4):
            reports += [b_report, _compare(
                "phi-eva",
                lambda: (hg.phi_defining_sum(n, nprime, trunc), hg.phi_closed(n, nprime, trunc)),
                {"n": n, "nprime": nprime})]
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


def _cmd_table(args) -> int:
    if args.k < 1:
        raise DomainError("k must be >= 1")
    trunc = Truncation(args.nq, args.nt)
    rep = args.rep
    if rep in macdonald.REPRESENTATIONS:
        series = _index(rep, args.k, trunc)
    elif rep == "schur":
        if args.nq > args.nt:
            raise DomainError("--rep schur requires nq <= nt")
        series = macdonald.fermionic_index(args.k, trunc).specialize("t", "q")
    else:                               # hall-littlewood
        series = macdonald.fermionic_index(args.k, trunc).specialize("q", 0)
    # one row (e_q, e_t, e_z, num, den) per term in canonical monomial
    # order; an index series carries no s
    rows = [(mono.e_q, mono.e_t, mono.e_z, coeff.numerator, coeff.denominator)
            for mono, coeff in series.terms()]
    if args.format == "csv":
        text = "".join(f"{eq},{et},{ez},{num},{den}\n" for eq, et, ez, num, den in rows)
    else:
        text = json.dumps({"columns": ["e_q", "e_t", "e_z", "num", "den"], "rows": rows},
                          sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write the table: {exc}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps
    no state between calls, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qbailey",
        description="Exact verification of q-series identities and the "
                    "index representations they connect.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one identity check",
                              argument_default=argparse.SUPPRESS)
    p_verify.add_argument("identity", choices=_RUNNERS)
    for flag in ("--k", "--nq", "--nt", "--ns", "--nmax", "--lmax", "--points", "--seed"):
        p_verify.add_argument(flag, type=int)
    p_verify.add_argument("--b", help="comma-separated rationals, e.g. 1/2,0")
    p_verify.add_argument("--c")
    p_verify.add_argument("--pair", help="seed or chain(k;b1,..,bk;c1,..,ck)")
    p_verify.add_argument("--json", action="store_true", default=False)
    p_verify.set_defaults(fn=lambda args: _emit_reports(_verify(args), args.json))

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
    p_self.add_argument("--seed", type=int, default=SELFTEST_SEED)
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(fn=lambda args: _emit_reports(selftest_reports(args.seed), args.json))

    return parser


def _attach_list_values(argv: list[str]) -> list[str]:
    """`--b -1/2` as `--b=-1/2`, and so for --c: argparse reads a
    separate value that starts with a minus sign and is not a plain
    number as an option, although a rational list may start with one."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--b", "--c") and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        # a --k or chain depth too large for a list fails its size check
        print(f"usage error: a size is too large: {type(exc).__name__} {exc}".rstrip(),
              file=sys.stderr)
        return 2
    except QBaileyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
