"""qbailey benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark is a closed loop with one
client: it starts one fresh Python process at a time (perfbench/child.py),
single-threaded and pinned with this process to one CPU, and waits for it.
Each child imports qbailey from ./src, runs the workload's argument
vectors through `qbailey.cli.main` once cold and once warm, and reports
back.  Children are started until the next one would overrun --seconds
(at least MIN_CHILDREN of them), and every figure is the median over the
children.  Times are in reference seconds (see perfbench/calibrate.py);
the raw wall-time medians go to stderr.

--trace 0 prints the end-to-end metrics:
  setup_s      child start -> qbailey imported and inputs read
  cold_s       the cold pass over the list
  warm_s       the warm pass, same process
  peak_rss_mb  the child's peak resident set size after both passes
--trace 1 runs TRACED_CHILDREN traced children (cold pass only) beside
the untraced ones and prints the per-layer metrics of perfbench/tracer.py.

A check fails when it raises or exits non-zero, when its JSON report
list is empty or holds a status other than "pass", when its warm output
differs from its cold output (wall times aside), when a table differs
from the recorded digest, or when a traced run's output differs from the
untraced one.  The last stdout line is one JSON object with `correct`,
`attempted` (checks run, cold and warm counted apart), `failed` and
`metrics`; the argv of each failed check goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_CHILDREN = 3
SETUP_SAMPLES = 8       # extra set-up-only children per run, for a steadier setup_s
TRACED_CHILDREN = 2
RUN_LIMIT_S = 170       # a run must end within 180 s
END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
SPANS_DIR = ".perfbench_out"


def run_child(argvs, deadline: float, traced: bool = False, spans_out: str | None = None,
              setup_only: bool = False) -> dict:
    """Run one child to completion and return its report; kill it at
    the CLOCK_MONOTONIC `deadline`."""
    env = {k: v for k, v in os.environ.items() if k != "QBAILEY_THREADS"}
    env["PYTHONPATH"] = os.path.abspath("src")
    job = {"argv": argvs, "traced": traced, "spans_out": spans_out, "setup_only": setup_only}
    job["spawned"] = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "child.py")],
                          input=json.dumps(job), capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _normalized(text: str):
    """The JSON report list with wall times removed, or None if unparsable."""
    try:
        reports = json.loads(text)
    except ValueError:
        return None
    if not isinstance(reports, list):
        return None
    for r in reports:
        if isinstance(r, dict):
            r.pop("wall_time_ms", None)
    return reports


def check_failure(argv, result: dict, reference: dict | None) -> str | None:
    """Why one check run failed, or None when it passed.  `reference` is
    the same check's cold run to which this run's output must be equal."""
    if result["exc"] is not None:
        return f"raised {result['exc']}"
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['err'].strip()}"
    if argv[0] == "table":
        digest = hashlib.sha256(result["out"].encode()).hexdigest()
        if digest != workloads.TABLE_CSV_SHA256:
            return f"table CSV digest {digest} != recorded {workloads.TABLE_CSV_SHA256}"
        if reference is not None and result["out"] != reference["out"]:
            return "table output differs from the cold run"
        return None
    reports = _normalized(result["out"])
    if not reports:
        return "empty or unparsable JSON report list"
    bad = [r.get("status") for r in reports if not isinstance(r, dict) or r.get("status") != "pass"]
    if bad:
        return f"report status {bad[0]!r}"
    if reference is not None and reports != _normalized(reference["out"]):
        return "report differs from the cold run"
    return None


def judge(argvs, children, reference=None):
    """(attempted, failures) over every check run of every child.  A
    cold run must equal `reference` (cold results of another child) when
    given; a warm run must equal its own child's cold run."""
    attempted, failures = 0, []
    for child in children:
        passes = [("cold", child["cold"], reference)]
        if "warm" in child:
            passes.append(("warm", child["warm"], child["cold"]))
        for label, results, refs in passes:
            for i, argv in enumerate(argvs):
                attempted += 1
                why = check_failure(argv, results[i], refs[i] if refs else None)
                if why is not None:
                    failures.append((label, argv, why))
    return attempted, failures


def reference_s(child: dict, phase: str) -> float:
    """The child's wall time of `phase` (setup, cold or warm) in
    reference seconds."""
    return child[f"{phase}_s"] * calibrate.REFERENCE_LOOP_S / child["loop_s"][phase]


def median_of(children, key):
    return statistics.median(c[key] for c in children)


def run_timed(argvs, seconds, started, at_least=MIN_CHILDREN):
    """Untraced children until the next one would pass the deadline."""
    children, longest = [], 0.0
    while True:
        t0 = time.monotonic()
        children.append(run_child(argvs, started + RUN_LIMIT_S))
        longest = max(longest, time.monotonic() - t0)
        if len(children) >= at_least and time.monotonic() - started + longest > seconds:
            return children


def report_raw(children) -> None:
    """The raw wall-time and loop medians, for a reader to cross-check."""
    raw = [f"{phase}_s {median_of(children, phase + '_s'):.4f} "
           f"(loop {statistics.median(c['loop_s'][phase] for c in children):.5f})"
           for phase in ("cold", "warm") if phase in children[0]["loop_s"]]
    print(f"raw wall medians: {', '.join(raw)}; reference loop {calibrate.REFERENCE_LOOP_S}",
          file=sys.stderr)


def end_to_end(argvs, seconds, started):
    """(attempted, failures, correct, metrics) of an untraced run."""
    setups = [run_child(argvs, started + RUN_LIMIT_S, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    timed = run_timed(argvs, seconds, started)
    attempted, failures = judge(argvs, timed)
    report_raw(timed)
    metrics = {
        "setup_s": statistics.median(reference_s(c, "setup") for c in timed + setups),
        "cold_s": statistics.median(reference_s(c, "cold") for c in timed),
        "warm_s": statistics.median(reference_s(c, "warm") for c in timed),
        "peak_rss_mb": median_of(timed, "peak_rss_mb"),
    }
    return attempted, failures, True, {name: {"value": metrics[name], "unit": unit}
                                       for name, unit in END_TO_END.items()}


def per_layer(argvs, seconds, started, workload):
    """(attempted, failures, correct, metrics) of a traced run: traced
    children for the layer figures, untraced ones for trace.overhead."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    traced = [run_child(argvs, started + RUN_LIMIT_S, traced=True,
                        spans_out=os.path.join(SPANS_DIR, f"{workload}-{i}.spans"))
              for i in range(TRACED_CHILDREN)]
    timed = run_timed(argvs, seconds, started, at_least=1)
    attempted, failures = judge(argvs, timed)
    # tracing must not change a single output
    a, f = judge(argvs, traced, reference=timed[0]["cold"])
    attempted, failures = attempted + a, failures + f
    report_raw(timed)

    correct = True
    for name in tracer.EXACT_COUNTS:
        values = [c["layers"][name] for c in traced]
        if len(set(values)) != 1:
            print(f"exact-count self-check failed: {name} = {values}", file=sys.stderr)
            correct = False
    metrics = {}
    for name, unit in tracer.METRIC_UNITS.items():
        if name == "trace.overhead":
            value = (statistics.median(reference_s(c, "cold") for c in traced)
                     / statistics.median(reference_s(c, "cold") for c in timed) - 1)
        elif unit == "count":
            value = traced[0]["layers"][name]
        elif unit in ("s", "ns"):
            value = statistics.median(c["layers"][name] * reference_s(c, "cold") / c["cold_s"]
                                      for c in traced)
        else:
            value = statistics.median(c["layers"][name] for c in traced)
        metrics[name] = {"value": value, "unit": unit}
    return attempted, failures, correct, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and all its children
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join("src", "qbailey", "cli.py")):
        print("run from the repository root: src/qbailey is missing", file=sys.stderr)
        return 2

    started = time.monotonic()
    argvs = workloads.generate(args.workload, args.seed)
    try:
        if args.trace:
            result = per_layer(argvs, args.seconds, started, args.workload)
        else:
            result = end_to_end(argvs, args.seconds, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted, failures, correct, metrics = result

    for label, argv, why in failures:
        print(f"FAILED ({label}): {' '.join(argv)}: {why}", file=sys.stderr)
    print(json.dumps({"correct": correct and not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
