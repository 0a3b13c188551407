"""One measured qbailey process.

Reads a JSON job from stdin: {"argv": [[...], ...], "spawned": t,
"setup_only": bool, "traced": bool, "spans_out": path or null}.
`spawned` is the parent's CLOCK_MONOTONIC reading taken just before this
process started.  The child imports qbailey and reads its inputs; that is
the set-up, and a setup_only child stops there.  It then runs every
argument vector once through `qbailey.cli.main` (the cold pass: every
module-level memo table starts empty) and, unless traced, runs the list
again in the same process (the warm pass).  Before each check and after
the last one it times the reference loop of calibrate.py, so the parent
can scale each phase's wall time by the machine's speed during that
phase.  It prints one JSON object with the timings, the loop timings,
the peak resident set size and every check's exit code and captured
output; the parent judges correctness.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import qbailey.cli


def run_pass(argvs, loop_s):
    """Run every check; return (wall seconds, reference-loop seconds,
    per-check results)."""
    results = []
    wall = 0.0
    loops = []
    for argv in argvs:
        loops += loop_s()
        out, err = io.StringIO(), io.StringIO()
        exc = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = qbailey.cli.main(argv)
            except (Exception, SystemExit) as e:    # the parent counts it as a failed check
                rc, exc = None, f"{type(e).__name__}: {e}"
        wall += time.perf_counter() - start
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "exc": exc})
    loops += loop_s()
    return wall, statistics.median(loops), results


def main() -> None:
    job = json.loads(sys.stdin.read())
    setup_s = time.monotonic() - job["spawned"]

    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    if not os.path.realpath(qbailey.cli.__file__).startswith(src + os.sep):
        sys.exit(f"qbailey was imported from {qbailey.cli.__file__}, not from {src}")
    from calibrate import loop_samples    # after the set-up, which it is not part of

    report = {"setup_s": setup_s, "loop_s": {"setup": statistics.median(loop_samples())}}
    if job["setup_only"]:
        print(json.dumps(report))
        return

    tracer = None
    if job["traced"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    report["cold_s"], report["loop_s"]["cold"], report["cold"] = run_pass(job["argv"], loop_samples)
    if tracer is None:
        report["warm_s"], report["loop_s"]["warm"], report["warm"] = run_pass(job["argv"], loop_samples)
    else:
        report["layers"] = tracer.reduce(report["cold_s"])
        if job["spans_out"]:
            tracer.write(job["spans_out"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
