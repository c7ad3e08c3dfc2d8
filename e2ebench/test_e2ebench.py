#!/usr/bin/env python3
"""The benchmark's own checks: determinism of the model counts and
faithfulness of the traced replay.

    python3 e2ebench/test_e2ebench.py            # every workload
    python3 e2ebench/test_e2ebench.py churn grow # some of them

Run from the root of a checkout; it calls e2ebench/run.py, which builds on
first use.  For each workload:
  * two untraced runs with the same seed report exactly equal model counts
    (rounds_per_batch, max_machine_load_words, comm_words_per_update,
    memory_words_peak), and both pass the oracle;
  * a traced run passes the oracle, its shadow replay ends with sketch
    arenas, tree-edge set and comm ledger identical to the front end's,
    its front-end spans sum to within 5% of the front-end wall time, and
    it reports the tracing overhead.
Exits non-zero if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["churn", "grow", "serve", "matching"]
MODEL_COUNTS = ["rounds_per_batch", "max_machine_load_words",
                "comm_words_per_update", "memory_words_peak"]
SECONDS = "2"


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result


def values(result):
    return {k: v["value"] for k, v in result.get("metrics", {}).items()}


def check_workload(workload, failures):
    def expect(ok, what):
        print("  %s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append("%s: %s" % (workload, what))

    print(workload)
    code_a, first = run(workload, 7, 0)
    code_b, second = run(workload, 7, 0)
    expect(code_a == 0 and first.get("correct") is True,
           "first untraced run passes the oracle")
    expect(code_b == 0 and second.get("correct") is True,
           "second untraced run passes the oracle")
    a, b = values(first), values(second)
    for name in MODEL_COUNTS:
        expect(name in a and a.get(name) == b.get(name),
               "%s identical across runs (%s vs %s)"
               % (name, a.get(name), b.get(name)))

    code_t, traced = run(workload, 7, 1)
    t = values(traced)
    expect(code_t == 0 and traced.get("correct") is True,
           "traced run passes every check")
    expect(t.get("trace.replay_identical") == 1,
           "replay ends identical to the front end")
    coverage = t.get("trace.span_coverage", 0)
    expect(0.95 <= coverage <= 1.05,
           "front-end spans cover %.4f of the front-end wall time" % coverage)
    expect("trace.overhead_pct" in t,
           "tracing overhead reported (%.1f%% of wall, %.1f%% of front end)"
           % (t.get("trace.overhead_pct", 0),
              t.get("trace.frontend_overhead_pct", 0)))


def main():
    workloads = sys.argv[1:] or WORKLOADS
    failures = []
    for workload in workloads:
        check_workload(workload, failures)
    if failures:
        print("\n%d check(s) failed:" % len(failures))
        for f in failures:
            print("  " + f)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
