#!/usr/bin/env python3
"""Benchmark self-test: every workload at tiny n, in seconds.

    python3 perfbench/selftest.py

Builds the bench binary like run.py, then runs each workload once untraced and
once traced with --tiny. Each run must pass every check the full benchmark
applies (fingerprint repeats, round cap, quality floor, trace
reconciliation), report exactly the metric names and units BENCHMARK.json
lists for its mode, and reproduce the tiny fingerprint perfbench/ledger.json
records for seed 1. The traced and untraced processes must also agree on the
fingerprint, since tracing only observes. Exits non-zero on any failure.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 1


def main():
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    problems = []
    try:
        binary = run.build()
        for w in (w["name"] for w in spec["workloads"]):
            before = len(problems)
            prints = set()
            for trace in (0, 1):
                res = run.verify(run.run_bench(binary, w, SEED, 0, trace, tiny=True), trace,
                                 tiny=True)
                prints.add(res["fingerprint"])
                if not res["correct"] or res["failures"]:
                    problems.append("%s trace=%d: %s" % (w, trace, res["failures"]))
                if res["attempted"] < 1:
                    problems.append("%s trace=%d: nothing attempted" % (w, trace))
            if run.recorded_fingerprint(w, SEED, tiny=True) is None:
                problems.append("%s: ledger records no tiny fingerprint for seed %d" % (w, SEED))
            if len(prints) != 1:
                problems.append("%s: traced and untraced fingerprints differ: %s"
                                % (w, sorted(prints)))
            print("%-14s %s %s" % (w, "ok" if len(problems) == before else "FAILED",
                                   sorted(prints)))
    except run.BenchError as e:
        problems.append(str(e))
    for p in problems:
        print("FAILED: %s" % p)
    print(json.dumps({"selftest": "pass" if not problems else "fail"}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
