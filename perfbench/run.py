#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
stand-alone bench binary (perfbench/CMakeLists.txt: the library sources plus
perfbench/bench.cpp) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only check the build is current.

The binary runs the workload in a process of its own, so its peak RSS
belongs to that workload alone. It checks every repetition itself
(fingerprint repeats, round cap, quality floor, and with --trace 1 the trace
reconciliation). This wrapper adds two checks: the fingerprint must equal
the one perfbench/ledger.json records for the seed, when it records one, and
the metric names and units must be exactly those BENCHMARK.json lists for
the mode (end_to_end with --trace 0, per_layer with --trace 1).

Progress and a readable metric table go to stdout first; the last line is
the result: {"correct", "attempted", "failed", "metrics"}. A build failure,
a crash of the binary or a malformed result exits non-zero without a result line.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEDGER = os.path.join(HERE, "ledger.json")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the bench binary; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no library sources: %s/src is missing" % ROOT)
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bzc_perfbench", "-j4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("build timed out: %s" % " ".join(cmd))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: %s" % " ".join(cmd))
    binary = os.path.join(out, "bzc_perfbench")
    if not os.path.exists(binary):
        raise BenchError("build produced no %s" % binary)
    return binary


def run_bench(binary, workload, seed, seconds, trace, tiny=False):
    """Runs the bench binary once and returns its parsed result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    # Tracing knobs in the environment would install sinks of their own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BZC_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("bench binary timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("bench binary exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("bench binary printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("bench binary's last line is not JSON: %r" % lines[-1][:200])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def expected_metrics(trace):
    """name -> unit for the mode, from BENCHMARK.json."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def recorded_fingerprint(workload, seed, tiny=False):
    """The ledger's fingerprint for (workload, seed), or None if unrecorded."""
    if not os.path.exists(LEDGER):
        return None
    entry = load_json(LEDGER).get("workloads", {}).get(workload, {})
    table = entry.get("tiny_fingerprints" if tiny else "fingerprints", {})
    return table.get(str(seed))


def verify(res, trace, tiny=False):
    """Applies the wrapper's checks; returns the result with failures added."""
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError("metric set differs from BENCHMARK.json: missing %s, extra %s, units %s"
                         % (missing, extra, units))
    recorded = recorded_fingerprint(res["workload"], res["seed"], tiny)
    if recorded is not None and recorded != res["fingerprint"]:
        res["failures"].append("fingerprint %s != recorded %s for seed %s"
                               % (res["fingerprint"], recorded, res["seed"]))
        # Every repetition reproduced the wrong outputs, so none counts.
        res["failed"] = res["attempted"]
        res["correct"] = False
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        binary = build()
        res = verify(run_bench(binary, args.workload, args.seed, args.seconds, args.trace),
                     args.trace)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print("workload=%s seed=%d trace=%d fingerprint=%s attempted=%d failed=%d"
          % (args.workload, args.seed, args.trace, res["fingerprint"], res["attempted"],
             res["failed"]))
    for failure in res["failures"]:
        print("FAILED: %s" % failure)
    for name, m in sorted(res["metrics"].items()):
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
