#!/usr/bin/env python3
"""Maintainer tool: steadiness proofs, recorded fingerprints, the baseline ledger.

    python3 perfbench/record.py spread
    python3 perfbench/record.py baseline

`spread` makes two sets of runs of the benchmark command (perfbench/run.py,
one fresh process per run): each set runs every workload once per seed 1-10
with --trace 0 and BENCHMARK.json's run_seconds. For every workload and
end-to-end metric it prints each set's median and the distance between its
first and third quartile as a share of the median (statistics.quantiles,
n=4), next to the metric's bound, and how far the second median moved from
the first. It fails when a run fails, a spread other than setup_s's exceeds
its bound, or a median moves the worse way by more than the bound. It
records the fingerprint of every correct run in perfbench/ledger.json, and
refuses to overwrite a different recorded value.

`baseline` runs each workload once untraced and once traced at the seed the
ledger names as measured, stores both metric sets as the baseline ledger,
records the tiny-n fingerprints the self-test checks, and names the machine.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SELFTEST_SEED = 1
SPREAD_SEEDS = range(1, 11)
SPREAD_SETS = 2


def bench_spec():
    return run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))


def load_ledger():
    return run.load_json(run.LEDGER)


def save_ledger(ledger):
    with open(run.LEDGER, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")


def bench_command(workload, seed, seconds, trace):
    """Runs the benchmark command; returns (fingerprint, result line)."""
    spec = bench_spec()
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise run.BenchError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    header = dict(kv.split("=", 1) for kv in lines[0].split())
    return header["fingerprint"], json.loads(lines[-1])


def record_fingerprint(ledger, workload, seed, fingerprint, key="fingerprints"):
    table = ledger["workloads"][workload].setdefault(key, {})
    old = table.get(str(seed))
    if old is not None and old != fingerprint:
        raise run.BenchError("%s seed %s: fingerprint %s != recorded %s"
                             % (workload, seed, fingerprint, old))
    table[str(seed)] = fingerprint


def run_set(workloads, seconds):
    """One run per (workload, seed); returns {workload: [result lines]} or None on a failure."""
    rows = {}
    for w in workloads:
        rows[w] = []
        for seed in SPREAD_SEEDS:
            t0 = time.monotonic()
            fp, res = bench_command(w, seed, seconds, 0)
            print("%s seed=%d correct=%s wall_s=%.4f run took %.1f s" % (
                w, seed, res["correct"], res["metrics"]["wall_s"]["value"],
                time.monotonic() - t0), flush=True)
            if not res["correct"]:
                return None
            ledger = load_ledger()
            record_fingerprint(ledger, w, seed, fp)
            save_ledger(ledger)
            rows[w].append(res)
    return rows


def spread(_args):
    spec = bench_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    for _ in range(SPREAD_SETS):
        rows = run_set(workloads, spec["run_seconds"])
        if rows is None:
            return 1
        sets.append(rows)
    ok = True
    print("%-14s %-18s %-8s %6s %12s %8s %12s %8s %8s" % (
        "workload", "metric", "unit", "bound", "median1", "spread1", "median2", "spread2",
        "moved"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for rows in sets:
                values = [r["metrics"][name]["value"] for r in rows[w]]
                q = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spreads.append((q[2] - q[0]) / medians[-1])
            moved = medians[-1] / medians[0] - 1
            worse = moved if m["better"] == "lower" else -moved
            bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
            ok = ok and not bad
            print("%-14s %-18s %-8s %6.3f %12.6g %8.4f %12.6g %8.4f %+8.4f%s" % (
                w, name, m["unit"], bound, medians[0], spreads[0], medians[-1], spreads[-1],
                moved, "  OUT OF BOUND" if bad else ""))
    return 0 if ok else 1


def cache_size(level):
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)):
        with open(os.path.join(base, index, "level")) as f:
            if f.read().strip() != str(level):
                continue
        with open(os.path.join(base, index, "type")) as f:
            if f.read().strip() == "Instruction":
                continue
        with open(os.path.join(base, index, "size")) as f:
            return f.read().strip()
    return "unknown"


def machine():
    info = {}
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            info.setdefault(key.strip(), value.strip())
    model = "%s (family %s, model %s)" % (info.get("model name"), info.get("cpu family"),
                                         info.get("model"))
    return {"cores": os.cpu_count(), "cpu_model": model, "l2_per_core": cache_size(2),
            "l3": cache_size(3), "os": platform.system() + " " + platform.release(),
            "build": "CMake Release, -O2"}


def baseline(_args):
    spec = bench_spec()
    ledger = load_ledger()
    binary = run.build()
    ledger["machine"] = machine()
    ledger["run_seconds"] = spec["run_seconds"]
    for w in (w["name"] for w in spec["workloads"]):
        entry = ledger["workloads"][w]
        seed = entry["measured_seed"]
        base = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            fp, res = bench_command(w, seed, spec["run_seconds"], trace)
            if not res["correct"]:
                raise run.BenchError("%s trace=%d failed at seed %d" % (w, trace, seed))
            record_fingerprint(ledger, w, seed, fp)
            base[key] = {n: m["value"] for n, m in sorted(res["metrics"].items())}
        entry["baseline"] = base
        tiny = run.run_bench(binary, w, SELFTEST_SEED, 0, 0, tiny=True)
        record_fingerprint(ledger, w, SELFTEST_SEED, tiny["fingerprint"], "tiny_fingerprints")
        print("%s: wall_s=%.4f" % (w, base["end_to_end"]["wall_s"]), flush=True)
    save_ledger(ledger)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("spread")
    sub.add_parser("baseline")
    args = ap.parse_args()
    try:
        return spread(args) if args.cmd == "spread" else baseline(args)
    except run.BenchError as e:
        sys.stderr.write("record: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
