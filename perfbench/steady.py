#!/usr/bin/env python3
"""Steadiness check: run each workload many times with distinct seeds and
report every end-to-end metric's median, quartiles and spread against its
bound in BENCHMARK.json; or compare two such sets.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads cold-start,serve-mixed]
                                [--traced] [--out results.json]
    python3 perfbench/steady.py --compare set1.json set2.json

Run it from the repository root.  The spread is (Q3 - Q1) / median with the
quartiles of Python's statistics.quantiles(values, n=4).  A set passes when
every metric's spread, setup_s's too, stays within its bound, every run is
correct and the share of failed operations is the same in every run.
--traced adds one traced run per workload and reports the tracing cost as
the change in its median round time against the untraced runs' median.

--compare reads two files written by --out and prints, as a Markdown table
per workload, both sets' medians and spreads and how much worse the second
median is than the first.  It passes when no metric's second median is
worse than the first by more than its bound, both sets pass on their own,
and their failed shares are the same.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(workload, seed, seconds, trace):
    """The run's JSON result, plus its median round time under "round_s"."""
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench:") and "median round" in line:
            result["round_s"] = float(line.split()[-2])
    return result


def measure(bench, args):
    report = {"nproc": os.cpu_count(), "cpu": cpu_model(), "build_type": "RelWithDebInfo",
              "executor_threads": 2, "run_seconds": bench["run_seconds"], "workloads": {}}
    print("host: nproc %d, %s; build %s; executor threads %d; runs of %d s" %
          (report["nproc"], report["cpu"], report["build_type"], report["executor_threads"],
           report["run_seconds"]), flush=True)
    everything_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, result["correct"], result["attempted"], result["failed"]),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print("\n%s: %d runs, correct=%s, failed share %s" %
              (workload, len(runs), correct, " ".join("%.6g" % s for s in sorted(shares))))
        print("  %-22s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread",
                                                 "bound"))
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread <= metric["bound"]
            everything_ok = everything_ok and ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": metric["bound"], "values": values}
            print("  %-22s %14.6g %14.6g %14.6g %8.4f %6.2f %s" %
                  (name, med, q1, q3, spread, metric["bound"], "" if ok else "OVER"))
        everything_ok = everything_ok and correct and len(shares) == 1
        entry = {"runs": len(runs), "correct": correct, "failed_shares": sorted(shares),
                 "metrics": rows}
        if args.traced:
            traced = run_once(workload, args.first_seed, bench["run_seconds"], 1)
            untraced = statistics.median(r["round_s"] for r in runs)
            entry["trace"] = {"spans": traced["metrics"]["trace.spans"]["value"],
                              "overhead_pct_estimate": traced["metrics"]["trace.overhead_pct"]["value"],
                              "round_s_traced": traced["round_s"],
                              "round_s_untraced_median": untraced,
                              "per_layer": traced["metrics"]}
            print("  traced run: %d spans, median round %.4g s against %.4g s untraced "
                  "(%+.2f %%); span bookkeeping estimated at %.4f %% of the run" %
                  (entry["trace"]["spans"], traced["round_s"], untraced,
                   100.0 * (traced["round_s"] / untraced - 1.0),
                   entry["trace"]["overhead_pct_estimate"]))
        report["workloads"][workload] = entry
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("ALL WITHIN BOUNDS" if everything_ok else "SOME METRIC OUT OF BOUND")
    return everything_ok


def number(v):
    return "%.4g" % v


def compare(bench, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    everything_ok = True
    for workload, a in first["workloads"].items():
        b = second["workloads"].get(workload)
        if b is None:
            continue
        same_share = a["failed_shares"] == b["failed_shares"] and len(a["failed_shares"]) == 1
        everything_ok = everything_ok and same_share and a["correct"] and b["correct"]
        print("\n**%s** — failed share %s / %s%s, correct %s / %s\n" %
              (workload, a["failed_shares"], b["failed_shares"], "" if same_share else " DIFFER",
               a["correct"], b["correct"]))
        print("| metric | set 1 median | set 1 spread | set 2 median | set 2 spread "
              "| set 2 worse by | bound | |")
        print("|---|---|---|---|---|---|---|---|")
        for name, ra in a["metrics"].items():
            rb = b["metrics"][name]
            sign = 1.0 if better[name] == "lower" else -1.0
            worse = sign * (rb["median"] / ra["median"] - 1.0)
            flags = []
            if worse > ra["bound"]:
                flags.append("WORSE")
            if ra["spread"] > ra["bound"] or rb["spread"] > ra["bound"]:
                flags.append("SPREAD")
            everything_ok = everything_ok and not flags
            print("| `%s` | %s | %.3f | %s | %.3f | %+.1f %% | %s | %s |" %
                  (name, number(ra["median"]), ra["spread"], number(rb["median"]), rb["spread"],
                   100.0 * worse, ra["bound"], " ".join(flags)))
        for label, entry in (("set 1", a), ("set 2", b)):
            t = entry.get("trace")
            if t:
                print("\n%s traced run: %d spans, median round %.4g s against %.4g s untraced "
                      "(%+.2f %%); span bookkeeping estimated at %.4f %% of the run." %
                      (label, t["spans"], t["round_s_traced"], t["round_s_untraced_median"],
                       100.0 * (t["round_s_traced"] / t["round_s_untraced_median"] - 1.0),
                       t["overhead_pct_estimate"]))
    print("\nTHE SETS AGREE WITHIN THE BOUNDS" if everything_ok
          else "\nTHE SETS DO NOT AGREE WITHIN THE BOUNDS")
    return everything_ok


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    ok = compare(bench, *args.compare) if args.compare else measure(bench, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
