#!/usr/bin/env python3
"""Runs or summarizes a set of benchmark runs.

Run a set from the repository root; every run's env and result lines go to
one JSON-lines file:

    python3 perfbench/runset.py run OUT.jsonl --seeds 101-110 [--workloads a,b]

Summarize one set (median and quartile spread of each end-to-end metric,
against its bound in BENCHMARK.json) or two sets (also the drift of the
second set's medians from the first's):

    python3 perfbench/runset.py summary A.jsonl [B.jsonl]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(args, spec):
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for name in names:
            for seed in seeds:
                cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                start = time.time()
                p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                wall = time.time() - start
                if p.returncode != 0:
                    sys.exit(f"{name} seed {seed}: exit {p.returncode}: {p.stderr[-2000:]}")
                lines = p.stdout.strip().splitlines()
                rec = {"workload": name, "seed": seed, "wall_s": round(wall, 2),
                       "env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}
                out.write(json.dumps(rec, sort_keys=True) + "\n")
                out.flush()
                r = rec["result"]
                print(name, seed, f"{wall:.1f}s", r["correct"], r["attempted"], r["failed"],
                      " ".join(f"{m}={v['value']:.4g}" for m, v in sorted(r["metrics"].items())), flush=True)


def medians_and_spreads(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec["result"])
    out = {}
    for name, results in runs.items():
        for m in results[0]["metrics"]:
            v = [r["metrics"][m]["value"] for r in results]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            out[(name, m)] = (med, (q[2] - q[0]) / med, len(v), all(r["correct"] for r in results))
    return out


def summary(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [medians_and_spreads(p) for p in args.sets]
    ok = True
    for key in sorted(sets[0]):
        name, m = key
        if m not in bounds:
            continue
        line = f"{name:12} {m:18}"
        for s in sets:
            med, spread, n, correct = s[key]
            good = m == "setup_s" or spread <= bounds[m]
            ok &= good and correct
            line += f"  median {med:10.4f} spread {spread:.3f} (n={n}){'' if good else ' OVER'}"
        if len(sets) == 2:
            (a, *_), (b, *_) = sets[0][key], sets[1][key]
            worse = (b - a) / a if next(x["better"] for x in spec["end_to_end"] if x["name"] == m) == "lower" else (a - b) / a
            ok &= worse <= bounds[m]
            line += f"  worse by {worse:+.3f} of bound {bounds[m]}"
        print(line)
    print("within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--seeds", required=True, help="N or N-M")
    r.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    s = sub.add_parser("summary")
    s.add_argument("sets", nargs="+")
    args = ap.parse_args()
    spec = load_spec()
    if args.cmd == "run":
        run_set(args, spec)
        return 0
    return summary(args, spec)


if __name__ == "__main__":
    sys.exit(main())
