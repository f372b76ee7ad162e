#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise how much it spreads.

    python3 perfbench/steadiness.py --workload rounds-greedy --seeds 1-10 --repeat 2

Run from the repository root.  Each (repeat, seed) pair is one run of
`bash perfbench/run.sh ... --trace 0`.  The JSON written to stdout holds, per
workload and repeat, every end-to-end metric's values, median, quartiles
(statistics.quantiles, n=4) and (q3 - q1) / median; and per seed the round and
journal digests and mutual_per_round of every repeat, which must agree.
Progress goes to stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    info = {}
    for line in out:
        key, _, rest = line.partition(" ")
        if key in ("digest", "mutual_per_round"):
            info[key] = rest.split(" (")[0]
    return json.loads(out[-1]), info


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()
    report = {}
    for workload in args.workload:
        sets, seeds = [], {}
        for rep in range(args.repeat):
            values = {}
            for seed in seed_range(args.seeds):
                result, info = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{workload} seed {seed}: {result}")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                seeds.setdefault(seed, []).append(info)
                print(workload, rep, seed, info, json.dumps(result["metrics"]), file=sys.stderr, flush=True)
            sets.append({name: spread(v) for name, v in values.items()})
        report[workload] = {
            "sets": sets,
            "seeds": {s: {"runs": infos, "identical": all(i == infos[0] for i in infos)}
                      for s, infos in seeds.items()},
        }
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
