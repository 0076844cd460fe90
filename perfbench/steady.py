#!/usr/bin/env python3
"""steady.py - measure how steady the benchmark's end-to-end metrics are.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run on its own seed, with the workloads interleaved so slow drift on
the machine spreads over all of them. For every end-to-end metric it
reports the median and the interquartile range (IQR, from
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.

    python3 perfbench/steady.py --runs 10 --out perfbench/evidence/set-a.json
    python3 perfbench/steady.py --runs 5 --workloads fleet-open --first-seed 100
    python3 perfbench/steady.py --compare perfbench/evidence/set-a.json perfbench/evidence/set-b.json
    python3 perfbench/steady.py --runs 2 --same-seed --first-seed 3001

Every run is untraced (--trace 0), so it prints the end-to-end metrics.
Run it from the repository root. --compare checks that the second set's
median of every metric is no worse than the first set's by more than the
metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    machine = None
    for line in lines[:-1]:
        obj = json.loads(line)
        if "machine" in obj:
            machine = obj["machine"]
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "wall_s": round(wall, 2),
            "machine": machine, "result": result}


def summarize(bench, runs):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = {}
    for w in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == w]
        table[w] = {}
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in rows
                    if name in r["result"]["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            table[w][name] = {
                "median": med, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / med if med else float("nan"),
                "bound": bounds[name], "n": len(vals),
            }
        table[w]["_correct"] = all(r["result"]["correct"] for r in rows)
        table[w]["_failed"] = sum(r["result"]["failed"] for r in rows)
    return table


def print_table(table):
    for w, metrics in table.items():
        print(f"{w}: all correct={metrics['_correct']} failed={metrics['_failed']}")
        for name, s in metrics.items():
            if name.startswith("_"):
                continue
            flag = "ok" if s["iqr_share"] < s["bound"] / 3 else (
                "within bound" if s["iqr_share"] <= s["bound"] else "TOO NOISY")
            print(f"  {name:26s} median {s['median']:14.6g}  IQR {100 * s['iqr_share']:6.2f}%"
                  f"  bound {100 * s['bound']:5.1f}%  {flag}")


def compare(bench, a_path, b_path):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with open(a_path) as f:
        a = json.load(f)["summary"]
    with open(b_path) as f:
        b = json.load(f)["summary"]
    ok = True
    for w in a:
        for name, sa in a[w].items():
            if name.startswith("_") or name not in b.get(w, {}):
                continue
            sb = b[w][name]
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if better[name] == "lower" else -change
            verdict = "ok" if worse <= sa["bound"] else "WORSE THAN BOUND"
            ok = ok and worse <= sa["bound"]
            print(f"{w:13s} {name:26s} {sa['median']:14.6g} -> {sb['median']:14.6g}"
                  f"  {100 * change:+7.2f}%  bound {100 * sa['bound']:5.1f}%  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="run every repetition on --first-seed, to check what must repeat exactly")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench = load_benchmark()
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    runs = []
    for i in range(args.runs):
        for w in names:
            seed = args.first_seed if args.same_seed else args.first_seed + i
            r = run_once(bench, w, seed)
            print(f"{w} seed {r['seed']}: correct={r['result']['correct']} ({r['wall_s']} s)",
                  file=sys.stderr, flush=True)
            runs.append(r)
    table = summarize(bench, runs)
    print_table(table)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": table}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
