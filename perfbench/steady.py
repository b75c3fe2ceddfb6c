#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json ten times, each time with another seed
(FIRST_SEED, FIRST_SEED+1, ...) and for run_seconds, and prints, as markdown
tables, every end-to-end metric's quartiles and median next to its bound.
The spread is (Q3 - Q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4). A spread below a third of the bound reads
"steady", one up to the bound "within bound", a wider one "TOO WIDE". The
spread of setup_s is shown but not bounded; its median drift is.

--save FILE writes the set's values to FILE. --compare FILE reads a set saved
so and prints it next to this one, with each metric's median drift: how much
worse this set's median is than the saved one's, in the metric's direction,
as a share of the saved median. A drift above the bound fails, setup_s
included, and so does a failed share that differs between the two sets.

Every set also needs one failed share on all runs of a workload and every
run correct. Unless --no-fresh is given, every workload then runs once on a
seed that was not used while the benchmark was built, to show that every
check still passes there. With --trace, every workload also runs once traced
on FIRST_SEED, and its per-layer metrics are printed with the tracing
overhead on the operation median.

Run from anywhere; it runs from the root of the repository:

    python3 perfbench/steady.py --trace --save perfbench/target/set1.json
    python3 perfbench/steady.py --first-seed 11 --no-fresh --compare perfbench/target/set1.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
FRESH_SEED = 987654321


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def fmt(q1, med, q3):
    return f"{q1:.6g} / {med:.6g} / {q3:.6g}"


def measure_set(spec, first_seed):
    """Ten untraced runs per workload: {workload: {seeds, attempted, failed, correct, values}}."""
    out = {}
    for w in (w["name"] for w in spec["workloads"]):
        results = [run(spec, w, first_seed + i, False) for i in range(RUNS)]
        out[w] = {
            "seeds": [first_seed, first_seed + RUNS - 1],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "values": {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                       for m in spec["end_to_end"]},
            "units": {m["name"]: results[0]["metrics"][m["name"]]["unit"] for m in spec["end_to_end"]},
        }
    return out


def shares(s):
    return sorted({f / a for f, a in zip(s["failed"], s["attempted"])})


def report(spec, this, before):
    """Prints one table per workload and returns whether every check held."""
    ok = True
    for w, s in this.items():
        b = before.get(w) if before else None
        share = shares(s)
        line = (f"\n**{w}** — correct={s['correct']}, failed share {share}; attempted per run: "
                f"seeds {s['seeds'][0]}..{s['seeds'][1]} {s['attempted']}")
        if b:
            line += f", seeds {b['seeds'][0]}..{b['seeds'][1]} {b['attempted']}"
            if shares(b) != share:
                ok = False
                line += f" — FAILED SHARE DIFFERS from {shares(b)}"
        print(line + "\n")
        if len(share) != 1 or not s["correct"]:
            ok = False
        cols = f"seeds {s['seeds'][0]}..{s['seeds'][1]} Q1 / median / Q3 | spread"
        if b:
            cols = f"seeds {b['seeds'][0]}..{b['seeds'][1]} Q1 / median / Q3 | spread | " + cols + " | median drift"
        print(f"| metric | unit | {cols} | bound | verdict |")
        print("|---" * (cols.count("|") + 5) + "|")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            q1, med, q3, spread = summary(s["values"][name])
            if name == "setup_s":
                verdict = "spread not bounded"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            cells = f"{fmt(q1, med, q3)} | {spread:.3f}"
            if b:
                bq1, bmed, bq3, bspread = summary(b["values"][name])
                worse = (med - bmed) / bmed if m["better"] == "lower" else (bmed - med) / bmed
                if worse > bound:
                    verdict += ", DRIFT TOO LARGE"
                    ok = False
                cells = f"{fmt(bq1, bmed, bq3)} | {bspread:.3f} | {cells} | {worse:+.3f}"
            print(f"| `{name}` | {s['units'][name]} | {cells} | {bound} | {verdict} |")
    return ok


def traced(spec, first_seed, untraced):
    for w in untraced:
        t = run(spec, w, first_seed, True)
        p50 = untraced[w]["values"]["op_p50_s"][0]
        tp50 = t["metrics"]["bench.op_p50_s"]["value"]
        print(f"\n**{w}** — traced run, seed {first_seed}: correct={t['correct']}, "
              f"op p50 {tp50:.6g} s vs untraced {p50:.6g} s (overhead {tp50 / p50 - 1:+.2%})\n")
        print("| metric | value | unit |\n|---|---|---|")
        for name, m in t["metrics"].items():
            if m["value"] != 0:
                print(f"| `{name}` | {m['value']:.6g} | {m['unit']} |")
        if not t["correct"]:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    ap.add_argument("--no-fresh", action="store_true", help="skip the runs on the fresh seed")
    ap.add_argument("--save", metavar="FILE", help="write this set's values to FILE")
    ap.add_argument("--compare", metavar="FILE", help="compare with a set saved by --save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    before = None
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
    this = measure_set(spec, args.first_seed)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(this, f)
    ok = report(spec, this, before)
    if args.trace:
        ok = traced(spec, args.first_seed, this) and ok
    if not args.no_fresh:
        print(f"\nFresh seed {FRESH_SEED}:")
        for w in this:
            r = run(spec, w, FRESH_SEED, False)
            print(f"- {w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
            ok = ok and r["correct"]
    print("\nevery check passed" if ok else "\nFAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.exit(main())
