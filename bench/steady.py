"""Steadiness check and baseline record for the benchmark.

    python3 bench/steady.py [--workloads W ...] [--runs 10] [--sets 1]
                            [--traced] [--save FILE]

Runs run.py ``--runs`` times per workload, with seeds 1, 2, ..., and
prints for each end-to-end metric the median, the quartiles and their
distance as a share of the median, against the metric's bound in
BENCHMARK.json (a spread must stay under the bound; the aim is a third of
it).  With ``--sets 2`` the runs are repeated with the same seeds and the
second median is compared with the first.  ``--traced`` adds one traced
run per workload and checks each workload's intended dominant layer.
``--save`` writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# What each workload is meant to load: (label, span or layer names summed).
# The claim holds when that sum is the largest share on its own workload
# (or, for "most", over half of it) and under a tenth of some other one.
INTENDED = {
    "laws": ("largest", "lattice.lattice_tables", ("lattice.lattice_tables",)),
    "construct": ("largest", "transform.enumerate_hco_filters",
                  ("transform.enumerate_hco_filters",)),
    "ingest": ("most", "diagram.validate + io",
               ("diagram.validate", "io.")),
    "enumerate": ("most", "decode + Diagram.init + io.serialize",
                  ("diagram.from_canonical", "diagram.Diagram.init",
                   "io.serialize", "io.document_of")),
}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-s{seed}-t{trace}"
    result["record"] = json.loads((HERE / "out" / f"{stem}.json").read_text())
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def share(record, names):
    """Summed share of traced op time for span names or layer prefixes."""
    fns = record["shares"]["functions"]
    return sum(v for k, v in fns.items() if any(
        k == n or (n.endswith(".") and k.startswith(n)) for n in names))


def dominance(traced):
    """Confirm each workload's intended load, and that it is small elsewhere."""
    out = {}
    for w, (how, label, names) in INTENDED.items():
        if w not in traced:
            continue
        own = share(traced[w], names)
        top = traced[w]["shares"]["dominant_function"]
        others = {o: share(r, names) for o, r in traced.items() if o != w}
        small = [o for o, s in others.items() if s < 0.1]
        holds = (own > 0.5 if how == "most" else top == names[0]) and bool(small)
        out[w] = {
            "intended": label, "rule": how, "share": own, "dominant_function": top,
            "holds": holds, "share_elsewhere": others, "small_on": small,
        }
        print(f"{w:10} {label}: {own:.1%} ({how}; top {top}) -> "
              f"{'ok' if holds else 'NOT MET'}; under 10% on {small or 'no other workload'}")
    return out


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--save")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(1, args.runs + 1)
    runs = {}
    summary = {}
    ok = True
    for w in args.workloads:
        sets = []
        for _ in range(args.sets):
            results = [run_once(w, s, seconds, 0) for s in seeds]
            if not all(r["correct"] for r in results):
                print(f"{w}: some run reported failed operations")
                ok = False
            sets.append(results)
        runs[w] = sets
        summary[w] = {}
        for metric, bound in bounds.items():
            stats = [spread([r["metrics"][metric]["value"] for r in rs]) for rs in sets]
            row = {"bound": bound, "sets": stats}
            line = f"{w:10} {metric:12} bound {bound:.2f}"
            for s in stats:
                line += (f" | median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                         f" spread {s['spread']:.3f}")
                if metric != "setup_s" and s["spread"] > bound:
                    ok = False
                    line += " OVER BOUND"
                elif metric != "setup_s" and s["spread"] > bound / 3:
                    line += " (over a third)"
            if len(stats) == 2:
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
                a, b = stats[0]["median"], stats[1]["median"]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                row["second_worse_by"] = worse
                line += f" | second median worse by {worse:+.3f}"
                if worse > bound:
                    ok = False
                    line += " OVER BOUND"
            summary[w][metric] = row
            print(line, flush=True)

    traced = {}
    if args.traced:
        for w in args.workloads:
            traced[w] = run_once(w, 1, seconds, 1)["record"]
        summary["dominance"] = dominance(traced)
        ok = ok and all(d["holds"] for d in summary["dominance"].values())
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"benchmark": bench, "runs": runs, "summary": summary,
             "traced": traced}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
