#!/usr/bin/env python3
"""Summarize benchmark results into one trajectory entry.

    python3 perfbench/trajectory.py --label "baseline" >> perfbench/trajectory.jsonl

Reads the stamped results that perfbench/run.py appends to
.bench_build/out/results.jsonl. For each workload it takes the last
RUNS untraced results, meant to be runs with different seeds, and
prints the median and quartiles of every end-to-end metric, plus the
per-layer metrics of its last traced result. It also prints the host,
build and commit from the newest stamp and the line count of src/.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def src_lines():
    return sum(len(p.read_text(errors="replace").splitlines())
               for p in (ROOT / "src").rglob("*")
               if p.suffix in (".cc", ".hh"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--results",
                    default=str(ROOT / ".bench_build/out/results.jsonl"))
    args = ap.parse_args()

    by_workload = {}
    traced = {}
    newest = None
    for line in Path(args.results).read_text().splitlines():
        rec = json.loads(line)
        if rec["stamp"]["trace"] == 1:
            traced[rec["stamp"]["workload"]] = rec
        else:
            by_workload.setdefault(rec["stamp"]["workload"], []).append(rec)
            newest = rec["stamp"]
    if not by_workload:
        sys.exit("no untraced results")

    entry = {"label": args.label, "commit": newest["commit"],
             "host": newest["host"], "build": newest["build"],
             "workers": newest["workers"], "src_lines": src_lines(),
             "workloads": {}}
    for workload, recs in sorted(by_workload.items()):
        recs = recs[-RUNS:]
        metrics = {}
        for name in recs[-1]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "unit": recs[-1]["result"]["metrics"][name]["unit"]}
        entry["workloads"][workload] = {
            "runs": len(recs),
            "seeds": [r["stamp"]["seed"] for r in recs],
            "seconds": recs[-1]["stamp"]["seconds"],
            "all_correct": all(r["result"]["correct"] for r in recs),
            "metrics": metrics}
        if workload in traced:
            rec = traced[workload]
            entry["workloads"][workload]["per_layer"] = {
                "seed": rec["stamp"]["seed"],
                "correct": rec["result"]["correct"],
                "metrics": {name: m["value"] for name, m
                            in rec["result"]["metrics"].items()}}
    print(json.dumps(entry, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
