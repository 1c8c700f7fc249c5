#!/usr/bin/env python3
"""Compares benchmark runs of a parent and a change.

Given runs made in alternation (parent, change, change, parent, ...), prints
for each (workload, metric) both sides' median and quartiles, the change in
the median, and the fraction of pairs the change won. A result is
"unresolved" when either side's spread (interquartile range over median)
exceeds the metric's bound in BENCHMARK.json, unless every change run beat
every parent run; a "regression" when the change's median is worse than the
parent's by more than the bound; a "gain" when the change won at least nine
tenths of the pairs and its median moved by more than the parent's own
interquartile range.

Inputs are saved runs (the stdout of run.py, or records under
.bench_build/perfbench/out/records/), paired in the order given:

    python3 perfbench/compare.py --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

Exits 1 when any metric regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_run(path: Path):
    """Returns (workload, {metric: value}) from a saved stdout or a record."""
    text = path.read_text()
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        record = None
    if isinstance(record, dict) and "end_to_end" in record:
        section = record["per_layer"] if record.get("trace") else record["end_to_end"]
        return record["workload"], {k: v["value"] for k, v in section.items()}
    workload, metrics = None, None
    for line in text.splitlines():
        if line.startswith("# stamp:"):
            for field in line.split()[2:]:
                key, _, value = field.partition("=")
                if key == "workload":
                    workload = value
        elif line.startswith("{") and '"metrics"' in line:
            metrics = {k: v["value"] for k, v in json.loads(line)["metrics"].items()}
    if workload is None or metrics is None:
        raise ValueError(f"{path}: no stamp line or result object")
    return workload, metrics


def spread(values):
    """(median, q1, q3, iqr / median) as statistics.quantiles gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def compare(parent_files, change_files, benchmark) -> int:
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    runs = {"parent": {}, "change": {}}
    for side, files in (("parent", parent_files), ("change", change_files)):
        for path in files:
            workload, metrics = load_run(Path(path))
            runs[side].setdefault(workload, []).append(metrics)

    regressions = 0
    header = (f"{'workload':16} {'metric':34} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'delta':>8} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(runs["parent"]) & set(runs["change"])):
        parents, changes = runs["parent"][workload], runs["change"][workload]
        pairs = min(len(parents), len(changes))
        for name in parents[0]:
            if name not in changes[0] or name not in specs:
                continue
            spec = specs[name]
            higher = spec.get("better") == "higher"
            bound = spec.get("bound")
            p = [r[name] for r in parents]
            c = [r[name] for r in changes]
            pm, pq1, pq3, pspread = spread(p)
            cm, cq1, cq3, cspread = spread(c)
            better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
            wins = sum(better(c[i], p[i]) for i in range(pairs))
            win_frac = wins / pairs if pairs else 0.0
            delta = (cm - pm) / pm if pm else 0.0
            worse = -delta if higher else delta
            if bound is None:
                verdict = "(per-layer, no bound)"
            elif max(pspread, cspread) > bound:
                all_better = all(better(x, y) for x in c for y in p)
                verdict = "better (every run)" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif win_frac >= 0.9 and abs(cm - pm) > (pq3 - pq1) and worse < 0:
                verdict = "gain"
            else:
                verdict = "no change"
            print(f"{workload:16} {name:34} "
                  f"{pm:12.4g} [{pq1:.4g}, {pq3:.4g}]".ljust(83) +
                  f"{cm:12.4g} [{cq1:.4g}, {cq3:.4g}]".ljust(31) +
                  f"{delta:+8.1%} {win_frac:6.2f}  {verdict}")
    return 1 if regressions else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True,
                        help="saved runs of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="saved runs of the change, in the same order")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    benchmark = json.loads(Path(args.benchmark).read_text())
    return compare(args.parent, args.change, benchmark)


if __name__ == "__main__":
    sys.exit(main())
