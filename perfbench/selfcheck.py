#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json, on LUBM(1) + DBpedia-like(1) with
one-second runs, checks that
  * an untraced run passes the oracle gate and emits exactly the
    end-to-end metrics BENCHMARK.json names, each with its unit;
  * a traced run emits exactly the per-layer metrics;
  * a run whose reference digest is corrupted fails the gate: it exits
    non-zero and reports "correct": false.
Exits non-zero if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stderr


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace}: runs clean and passes the oracle")
            if result is None:
                print(err[-2000:], file=sys.stderr)
                continue
            want = {m["name"]: m["unit"] for m in benchmark[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want,
                  f"{workload} trace={trace}: emits every {section} metric "
                  f"with its unit (missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))})")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} trace={trace}: attempted >= 1, failed == 0")
        code, result, _ = run(workload, 0, "--corrupt-digest")
        check(code != 0 and result is not None and not result["correct"],
              f"{workload}: a corrupted reference digest trips the gate")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
