#!/usr/bin/env python3
"""Median and quartile spread of benchmark runs, checked against BENCHMARK.json.

Usage: python3 perfbench/spread.py .bench_out/memo_exact-seed*-trace0.json

Groups the given run.py reports by workload and trace mode and prints, per
metric, the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median. For end-to-end metrics it marks a spread above the
metric's bound, and one above a third of it, since the bound is how far a
later change may move the median before it counts as a regression.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(paths):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups = {}
    for path in paths:
        report = json.loads(pathlib.Path(path).read_text())
        groups.setdefault((report["workload"], report["trace"]), []).append(report)
    for (workload, trace), reports in sorted(groups.items()):
        failed = [r["failed"] for r in reports]
        misses = [r["approx_misses"] for r in reports]
        print(f"{workload} trace={trace}: {len(reports)} runs, seeds "
              f"{sorted(r['seed'] for r in reports)}, failed {failed}, "
              f"approximate runs over their bound {misses}")
        for name in reports[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in reports]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "OVER BOUND" if spread > bound else (
                    "over bound/3" if spread > bound / 3 else "ok")
            print(f"  {name:44} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bound if bound is not None else '-':>5}  {mark}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
