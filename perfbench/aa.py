#!/usr/bin/env python3
"""A/A check: do two sets of runs of the same commit agree?

    python3 perfbench/aa.py <results-dir-A> <results-dir-B>

Each directory holds the records run.py writes (--results-dir), one per
run; runs with --trace 1 are ignored. For every (end-to-end metric,
workload) pair the tool prints both sets' medians, the shift between
them, and each set's spread (distance between the first and third
quartile over the median, as statistics.quantiles gives them), and
calls the pair

  agree       the medians differ by no more than the metric's bound in
              BENCHMARK.json and each set's spread is within the bound
              (set-up time is judged on its median only);
  unresolved  otherwise: this host cannot tell the two sets apart from
              a change of that size.

Exit status 0 when every pair agrees.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(metric, workload): [values]} from one directory of records."""
    values = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            try:
                record = json.load(f)
            except json.JSONDecodeError:
                continue
        if not isinstance(record, dict) or record.get("trace") != 0:
            continue
        for metric, entry in record.get("metrics", {}).items():
            values.setdefault((metric, record["workload"]), []).append(
                entry["value"])
    return values


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    a, b = load_runs(argv[1]), load_runs(argv[2])
    pairs = sorted(set(a) & set(b), key=lambda p: (p[1], p[0]))
    if not pairs:
        print("no (metric, workload) pair appears in both sets",
              file=sys.stderr)
        return 2
    print(f"{'workload':18s} {'metric':15s} {'nA':>3s} {'nB':>3s} "
          f"{'median A':>12s} {'median B':>12s} {'shift':>7s} "
          f"{'spreadA':>7s} {'spreadB':>7s} {'bound':>6s}  verdict")
    all_agree = True
    for metric, workload in pairs:
        if metric not in bounds:
            continue
        bound = bounds[metric]["bound"]
        va, vb = a[(metric, workload)], b[(metric, workload)]
        ma, mb = statistics.median(va), statistics.median(vb)
        shift = (mb - ma) / ma if ma else float("inf")
        sa, sb = spread(va), spread(vb)
        ok = abs(shift) <= bound and (
            metric == "setup_s" or (sa <= bound and sb <= bound))
        all_agree &= ok
        print(f"{workload:18s} {metric:15s} {len(va):3d} {len(vb):3d} "
              f"{ma:12.6g} {mb:12.6g} {shift:+7.1%} {sa:7.1%} {sb:7.1%} "
              f"{bound:6.0%}  {'agree' if ok else 'unresolved'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
