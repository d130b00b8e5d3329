"""Compare two sets of benchmark result files, workload by workload.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a result file written by perfbench/run.py or a
directory of them (smoke results are skipped); run at least ten seeds per
side, alternating which side runs first.  Runs are grouped by workload and
trace mode and paired by seed.  For every metric of the result files,
including the raw seconds behind the reference-normalised times, the table
shows each side's median and quartiles over its runs, and a verdict:

* improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ, in the better direction, by more than
  the distance between the parent's quartiles;
* no worse: the change's median is within the metric's bound of the
  parent's (end-to-end metrics only: per-layer metrics have no bound);
* unresolved: the parent's own spread is wider than the bound, and not
  every run of the change reads better than every run of the parent;
* worse: none of the above.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(path):
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(
            os.path.join(path, name) for name in os.listdir(path)
            if name.endswith(".json") and not name.endswith(".spans.json")
        )
    runs = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        if not result.get("smoke"):
            runs.append(result)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    """parent, change: value lists paired by index."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return "improved"
    if bound is None:
        return "no claim"
    scale = abs(p_med)
    if p_q3 - p_q1 > bound * scale:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "no worse"
        return "unresolved"
    return "no worse" if gain >= -bound * scale else "worse"


def compare(parent_runs, change_runs, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    index = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for r in runs:
            key = (r["workload"], r["trace"])
            index.setdefault(key, {}).setdefault(side, {})[r["seed"]] = r["values"]
    rows = []
    for (workload, trace), sides in sorted(index.items()):
        seeds = sorted(set(sides.get("parent", {})) & set(sides.get("change", {})))
        if not seeds:
            continue
        for name in sides["parent"][seeds[0]]:
            p = [sides["parent"][s][name] for s in seeds]
            c = [sides["change"][s][name] for s in seeds]
            rows.append({
                "workload": workload, "trace": trace, "metric": name,
                "unit": units.get(name, "s"), "pairs": len(seeds),
                "parent": quartiles(p), "change": quartiles(c),
                "verdict": verdict(p, c, better.get(name, "lower"), bounds.get(name)),
            })
    return rows


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load_results(argv[0]), load_results(argv[1]), spec)
    if not rows:
        print("no workload has runs with the same seed on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':16} {'metric':28} {'unit':6} {'n':>3}  "
          f"{'parent median [q1, q3]':36} {'change median [q1, q3]':36} verdict")
    for r in rows:
        print(f"{r['workload']:16} {r['metric']:28} {r['unit']:6} {r['pairs']:3}  "
              f"{fmt(r['parent']):36} {fmt(r['change']):36} {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
