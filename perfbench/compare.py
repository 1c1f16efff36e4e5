"""Compare two sets of benchmark result files, parent against change.

    python3 perfbench/compare.py perfbench/results/parent perfbench/results/change
    python3 perfbench/compare.py --summarize perfbench/results/baseline > BENCH_baseline.json

Each directory holds result files written by run.py (searched recursively).
Runs are paired in start order, parent run i with change run i. For every
workload and end-to-end metric the table gives each side's median and
quartiles and the share of pairs the change wins, and a verdict:

- gain: at least ten pairs that alternate which side ran first, the change
  wins at least nine tenths of them (ties count for neither), and the
  medians differ by more than the parent's interquartile spread;
- regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: the parent's spread (IQR over median) exceeds the bound and
  not every change run beats every parent run;
- within bound: none of these.

With --trace 1 the per-layer metrics of traced runs are listed; they have
no bounds, so only medians and the change are shown.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(path, trace):
    out = []
    for root, _, files in os.walk(path):
        for name in sorted(files):
            if name.endswith(".json"):
                with open(os.path.join(root, name)) as fh:
                    doc = json.load(fh)
                if doc.get("trace") == trace and "metrics" in doc:
                    out.append(doc)
    return sorted(out, key=lambda d: d["started"])


def by_workload(results):
    groups = {}
    for doc in results:
        groups.setdefault(doc["workload"], []).append(doc)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent_runs, change_runs, metric):
    name, direction, bound = metric["name"], metric["better"], metric.get("bound")
    p = [d["metrics"][name]["value"] for d in parent_runs]
    c = [d["metrics"][name]["value"] for d in change_runs]
    pairs = list(zip(parent_runs, change_runs))
    first = [pr["started"] < ch["started"] for pr, ch in pairs]
    alternating = all(a != b for a, b in zip(first, first[1:]))
    wins = sum(better(ch["metrics"][name]["value"], pr["metrics"][name]["value"], direction)
               for pr, ch in pairs)
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_q1, p_q3 = quartiles(p)
    row = {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, *quartiles(c)),
        "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else float("nan"),
        "wins": wins, "pairs": len(pairs), "alternating": alternating,
    }
    if bound is None:
        row["verdict"] = "-"
        return row
    worse_by = (c_med - p_med) / p_med if direction == "lower" else (p_med - c_med) / p_med
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    all_better = all(better(x, y, direction) for x in c for y in p)
    if (len(pairs) >= 10 and alternating and wins >= 0.9 * len(pairs)
            and abs(c_med - p_med) > p_q3 - p_q1 and better(c_med, p_med, direction)):
        row["verdict"] = "gain"
    elif worse_by > bound:
        row["verdict"] = "regression"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "within bound"
    return row


def failed_share(runs):
    attempted = sum(d["attempted"] for d in runs)
    return f"{sum(d['failed'] for d in runs)}/{attempted}"


def compare(parent_dir, change_dir, trace, spec):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    parent = by_workload(load_results(parent_dir, trace))
    change = by_workload(load_results(change_dir, trace))
    header = (f"{'workload':16s} {'metric':38s} {'parent median [q1, q3]':32s} "
              f"{'change median [q1, q3]':32s} {'delta':>8s} {'wins':>7s}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:16s} missing runs: parent {len(p_runs)}, change {len(c_runs)}")
            continue
        note = "" if len(p_runs) == len(c_runs) else f" (unequal run counts {len(p_runs)}/{len(c_runs)})"
        print(f"{workload:16s} failed ops: parent {failed_share(p_runs)}, "
              f"change {failed_share(c_runs)}{note}")
        for metric in metrics:
            row = verdict(p_runs, c_runs, metric)
            fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"  # noqa: E731
            alt = "" if row["alternating"] else " (pairs not alternating)"
            print(f"{workload:16s} {metric['name']:38s} {fmt(row['parent']):32s} {fmt(row['change']):32s} "
                  f"{row['delta_pct']:7.2f}% {row['wins']:3d}/{row['pairs']:<3d}  {row['verdict']}{alt}")


def summarize(path, spec):
    """Per-workload medians and quartiles of a set of runs, with their environment."""
    out = {"workloads": {}}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload, runs in by_workload(load_results(path, trace)).items():
            entry = out["workloads"].setdefault(workload, {})
            entry["environment"] = runs[-1]["environment"]
            entry[f"runs_trace{trace}"] = len(runs)
            entry[f"seeds_trace{trace}"] = [d["seed"] for d in runs]
            if trace == 0:
                entry["failed_share"] = failed_share(runs)
            for metric in spec[key]:
                values = [d["metrics"][metric["name"]]["value"] for d in runs]
                q1, q3 = quartiles(values)
                entry.setdefault(key, {})[metric["name"]] = {
                    "median": statistics.median(values), "q1": q1, "q3": q3, "unit": metric["unit"],
                }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("dirs", nargs="+", help="PARENT CHANGE, or one directory with --summarize")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summarize", action="store_true")
    args = p.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.summarize:
        if len(args.dirs) != 1:
            p.error("--summarize takes one directory")
        summarize(args.dirs[0], spec)
    elif len(args.dirs) == 2:
        compare(args.dirs[0], args.dirs[1], args.trace, spec)
    else:
        p.error("give PARENT and CHANGE directories")


if __name__ == "__main__":
    main()
