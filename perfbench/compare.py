#!/usr/bin/env python3
"""Compare two result sets of the cmags benchmark.

    python3 perfbench/compare.py <base_dir> [<change_dir>]

A result set is a directory of records written by `run.py --out <dir>`
(one per run; spans files are ignored). For every workload and metric it
prints each side's run count, median and quartiles, and the spread: the
distance between the quartiles as a share of the median, computed with
`statistics.quantiles(values, n=4)`. End-to-end metrics come from the
`--trace 0` records and carry the bound of BENCHMARK.json; per-layer
metrics come from the `--trace 1` records and are informational.

With two sets, the verdict of an end-to-end metric is:
  REGRESSED   the change's median is worse than the base's by more than the bound;
  unresolved  either side's spread is wider than the bound, and not every
              change run beats every base run;
  better      every change run beats every base run;
  ok          otherwise.
The exit code is 1 when any metric regressed or any run failed a check.
With one set, the verdict flags spreads wider than the bound (`WIDE`) or
than a third of it (`wide`), the steadiness the benchmark aims for.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{(workload, trace): {metric: [values]}} plus (attempted, failed)."""
    groups, attempted, failed = {}, 0, 0
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        envelope, result = record["envelope"], record["result"]
        attempted += result["attempted"]
        failed += result["failed"]
        key = (envelope["workload"], envelope["trace"])
        for name, metric in result["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return groups, attempted, failed


def summary(values):
    """(n, median, q1, q3, spread)."""
    median = statistics.median(values)
    if len(values) < 2:
        return len(values), median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return len(values), median, q1, q3, spread


def fmt(summ):
    n, median, q1, q3, spread = summ
    return f"n={n:<3} med={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:6.1%}"


def verdict(base, change, bound, better):
    sign = 1 if better == "lower" else -1
    b, c = summary(base), summary(change)
    worse = sign * (c[1] - b[1]) / abs(b[1]) if b[1] else 0.0
    beats_all = all(sign * (x - y) < 0 for x in change for y in base)
    if beats_all:
        return "better", worse
    if b[4] > bound or c[4] > bound:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSED", worse
    return "ok", worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as handle:
        spec = json.load(handle)

    base, b_att, b_fail = load(args.base)
    change, c_att, c_fail = (load(args.change) if args.change else ({}, 0, 0))
    print(f"base: {args.base}: {b_att} checks, {b_fail} failed")
    if args.change:
        print(f"change: {args.change}: {c_att} checks, {c_fail} failed")
    bad = b_fail + c_fail > 0

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rows = base.get((workload, trace))
            if not rows:
                continue
            print(f"\n== {workload} ({'end-to-end' if trace == 0 else 'per-layer'})")
            for metric in metrics:
                name, bound = metric["name"], metric.get("bound")
                values = rows.get(name)
                if not values:
                    continue
                line = f"  {name:42} base {fmt(summary(values))}"
                other = change.get((workload, trace), {}).get(name)
                if other:
                    line += f"\n  {'':42} chg  {fmt(summary(other))}"
                    if bound is not None:
                        word, worse = verdict(values, other, bound, metric["better"])
                        bad |= word == "REGRESSED"
                        line += f"  worse by {worse:+.1%} (bound {bound:.0%}): {word}"
                elif bound is not None:
                    spread = summary(values)[4]
                    flag = "WIDE" if spread > bound else "wide" if spread > bound / 3 else "steady"
                    line += f"  bound {bound:.0%}: {flag}"
                print(line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
