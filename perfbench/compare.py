#!/usr/bin/env python3
"""Compare benchmark result sets, or check one set for steadiness.

Results are the lines perfbench/run.py appends to .perfbench/results.jsonl
(one JSON object per run, with "context" and "result").

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        one row per end-to-end metric per workload: each side's median and
        quartiles, and a verdict:
          improved       at least 10 pairs, the change wins at least 9 in
                         10 of them (runs paired in order; ties count for
                         neither), and the medians differ by more than the
                         parent's quartile spread
          worse          the change's median is worse than the parent's by
                         more than the metric's bound
          unresolved     the parent's quartile spread exceeds the bound,
                         and not every change run beats every parent run
          within bound   otherwise

    python3 perfbench/compare.py --steady SET1.jsonl [SET2.jsonl]
        per workload and end-to-end metric: each set's median and quartile
        spread as a share of its median, checked against the metric's
        bound: every spread but setup_s's stays within the bound, and with
        two sets of the same code no second median is worse than the first
        by more than the bound (setup_s too). Exits 1 if a check fails.
        The "third" column says whether a spread is also below a third of
        the bound, the margin the benchmark aims for; it is not checked.

Only untraced runs (--trace 0) are compared. Bounds and directions come
from BENCHMARK.json in the current directory.
"""

import argparse
import collections
import json
import statistics
import sys


def load_runs(path):
    runs = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            d = json.loads(line)
            if d["context"]["trace"] == 0:
                runs[d["context"]["workload"]].append(d["result"]["metrics"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def series(runs, metric):
    return [r[metric]["value"] for r in runs if metric in r]


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        return "improved", wins, len(pairs)
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def fmt(x):
    return "%.4g" % x


def compare(bench, a, b):
    parent, change = load_runs(a), load_runs(b)
    print("%-13s %-16s %-30s %-30s %-8s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for w in sorted(set(parent) & set(change)):
        for m in bench["end_to_end"]:
            ps, cs = series(parent[w], m["name"]), series(change[w], m["name"])
            if not ps or not cs:
                continue
            v, wins, n = verdict(ps, cs, m["better"], m["bound"])
            pq, cq = quartiles(ps), quartiles(cs)
            print("%-13s %-16s %-30s %-30s %-8s %s" % (
                w, m["name"],
                "%s [%s, %s] %s" % (fmt(pq[1]), fmt(pq[0]), fmt(pq[2]), m["unit"]),
                "%s [%s, %s] %s" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2]), m["unit"]),
                "%d/%d" % (wins, n), v))


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return q2, (q3 - q1) / abs(q2) if q2 else float("inf")


def steady(bench, paths):
    sets = [load_runs(p) for p in paths]
    ok = True
    print("%-13s %-16s %5s %12s %7s %6s %5s %12s %8s %s" % (
        "workload", "metric", "runs", "median", "spread", "bound", "third",
        "2nd median", "2nd gap", "ok"))
    for w in sorted(sets[0]):
        for m in bench["end_to_end"]:
            xs = series(sets[0][w], m["name"])
            if not xs:
                continue
            med, share = spread(xs)
            good = m["name"] == "setup_s" or share <= m["bound"]
            row = [w, m["name"], len(xs), fmt(med), "%.1f%%" % (share * 100),
                   "%.0f%%" % (m["bound"] * 100),
                   "yes" if share < m["bound"] / 3 else "no", "-", "-"]
            if len(sets) > 1:
                ys = series(sets[1].get(w, []), m["name"])
                med2, share2 = spread(ys) if ys else (float("nan"), float("inf"))
                sign = 1 if m["better"] == "higher" else -1
                gap = sign * (med - med2) / abs(med)  # > 0: second is worse
                good = (good and gap <= m["bound"]
                        and (m["name"] == "setup_s" or share2 <= m["bound"]))
                row[7:9] = [fmt(med2), "%+.1f%%" % (gap * 100)]
            ok = ok and good
            print("%-13s %-16s %5d %12s %7s %6s %5s %12s %8s %s" % tuple(
                row + ["yes" if good else "NO"]))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("files", nargs="*")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if a.steady:
        if len(a.files) not in (1, 2):
            ap.error("give --steady SET1.jsonl [SET2.jsonl]")
        sys.exit(0 if steady(bench, a.files) else 1)
    if len(a.files) != 2:
        ap.error("give PARENT.jsonl and CHANGE.jsonl, or --steady SET1.jsonl [SET2.jsonl]")
    compare(bench, *a.files)


if __name__ == "__main__":
    main()
