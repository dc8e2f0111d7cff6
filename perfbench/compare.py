#!/usr/bin/env python3
"""Compare two sets of runs saved by spread.py (parent first, change second).

    python3 perfbench/compare.py parent.json change.json

For every workload and end-to-end metric it prints both sides' median and
quartiles, the change in the median, and how many paired runs the change
won (runs are paired by position; ties count for neither side). Verdicts:

  better      every change run beats every parent run; or the spreads are
              within the bound, the change wins at least 9 in 10 pairs, and
              its median beats the parent's by more than the parent's own
              spread (q3 - q1);
  worse       the median is worse than the parent's by more than the bound;
  unresolved  otherwise, when either side's spread, (q3 - q1) / median, is
              wider than the bound;
  same        none of the above.

Exits 1 when any metric is worse. Run from the repository root.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old, new, lower_better, bound):
    sign = 1 if lower_better else -1
    (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (o - n) > 0)
    delta = sign * (nmed - omed) / abs(omed)  # > 0: the change is worse
    if all(sign * (o - n) > 0 for o in old for n in new):
        return "better", delta, wins, len(pairs)
    if delta > bound:
        return "worse", delta, wins, len(pairs)
    if max((oq3 - oq1) / abs(omed), (nq3 - nq1) / abs(nmed)) > bound:
        return "unresolved", delta, wins, len(pairs)
    if wins >= 0.9 * len(pairs) and sign * (omed - nmed) > (oq3 - oq1):
        return "better", delta, wins, len(pairs)
    return "same", delta, wins, len(pairs)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(sys.argv[1]) as f:
        parent = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        print(f"\n{workload}")
        print(f"  {'metric':16} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'Δ worse':>8} {'wins':>6} verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            old = [r[name] for r in parent[workload]]
            new = [r[name] for r in change[workload]]
            v, delta, wins, n = verdict(old, new, m["better"] == "lower", m["bound"])
            worse += v == "worse"
            oq, nq = quartiles(old), quartiles(new)
            print(f"  {name:16} {oq[1]:12.5g} [{oq[0]:9.5g}, {oq[2]:9.5g}] "
                  f"{nq[1]:12.5g} [{nq[0]:9.5g}, {nq[2]:9.5g}] {delta:+8.2%} {wins:>3}/{n:<2} {v}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
