#!/usr/bin/env python3
"""Compare two result sets of the repo benchmark.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the JSON records perfbench/run.py appends (one per run;
--out picks the file). Runs pair up by (workload, trace mode, seed), so
run both sides on the same seeds, alternating which side goes first. For
every (workload, metric) the tool prints each side's median and quartiles,
the pairs HEAD won, and a verdict:

  improved    HEAD won at least 9/10 of the pairs and the medians differ,
              in HEAD's favour, by more than BASE's interquartile range
  regressed   an end-to-end metric's HEAD median is worse than BASE's by
              more than the metric's bound in BENCHMARK.json; a per-layer
              metric (no bound) lost 9/10 pairs by more than BASE's IQR
  unresolved  an end-to-end metric whose BASE spread (IQR / median) is
              wider than its bound, unless every HEAD run beat every BASE run
  unchanged   anything else

Ties count for neither side. Before any metric, a workload regresses
when any HEAD run failed its result check (correct=false) or HEAD's runs
failed more jobs than BASE's. Exits 1 if anything regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def span(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def pair_up(base, head):
    """Pairs of records, matched by seed (in file order within a seed)."""
    by_seed = {}
    for r in head:
        by_seed.setdefault(r["seed"], []).append(r)
    pairs = []
    for r in base:
        if by_seed.get(r["seed"]):
            pairs.append((r, by_seed[r["seed"]].pop(0)))
    return pairs


def correctness(base, head):
    """Why HEAD's runs of one workload are worse at producing correct
    results than BASE's, or None."""
    wrong = [r["seed"] for r in head if not r["correct"]]
    if wrong:
        return f"HEAD failed its result check on seed(s) {wrong}"
    base_failed = sum(r["failed"] for r in base)
    head_failed = sum(r["failed"] for r in head)
    if head_failed > base_failed:
        return f"HEAD failed {head_failed} job(s), BASE {base_failed}"
    return None


def verdict(base_vals, head_vals, pair_vals, lower_better, bound):
    bq1, bmed, bq3 = quartiles(base_vals)
    _, hmed, _ = quartiles(head_vals)
    sign = -1.0 if lower_better else 1.0  # > 0 means HEAD is better
    won = sum(1 for b, h in pair_vals if sign * (h - b) > 0)
    lost = sum(1 for b, h in pair_vals if sign * (h - b) < 0)
    gap = sign * (hmed - bmed)
    iqr = bq3 - bq1
    n = len(pair_vals)
    if lower_better:
        all_better = max(head_vals) < min(base_vals)
    else:
        all_better = min(head_vals) > max(base_vals)
    if bound is not None and bmed != 0 and iqr / abs(bmed) > bound:
        return won, ("improved" if all_better else "unresolved")
    if n and won >= WIN_SHARE * n and gap > iqr:
        return won, "improved"
    if bound is not None:
        if -gap > bound * abs(bmed):
            return won, "regressed"
    elif n and lost >= WIN_SHARE * n and -gap > iqr:
        return won, "regressed"
    return won, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    declared = {}
    for m in spec["end_to_end"]:
        declared[m["name"]] = (m["better"] == "lower", m["bound"])
    for m in spec["per_layer"]:
        declared[m["name"]] = (m["better"] == "lower", None)

    base, head = load(args.base), load(args.head)
    regressions = 0
    header = (f"{'workload':<20} {'metric':<36} {'base median [q1, q3]':>38} "
              f"{'head median [q1, q3]':>38} {'won':>7} {'delta':>8}  verdict")
    print(header)
    for key in sorted(set(base) & set(head)):
        bad = correctness(base[key], head[key])
        if bad:
            regressions += 1
            print(f"{key[0]:<20} {'correctness':<36} {bad}  regressed")
        pairs = pair_up(base[key], head[key])
        if not pairs:
            print(f"{key[0]:<20} (no runs with a common seed)")
            continue
        for name in sorted(pairs[0][0]["metrics"]):
            if name not in declared:
                continue
            pv = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                  for b, h in pairs
                  if name in b["metrics"] and name in h["metrics"]]
            if not pv:
                continue
            bv = [b for b, _ in pv]
            hv = [h for _, h in pv]
            lower_better, bound = declared[name]
            won, v = verdict(bv, hv, pv, lower_better, bound)
            regressions += v == "regressed"
            bmed, hmed = statistics.median(bv), statistics.median(hv)
            delta = (hmed - bmed) / abs(bmed) * 100 if bmed else 0.0
            print(f"{key[0]:<20} {name:<36} {span(bv):>38} {span(hv):>38} "
                  f"{won:>3}/{len(pv):<3} {delta:>+7.2f}%  {v}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
