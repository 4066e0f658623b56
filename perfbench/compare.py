#!/usr/bin/env python3
"""Compare two sets of benchmark results (standard library only).

    python3 perfbench/compare.py <base> <change>

Each side is a results.jsonl written by run.py (one {"provenance", "result"}
record per run), or a directory holding such files. Untraced runs are
compared per workload and end-to-end metric: median and quartiles of each
side, the fraction of pairs the change wins (the i-th base run against the
i-th change run, ties counting for neither), and a verdict:

  improved     the change wins at least 9 of 10 pairs and the medians differ,
               in the better direction, by more than the base's own
               interquartile distance
  within bound the change's median is not worse than the base's by more
               than the metric's bound from BENCHMARK.json
  worse        it is worse by more than the bound
  unresolved   the base's own spread (IQR / median) is wider than the bound,
               so "within bound" cannot be told apart from noise -- unless
               every change run reads better than every base run

Exits 1 when any verdict is "worse" or a side has a failed run, else 0.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path)
                       for f in fs if f.endswith((".jsonl", ".json")))
    records = []
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    if "provenance" in rec and "result" in rec:
                        records.append(rec)
    return records


def by_workload(records):
    """workload -> metric -> [values in run order]; plus failure count."""
    out, failures = {}, 0
    records = sorted(records, key=lambda r: r["provenance"].get("run_index", 0))
    for rec in records:
        prov, res = rec["provenance"], rec["result"]
        if str(prov.get("trace")) != "0":
            continue
        if not res.get("correct", False):
            failures += 1
        metrics = out.setdefault(prov["workload"], {})
        for name, m in res["metrics"].items():
            metrics.setdefault(name, []).append(float(m["value"]))
    return out, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """Returns (verdict, fraction of pairs won, relative change)."""
    sign = 1.0 if better == "lower" else -1.0  # positive delta = worse
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    won = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (med_b - med_a) / med_a
    if won >= 0.9 and worse_by < 0 and abs(med_b - med_a) > q3 - q1:
        return "improved", won, worse_by
    if (q3 - q1) / med_a > bound:
        every_better = all(sign * (b - a) < 0 for a in base for b in change)
        return ("within bound" if every_better else "unresolved"), won, worse_by
    return ("worse" if worse_by > bound else "within bound"), won, worse_by


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base_recs, change_recs = load_records(argv[1]), load_records(argv[2])
    for label, recs in (("base", base_recs), ("change", change_recs)):
        builds = {(r["provenance"].get("build_type"), r["provenance"].get("optimized"))
                  for r in recs}
        for build_type, optimized in builds:
            if not optimized:
                print(f"WARNING: {label} has runs of an unoptimized build ({build_type})")
    base, base_failed = by_workload(base_recs)
    change, change_failed = by_workload(change_recs)

    print(f"{'workload':<17}{'metric':<18}{'base median [q1, q3]':<34}"
          f"{'change median [q1, q3]':<34}{'worse':>8}{'won':>6}  verdict")
    any_worse = False
    for workload in sorted(set(base) & set(change)):
        for name, meta in declared.items():
            a, b = base[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            v, won, worse_by = verdict(a, b, meta["better"], meta["bound"])
            any_worse |= v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{workload:<17}{name:<18}{fmt.format(*qa):<34}{fmt.format(*qb):<34}"
                  f"{100 * worse_by:>+7.1f}%{won:>6.2f}  {v}"
                  f"  (n={len(a)}/{len(b)}, bound {meta['bound']:.0%})")
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: only on one side, not compared")
    if base_failed or change_failed:
        print(f"failed runs: base {base_failed}, change {change_failed}")
    return 1 if any_worse or base_failed or change_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
