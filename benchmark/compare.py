#!/usr/bin/env python3
"""Compares two sets of relaxbench results against BENCHMARK.json's bounds.

  python3 benchmark/compare.py BASE NEW        compare; exit 1 on a regression
  python3 benchmark/compare.py --snapshot SET  print one summary file
  python3 benchmark/compare.py --self-test     check this script

A set is any mix of relaxbench --json files, directories of them, and
snapshot files; every row in it is one run. For each (workload, end-to-end
metric) the script prints both medians and quartiles and a verdict:

  ok          NEW's median is not worse than BASE's by more than the bound
  regressed   it is worse by more than the bound
  improved    it is better by more than the bound
  unresolved  BASE's own spread, (q3 - q1) / median, exceeds the bound, so
              the difference cannot be judged; "improved" still wins when
              every NEW run beats every BASE run

failed_ratio = ops_failed / ops_attempted has an absolute bound of 0: any
rise is a regression. Rows marked invalid (a late load generator) are left
out and counted. Exits 1 on a regression, a rise in failed_ratio, or a
workload missing from one side. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_rows(paths):
    """Every row in the given files and directories (sorted by name)."""
    rows = []
    for path in paths:
        files = ([os.path.join(path, n) for n in sorted(os.listdir(path))
                  if n.endswith(".json")] if os.path.isdir(path) else [path])
        for name in files:
            with open(name) as f:
                rows.extend(json.load(f)["rows"])
    return rows


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def by_workload(rows):
    """workload -> {"runs": valid rows, "invalid": count}."""
    out = {}
    for row in rows:
        entry = out.setdefault(row["workload"], {"runs": [], "invalid": 0})
        if row["valid"]:
            entry["runs"].append(row)
        else:
            entry["invalid"] += 1
    return out


def values(runs, section, name):
    return [r[section][name]["value"] for r in runs if name in r[section]]


def failed_ratio(runs):
    attempted = sum(r["ops_attempted"] for r in runs)
    return sum(r["ops_failed"] for r in runs) / attempted if attempted else 0.0


def verdict(base, new, better, bound):
    """Verdict for one (workload, metric) pairing of two value lists."""
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (nm - bm) / bm if bm else 0.0
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if bm and (b3 - b1) / abs(bm) > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "ok"


def compare(spec, base_rows, new_rows, out=sys.stdout):
    """Prints the comparison; returns True when nothing regressed."""
    base, new = by_workload(base_rows), by_workload(new_rows)
    good = True
    fmt = "%-11s %-15s %-33s %-33s %7s  %s"
    print(fmt % ("workload", "metric", "base median [q1, q3]",
                 "new median [q1, q3]", "change", "verdict"), file=out)
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in new or not base[w]["runs"] or \
                not new[w]["runs"]:
            if w in base or w in new:
                print("%-11s missing valid runs on one side" % w, file=out)
                good = False
            continue
        for side, entry in (("base", base[w]), ("new", new[w])):
            if entry["invalid"]:
                print("%-11s %d invalid %s run(s) left out"
                      % (w, entry["invalid"], side), file=out)
        for m in spec["end_to_end"]:
            b = values(base[w]["runs"], "e2e", m["name"])
            n = values(new[w]["runs"], "e2e", m["name"])
            if not b or not n:
                print("%-11s %-15s missing" % (w, m["name"]), file=out)
                good = False
                continue
            v = verdict(b, n, m["better"], m["bound"])
            good = good and v != "regressed"
            bm, nm = quartiles(b)[1], quartiles(n)[1]
            change = "%+.1f%%" % (100 * (nm - bm) / bm) if bm else ""
            print(fmt % (w, m["name"], cell(b), cell(n), change, v), file=out)
        fb, fn = failed_ratio(base[w]["runs"]), failed_ratio(new[w]["runs"])
        v = "regressed" if fn > fb else "ok"
        good = good and v == "ok"
        print(fmt % (w, "failed_ratio", "%.6g" % fb, "%.6g" % fn, "", v),
              file=out)
    return good


def snapshot(spec, rows):
    """Every run plus, per (workload, metric), median, quartiles and spread.

    The runs keep their metrics and counts but drop the raw per-sample
    arrays and span times, which would make the file megabytes long."""
    rows = [{k: v for k, v in r.items() if k not in ("raw", "spans")}
            for r in rows]
    summary = {}
    for w, entry in by_workload(rows).items():
        runs = entry["runs"]
        s = summary.setdefault(w, {"runs": len(runs),
                                   "invalid_runs": entry["invalid"],
                                   "failed_ratio": failed_ratio(runs),
                                   "metrics": {}})
        for section, defs in (("e2e", spec["end_to_end"]),
                              ("layer", spec["per_layer"])):
            for m in defs:
                v = values(runs, section, m["name"])
                if not v:
                    continue
                q1, med, q3 = quartiles(v)
                s["metrics"][m["name"]] = {
                    "unit": m["unit"], "values": v, "median": med, "q1": q1,
                    "q3": q3,
                    "spread_iqr": (q3 - q1) / med if med else 0.0,
                    "spread_range": (max(v) - min(v)) / med if med else 0.0}
    return {"summary": summary, "rows": rows}


def self_test():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "tput", "unit": "1/s", "better": "higher",
                 "bound": 0.1}],
            "per_layer": []}

    def rows(lat, tput, failed=0, valid=True):
        return [{"workload": "w", "valid": valid, "ops_attempted": 100,
                 "ops_failed": failed,
                 "e2e": {"lat": {"value": a, "unit": "ms"},
                         "tput": {"value": b, "unit": "1/s"}}}
                for a, b in zip(lat, tput)]

    base = rows([10, 10.1, 9.9, 10.05, 9.95], [100, 101, 99, 100.5, 99.5])
    quiet = open(os.devnull, "w")
    assert compare(spec, base, base, quiet), "identical sets must pass"
    slower = rows([12, 12.1, 11.9, 12.05, 11.95], [100] * 5)
    assert not compare(spec, base, slower, quiet), "20% slower must fail"
    lower_tput = rows([10] * 5, [85, 86, 84, 85, 85])
    assert not compare(spec, base, lower_tput, quiet), "-15% tput must fail"
    assert compare(spec, base, rows([8] * 5, [120] * 5), quiet), \
        "an improvement passes"
    assert verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.1) == \
        "improved"
    noisy = rows([5, 10, 15, 20, 8], [100] * 5)
    assert verdict(values(noisy, "e2e", "lat"), [30] * 3, "lower", 0.1) \
        == "unresolved", "a noisy base cannot judge"
    assert not compare(spec, base, rows([10] * 5, [100] * 5, failed=1),
                       quiet), "more failures must fail"
    assert not compare(spec, base, rows([10] * 5, [100] * 5, valid=False),
                       quiet), "no valid runs must fail"
    snap = snapshot(spec, base)
    assert snap["summary"]["w"]["metrics"]["lat"]["median"] == 10
    assert len(snap["rows"]) == 5
    print("compare.py self-test: ok")


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of relaxbench results.")
    parser.add_argument("sets", nargs="*", help="BASE NEW, or one set")
    parser.add_argument("--snapshot", action="store_true",
                        help="print a summary of one set as JSON")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.snapshot:
        json.dump(snapshot(spec, load_rows(args.sets)), sys.stdout, indent=1)
        print()
        return 0
    if len(args.sets) != 2:
        parser.error("give two sets: BASE NEW")
    return 0 if compare(spec, load_rows([args.sets[0]]),
                        load_rows([args.sets[1]])) else 1


if __name__ == "__main__":
    sys.exit(main())
