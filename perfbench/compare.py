#!/usr/bin/env python3
"""Compares two result sets of the benchmark.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the records `perfbench/run.py --out DIR` saves, one
per run (any seeds). For every workload and every end-to-end metric in
BENCHMARK.json, prints both medians, both quartiles and a verdict under
the metric's own bound:

  worse       the new median is worse than the old by more than the bound
  unresolved  the old runs spread wider than the bound, and not every new
              run beats every old run
  better      the new median is better by more than the old runs' spread
              and the new side wins at least 9 in 10 of the paired runs
  same        otherwise

The figures a run records under `detail` (the per-input and per-engine
parts of an end-to-end metric, such as `build_dblp_s`) follow, medians
side by side without a verdict. Traced runs (`--trace 1`) are listed
last, per-layer metric medians side by side, with each traced end-to-end
figure (`e2e.*`) beside the untraced one so the tracing overhead shows.
The serve daemon is not instrumented, so its traced `e2e.*` figures come
from an untraced daemon cycle and their ratio shows run-to-run noise
only; the in-process replay's own figures are `replay.*`. Exits 1 when a
verdict is `worse` or a run is incorrect.
"""

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, trace): [record, ...]} of a result set, by seed."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def metrics(record):
    """Every figure of a run: its result's metrics and its detail."""
    return {**record.get("detail", {}), **record["result"]["metrics"]}


def values(records, metric):
    return [metrics(r)[metric]["value"] for r in records if metric in metrics(r)]


def medians_side_by_side(title, spec, old, new, trace):
    """Prints the median of every figure either side's runs recorded."""
    print(f"\n{'workload':8} {title:45} {'old median':>12} {'new median':>12}")
    for w in spec["workloads"]:
        workload = w["name"]
        o, n = old.get((workload, trace), []), new.get((workload, trace), [])
        gated = {m["name"] for m in spec["end_to_end"]} if trace == 0 else set()
        names = sorted({k for r in o + n for k in metrics(r)} - gated)
        for name in names:
            ov, nv = values(o, name), values(n, name)
            cell = lambda v: f"{statistics.median(v):12.4g}" if v else f"{'-':>12}"
            line = f"{workload:8} {name:45} {cell(ov)} {cell(nv)}"
            if name.startswith("e2e."):
                untraced = values(new.get((workload, 0), []), name[4:])
                if untraced and nv:
                    line += (f"   untraced {statistics.median(untraced):.4g}, "
                             f"traced/untraced {statistics.median(nv) / statistics.median(untraced):.3f}")
            print(line)


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(old, new, better, bound):
    """The verdict for lower- or higher-is-better values under `bound`."""
    sign = 1 if better == "lower" else -1
    oq1, omed, oq3 = quartiles(old)
    _, nmed, _ = quartiles(new)
    worse_by = sign * (nmed - omed) / abs(omed)
    spread = (oq3 - oq1) / abs(omed)
    wins = sum(1 for o, n in zip(old, new) if sign * (n - o) < 0)
    all_better = max(sign * n for n in new) < min(sign * o for o in old)
    if worse_by > bound:
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    if -worse_by > spread and wins >= 0.9 * min(len(old), len(new)):
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    old, new = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for side, runs in (("old", old), ("new", new)):
        for (workload, _), records in sorted(runs.items()):
            bad = [r["seed"] for r in records if not r["result"]["correct"]]
            if bad:
                print(f"{side} {workload}: incorrect runs, seeds {bad}")
                status = 1

    print(f"{'workload':8} {'metric':30} {'old q1 / median / q3':>34} "
          f"{'new q1 / median / q3':>34} {'delta':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        workload = w["name"]
        o, n = old.get((workload, 0), []), new.get((workload, 0), [])
        for m in spec["end_to_end"]:
            ov, nv = values(o, m["name"]), values(n, m["name"])
            if not ov or not nv:
                continue
            oq, nq = quartiles(ov), quartiles(nv)
            v = verdict(ov, nv, m["better"], m["bound"])
            status |= v == "worse"
            delta = (nq[1] - oq[1]) / abs(oq[1])
            print(f"{workload:8} {m['name'] + ' (' + m['unit'] + ')':30} "
                  f"{oq[0]:10.4g} {oq[1]:11.4g} {oq[2]:11.4g} "
                  f"{nq[0]:10.4g} {nq[1]:11.4g} {nq[2]:11.4g} "
                  f"{delta:+8.1%} {m['bound']:6.2f}  {v}")

    medians_side_by_side("detail (untraced, no bound)", spec, old, new, 0)
    medians_side_by_side("per-layer metric and detail (traced)", spec, old, new, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
