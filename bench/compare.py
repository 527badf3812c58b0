"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out`` appends.  Runs are
paired in file order per workload and trace mode, so run them
alternately (base, change, base, ...) with the same seeds.  For each
workload and metric this prints each side's median and quartiles, the
share of pairs the change wins, and a verdict:

- ``better`` / ``worse``: the change wins (loses) at least 9 in 10 pairs,
  ties counting for neither, and the medians differ by more than the
  base's own spread (the distance between its quartiles) or every run of
  one side beats every run of the other;
- ``unresolved``: anything else, including a difference inside that
  spread (it is not evidence of "unchanged") and fewer than 10 pairs.

A median worse than the base's by more than the metric's bound in
``BENCHMARK.json`` is flagged.  A job of one workload and seed whose
output digest differs between any two runs is reported as a correctness
difference.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values, unit):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] {unit}"


def declared():
    """metric -> (better, bound) from BENCHMARK.json, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def verdict(base, change, lower_is_better):
    pairs = list(zip(base, change))
    sign = -1 if lower_is_better else 1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    share = wins / len(pairs)
    if len(pairs) < MIN_PAIRS:
        return share, f"unresolved ({len(pairs)} pairs, fewer than {MIN_PAIRS})"
    q1, q3 = quartiles(base)
    gap = statistics.median(change) - statistics.median(base)
    if abs(gap) > q3 - q1 or min(change) > max(base) or max(change) < min(base):
        if wins >= 0.9 * len(pairs):
            return share, "better"
        if losses >= 0.9 * len(pairs):
            return share, "worse"
    return share, "unresolved"


def digest_differences(records):
    """(workload, seed, job) whose output digest differs between runs.
    Only jobs that finished in both runs are compared: whether a job
    near its budget finishes depends on the machine, not the program."""
    seen, differ = {}, set()
    for r in records:
        for job, digest in r["job_digests"].items():
            key = (r["workload"], r["seed"], job)
            if seen.setdefault(key, digest) != digest:
                differ.add(key)
    return differ


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    spec = declared()
    groups = sorted({(r["workload"], r["trace"]) for r in base}
                    & {(r["workload"], r["trace"]) for r in change})
    status = 0
    print(f"{'workload':14s} {'metric':30s} {'base: median [q1, q3]':40s} "
          f"{'change: median [q1, q3]':40s} {'wins':>5s}  verdict")
    for workload, trace in groups:
        a = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        for metric, (_, unit) in a[0]["metrics"].items():
            va = [r["metrics"][metric][0] for r in a if metric in r["metrics"]]
            vb = [r["metrics"][metric][0] for r in b if metric in r["metrics"]]
            if not va or not vb:
                continue
            better, bound = spec.get(metric, ("lower", None))
            share, word = verdict(va, vb, better == "lower")
            ma, mb = statistics.median(va), statistics.median(vb)
            worse_by = (mb - ma) if better == "lower" else (ma - mb)
            if bound is not None and ma and worse_by > bound * abs(ma):
                word += f"; worse than the base by more than its bound {bound:g}"
                status = 1
            print(f"{workload:14s} {metric:30s} {summary(va, unit):40s} {summary(vb, unit):40s} "
                  f"{share:5.0%}  {word}")
    for workload, seed, job in sorted(digest_differences(base + change)):
        print(f"correctness difference: {workload} seed {seed} job {job}: outputs differ")
        status = 1
    for side, records in (("base", base), ("change", change)):
        for r in records:
            if not r["correct"]:
                print(f"wrong answers in {side}: {r['workload']} seed {r['seed']}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
