"""Benchmark of the coregroups engines: four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

Runs from the root of a checkout and imports the program from ``src``.
The seed gives a fixed number of variants per workload, each a job list
built from a sub-seed.  Each variant runs in a fresh process, one after
another, with one job in flight (closed loop, no threads): set-up (import,
corpus load, input generation), then passes over its job list until its
share of ``--seconds`` is used.  Reported figures are medians over the
variants, so one blow-up on one input moves no figure.

Each job runs under a CPU-time budget.  A job over budget, one that
raises and one with a wrong answer count as failed; a wrong answer also
makes the run exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` times one
untraced pass per variant, traces the following ones (see spans.py),
reports the per-layer metrics and the tracing overhead, and writes the
spans to ``bench/out/``.  The last line of stdout is one JSON object;
``--out`` also appends the full record to a JSON-lines file, the input
of compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(workloads.BUILDERS)
LAYER_MODULES = ("diagrams", "linkgroups", "abelian", "enumeration", "presentations",
                 "moves", "verification")
RUN_LIMIT_S = 170  # every variant process is stopped by then
MISSING_PROGRAM = 3  # exit code of a variant process that finds no program


class ProgramMissing(Exception):
    pass


class BudgetExceeded(BaseException):
    """Raised from the CPU-time signal; a BaseException so that no handler
    in the program swallows it."""


class Budget:
    """Per-job CPU-time limit through ITIMER_PROF."""

    def __init__(self, seconds, where=lambda: None):
        self.seconds = seconds
        self.where = where
        self.armed = False
        signal.signal(signal.SIGPROF, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise BudgetExceeded(self.where())

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, self.seconds)

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)


# -- one variant, in its own process ------------------------------------------


def import_program():
    """Import coregroups from this checkout's src directory."""
    src = ROOT / "src"
    if not (src / "coregroups" / "__init__.py").is_file():
        raise ProgramMissing(f"no coregroups package under {src}")
    sys.path.insert(0, str(src))
    import importlib
    pkg = importlib.import_module("coregroups")
    if Path(pkg.__file__).resolve().parent != (src / "coregroups").resolve():
        raise ProgramMissing(f"coregroups imported from {pkg.__file__}, not from {src}")
    ns = argparse.Namespace(package=pkg)
    for name in LAYER_MODULES:
        setattr(ns, name, importlib.import_module(f"coregroups.{name}"))
    return ns


def run_pass(cg, wl, tracer=None):
    """One pass over the job list: wall seconds, per-job seconds, per-job
    status, outputs of the jobs that finished, failed checks."""
    budget = Budget(wl.budget_s, tracer.innermost if tracer else (lambda: None))
    times, status, outs, problems = [], [], {}, []
    start = time.perf_counter()
    for index, job in enumerate(wl.jobs):
        if tracer:
            tracer.start_job(index, job.size)
        t0 = time.perf_counter()
        try:
            with budget:
                if tracer and job.span:
                    with tracer.span(job.span):
                        outcome = job.fn(cg)
                else:
                    outcome = job.fn(cg)
        except BudgetExceeded as exc:
            times.append(time.perf_counter() - t0)
            where = exc.args[0] if exc.args else None
            status.append(f"over budget in {where}" if where else "over budget")
            if tracer and where:
                tracer.count(where.split(".")[0] + ".over_budget")
            continue
        except Exception as exc:  # a job that raises is a failed job, named in the output
            times.append(time.perf_counter() - t0)
            status.append(f"raised {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        outs[job.name] = outcome.out
        if tracer:
            for key, n in outcome.counts.items():
                tracer.count(key, n)
        problems += outcome.problems
        status.append("wrong answer" if outcome.problems else "ok")
    return time.perf_counter() - start, times, status, outs, problems


def run_variant(workload, seed, variant, seconds, trace):
    """Set up and measure one variant; returns a JSON-able summary."""
    start = time.perf_counter()
    cg = import_program()
    corpus = cg.verification.load_corpus()
    wl = workloads.BUILDERS[workload](cg, corpus, seed * 100 + variant)
    setup_s = time.perf_counter() - start

    passes, layer, tracer = [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        if trace and passes and tracer is None:
            from spans import Tracer
            tracer = Tracer()
            tracer.instrument()
        if tracer:
            tracer.reset_totals()
        passes.append(run_pass(cg, wl, tracer))
        if tracer:
            layer.append((dict(tracer.busy), dict(tracer.counts)))
        typical = statistics.median(p[0] for p in passes)
        if deadline - time.perf_counter() < typical and (not trace or layer):
            break

    first = passes[0][3]
    problems = [x for p in passes for x in p[4]]
    for _, _, _, outs, _ in passes[1:]:
        for name in outs.keys() & first.keys():
            if json.dumps(outs[name], sort_keys=True) != json.dumps(first[name], sort_keys=True):
                problems.append(f"{name}: output differs between passes")
    timed = passes[1:] if trace else passes
    summary = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "budget_s": wl.budget_s,
        "jobs": [job.name for job in wl.jobs],
        "walls": [p[0] for p in timed],
        "job_s": [statistics.median(p[1][i] for p in timed) for i in range(len(wl.jobs))],
        "status": [p[2] for p in passes],
        "outs": first,
        "problems": problems,
    }
    if trace:
        from spans import per_layer_names
        tracer.restore()
        summary["untraced_wall"] = passes[0][0]
        summary["layer"] = {
            name: statistics.median(p[unit == "count"].get(name, 0) for p in layer)
            for name, unit in per_layer_names(workloads.BIG_SIZES)
            if not name.startswith("trace.")}
        summary["spans"] = len(tracer.spans)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-{seed}-v{variant}.jsonl")
    return summary


# -- a workload: its variants, one process each --------------------------------


def measure(workload, seed, seconds, trace):
    count = workloads.VARIANTS[workload]
    started = time.monotonic()
    variants = []
    for v in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds / count), "--trace", str(trace),
               "--variant", str(v)]
        limit = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=limit)
        if proc.returncode == MISSING_PROGRAM:
            raise ProgramMissing(proc.stderr.strip())
        if proc.returncode != 0:
            raise RuntimeError(f"variant {v} of {workload} failed:\n{proc.stderr}")
        variants.append(json.loads(proc.stdout.splitlines()[-1]))

    statuses = [x for s in variants for p in s["status"] for x in p]
    failures = {}  # the last failure of each job: traced passes name the layer
    for v, s in enumerate(variants):
        for p in s["status"]:
            failures.update((f"v{v}/{name}", x) for name, x in zip(s["jobs"], p) if x != "ok")
    problems = [f"v{v}/{x}" for v, s in enumerate(variants) for x in s["problems"]]
    attempted = len(statuses)
    failed = sum(1 for x in statuses if x != "ok")
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "variants": count,
        "passes": sum(len(s["status"]) for s in variants),
        "jobs": sum(len(s["jobs"]) for s in variants), "budget_s": variants[0]["budget_s"],
        "digest": digest_of({f"v{v}": s["outs"] for v, s in enumerate(variants)}),
        "job_digests": {f"v{v}/{name}": digest_of(out) for v, s in enumerate(variants)
                        for name, out in s["outs"].items()},
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "failures": [f"{job}: {x}" for job, x in sorted(failures.items())],
        "job_s": {f"v{v}/{name}": t for v, s in enumerate(variants)
                  for name, t in zip(s["jobs"], s["job_s"])},
    }
    med = statistics.median
    if not trace:
        record["metrics"] = {
            "wall_s": (med(med(s["walls"]) for s in variants), "s"),
            "slowest_job_s": (med(max(s["job_s"]) for s in variants), "s"),
            "done_ratio": (med(done_share(s["status"]) for s in variants), "jobs/jobs"),
            "setup_s": (med(s["setup_s"] for s in variants), "s"),
            "peak_rss_mb": (med(s["rss_mb"] for s in variants), "MB"),
        }
    else:
        from spans import per_layer_names
        metrics = {name: (med(s["layer"][name] for s in variants), unit)
                   for name, unit in per_layer_names(workloads.BIG_SIZES)
                   if not name.startswith("trace.")}
        traced = med(med(s["walls"]) for s in variants)
        untraced = med(s["untraced_wall"] for s in variants)
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.spans"] = (sum(s["spans"] for s in variants), "count")
        record["metrics"] = metrics
    return record


def done_share(passes):
    """Share of job runs that ended ok."""
    runs = [x for p in passes for x in p]
    return sum(1 for x in runs if x == "ok") / len(runs)


def digest_of(outs):
    text = json.dumps(outs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def print_record(record):
    print(f"workload {record['workload']} seed {record['seed']}: {record['variants']} variants, "
          f"{record['jobs']} jobs, {record['passes']} passes, "
          f"budget {record['budget_s']} s CPU per job")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    ratio = record["failed"] / record["attempted"]
    print(f"  fail_ratio = {ratio:.6g} jobs/jobs ({record['failed']} of {record['attempted']})")
    for line in record["failures"]:
        print(f"  failed job {line}")
    for line in record["problems"]:
        print(f"  WRONG {line}")
    print(f"  digest {record['digest']}", flush=True)


def final_line(record):
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--variant", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.variant is not None:
        try:
            summary = run_variant(args.workload, args.seed, args.variant, args.seconds, args.trace)
        except ProgramMissing as exc:
            print(exc, file=sys.stderr)
            return MISSING_PROGRAM
        print(json.dumps(summary))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, args.trace)
        except ProgramMissing as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        print_record(record)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
        records.append(record)
    if len(records) == 1:
        print(final_line(records[0]), flush=True)
    else:
        combined = {"correct": all(r["correct"] for r in records), "attempted": 0, "failed": 0,
                    "metrics": {}}
        for r in records:
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
            combined["metrics"].update((f"{r['workload']}.{k}", v) for k, v in r["metrics"].items())
        print(final_line(combined), flush=True)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
