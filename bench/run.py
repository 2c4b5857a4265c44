"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  The workload runs in this one process, as a closed loop on one
thread: its jobs (see ``workloads.py``) run one at a time, in rounds of the
same jobs, for ``--seconds`` (a round starts only while it should end in
time).  Each job is timed alone and checked afterwards, outside its timing.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` they are the per-layer ones: the
first round runs untraced as a warm-up, and in every later round each job
runs twice, traced and untraced back to back, so that the tracing's overhead
is measured against the same moments of the machine.  A record of every job
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# one thread: numpy must not start a pool of its own (set before it loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_STARTS = 15  # fresh interpreters timed for setup_s; one start varies 0.13-0.22 s


def _import_program():
    """Import the program from the checkout; exit 1 when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hkfun", "__init__.py")):
        sys.exit(f"bench: no program source at {src}")
    sys.path.insert(0, src)
    started = time.perf_counter()
    import hkfun  # noqa: F401
    import hkfun.cli  # noqa: F401
    return time.perf_counter() - started


def _setup_only(args, import_s: float) -> None:
    """Body of one timed fresh start, after the import: build the inputs and
    the closed-form references.  Prints the import time."""
    import workloads
    workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"import_s": import_s}))


def _time_setup(args) -> tuple[float, float]:
    """Median wall time of fresh starts until the workload is ready, and the
    median import time inside them."""
    walls, imports = [], []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_STARTS):
        started = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        walls.append(time.perf_counter() - started)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


def _check(job, result, memo) -> tuple[list[str], float | None]:
    """The job's check and its known-fault gap, once per distinct output: a
    check depends on the output alone, and every round repeats the same jobs."""
    key = (job.label, repr(result))
    if key not in memo:
        try:
            fails = job.check(result)
            memo[key] = fails, None if fails else job.known_fault_gap(result)
        except Exception as exc:  # malformed output fails the job
            memo[key] = [f"check raised {type(exc).__name__}: {exc}"], None
    return memo[key]


def _run_job(job, round_no, traced, tracer, memo) -> dict:
    """Time one job alone, then check it."""
    tracer_on = tracer is not None and traced
    if tracer_on:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result, error = job.run(), None
    except Exception as exc:  # a crash is a failed job, not a failed run
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer_on:
        tracer.active = False
    fails, gap = ([error], None) if error else _check(job, result, memo)
    return {"round": round_no, "job": job.label, "s": elapsed, "traced": traced,
            "failures": fails, "known_fault_gap_q": gap}


def _run_rounds(jobs, seconds, tracer):
    """Closed loop over whole rounds, starting a round only while it should
    end within ``seconds``.  With a tracer, the first round is an untraced
    warm-up and every later round runs each job untraced and traced, in
    alternating order."""
    records, rounds, memo = [], [], {}
    least = 1 if tracer is None else 2
    started = time.perf_counter()
    last = 0.0
    while len(rounds) < least or time.perf_counter() - started + last <= seconds:
        round_started = time.perf_counter()
        paired = tracer is not None and len(rounds) > 0
        walls = {False: 0.0, True: 0.0}
        for i, job in enumerate(jobs):
            order = (False,) if not paired else \
                (False, True) if (i + len(rounds)) % 2 == 0 else (True, False)
            for traced in order:
                record = _run_job(job, len(rounds), traced, tracer, memo)
                walls[traced] += record["s"]
                records.append(record)
        rounds.append({"wall_s": walls[False], "traced_wall_s": walls[True] if paired else None,
                       "layers": tracer.snapshot() if paired else None})
        last = time.perf_counter() - round_started
    return records, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_s = _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        _setup_only(args, import_s)
        return 0

    setup_s, import_s = _time_setup(args)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    try:
        records, rounds = _run_rounds(jobs, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    failed = [r for r in records if r["failures"] or r["known_fault_gap_q"] is not None]
    correct = not any(r["failures"] for r in records)
    if args.trace:
        paired = [r for r in rounds if r["layers"] is not None]
        metrics = layers.layer_metrics([r["layers"] for r in paired])
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["trace.wall_s"] = {"value": statistics.mean(r["traced_wall_s"] for r in paired),
                                   "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.mean(r["traced_wall_s"] - r["wall_s"] for r in paired),
            "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.mean(r["wall_s"] for r in rounds), "unit": "s"},
            "job_s.p50": {"value": statistics.median(r["s"] for r in records), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MiB"},
        }

    pure = [j.pure_power for j in jobs if j.pure_power is not None]
    gaps = {r["job"]: r["known_fault_gap_q"] for r in records
            if r["known_fault_gap_q"] is not None}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": len(rounds), "jobs_per_round": len(jobs),
               "pure_power_share": sum(pure) / len(pure) if pure else None,
               "known_fault_gap_q": gaps,
               "round_wall_s": [r["wall_s"] for r in rounds]}
    for r in failed:
        print(f"{'FAILED' if r['failures'] else 'known fault'}: round {r['round']} "
              f"{r['job']}: " + ("; ".join(r["failures"][:3]) if r["failures"] else
                                 f"{r['known_fault_gap_q']:.3f}/q from the closed form"))
    print(json.dumps(summary))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**summary, "metrics": metrics, "jobs": records,
                   "layers": [r["layers"] for r in rounds]}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
