"""Alternated parent/change pairs of benchmark runs, written to one file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json

PARENT_DIR and CHANGE_DIR are roots of two source checkouts.  Before the
first pair, ``python3 -m compileall -q src bench`` runs in each, so that
both start with cached bytecode: ``setup_s`` times fresh interpreters, and
one that compiles the package first reads slower than one that loads it.
For every workload in ``BENCHMARK.json``, pair i runs its command (``python3
bench/run.py``) with ``--seed 21+i`` for i < 10, the file's
``run_seconds`` and ``--trace 0`` once in each checkout, one run after the
other: the parent first in even pairs, the change first in odd ones, so
that a drift of the machine's speed falls on both sides alike.  Ten pairs
is the least that can show a change winning nine of ten.

The output, written at ``--out`` relative to the root of this checkout,
names each side's commit (``git rev-parse HEAD``) and whether its tree had
uncommitted changes, and holds for each workload each run's ``correct``,
``attempted`` and ``failed`` counts, each side's median ``attempted`` count
and the ratio of the two (change over parent), and, per end-to-end metric,
both sides' raw values in pair order, each side's median and quartiles
(``statistics.quantiles``, n=4), the number of pairs the change won
(strictly better in the metric's direction), and whether the change's
median beats the parent's by more than the distance between the parent's
quartiles.  The exit status is 1 when any run is not ``correct``, 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
FIRST_SEED = 21


def _run(spec, checkout, workload, seed) -> dict:
    """One benchmark run in ``checkout``; its last stdout line is the result.
    A run that exits nonzero or prints no result is not correct."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "attempted": None, "failed": None, "metrics": {},
                "error": done.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def _commit(checkout) -> dict:
    """The checkout's HEAD and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "quartiles": [q1, q3]}


def _attempted_median(attempted: dict) -> dict:
    """Each side's median count of attempted jobs and their ratio, change
    over parent: a metric that grows with the jobs a run completes, such as
    ``peak_rss_mb``, moves with it.  None where a run gave no count."""
    if any(n is None for ns in attempted.values() for n in ns):
        return {"parent": None, "change": None, "ratio": None}
    medians = {side: statistics.median(ns) for side, ns in attempted.items()}
    return {**medians, "ratio": medians["change"] / medians["parent"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--out", required=True, help="output file, e.g. BENCH_7.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    commits = {side: _commit(checkout) for side, checkout in sides.items()}
    for checkout in sides.values():  # with the interpreter the benchmark runs
        subprocess.run([spec["command"][0], "-m", "compileall", "-q", "src", "bench"],
                       cwd=checkout, check=True)
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    correct = True
    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = _run(spec, sides[side], name, seed)
                correct = correct and result["correct"]
                runs[side].append(result)
                print(f"{name} seed {seed} {side}: correct {result['correct']}, wall_s "
                      f"{result['metrics'].get('wall_s', {}).get('value')}", flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            key, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["metrics"].get(key, {}).get("value") for r in rs]
                      for side, rs in runs.items()}
            entry = {"unit": metric["unit"], "better": metric["better"], **values}
            if all(v is not None for vs in values.values() for v in vs):
                parent, change = _summary(values["parent"]), _summary(values["change"])
                iqr = parent["quartiles"][1] - parent["quartiles"][0]
                gap = parent["median"] - change["median"] if lower \
                    else change["median"] - parent["median"]
                entry.update({
                    "parent_median": parent["median"], "parent_quartiles": parent["quartiles"],
                    "change_median": change["median"], "change_quartiles": change["quartiles"],
                    "change_wins": sum((c < p) if lower else (c > p)
                                       for p, c in zip(values["parent"], values["change"])),
                    "gap_exceeds_parent_iqr": gap > iqr,
                })
            metrics[key] = entry
        counts = {key: {side: [r[key] for r in rs] for side, rs in runs.items()}
                  for key in ("correct", "attempted", "failed")}
        workloads[name] = {"seeds": seeds, "seconds": spec["run_seconds"],
                           "first": ["parent" if i % 2 == 0 else "change"
                                     for i in range(len(seeds))],
                           **counts, "attempted_median": _attempted_median(counts["attempted"]),
                           "metrics": metrics}

    record = {**commits,
              "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "system": platform.system(), "processor": platform.machine()},
              "correct": correct, "workloads": workloads}
    with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
