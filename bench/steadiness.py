"""Steadiness mode: run every workload in two sets of ten runs, one seed per
run, and print for every end-to-end metric its median, quartiles, spread and
bound in each set, and how far the second set's median moved from the first.

    python3 bench/steadiness.py

Run from the root of a source checkout.  The runs go one after another,
with the command and run length from ``BENCHMARK.json``: first seeds 1-10 on
every workload, then seeds 11-20, so that the two sets are apart in time.
The spread is the distance between the quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.

The two sets agree when, for every metric (``setup_s`` too), each set's
spread is within the metric's bound and the second median is within the
bound of the first, and when every run is correct with the same share of
failed jobs; the exit status is 0 only then.  A spread is marked ``ok``
below a third of its bound, the aim that leaves room for the bound to catch
a change, ``wide`` above that and ``OVER`` above the bound itself.  Each
run's result line is appended to ``bench/out/steadiness.jsonl``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_SETS = (range(1, 11), range(11, 21))


def _run(spec, workload, seed, log) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "run_s": time.perf_counter() - started, **result}) + "\n")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "steadiness.jsonl")
    results = {(name, k): [_run(spec, name, seed, log) for seed in seeds]
               for k, seeds in enumerate(SEED_SETS) for name in names}

    agree, wide = True, 0
    for name in names:
        runs = results[name, 0] + results[name, 1]
        shares = {r["failed"] / r["attempted"] for r in runs}
        right = all(r["correct"] for r in runs)
        agree = agree and right and len(shares) == 1
        print(f"{name}: seeds {SEED_SETS[0].start}-{SEED_SETS[-1].stop - 1}, "
              f"failed share {sorted(shares)}, correct {right}")
        for metric in spec["end_to_end"]:
            bound, medians = metric["bound"], []
            for k, seeds in enumerate(SEED_SETS):
                values = [r["metrics"][metric["name"]]["value"] for r in results[name, k]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                mark = "ok" if spread < bound / 3 else "wide" if spread <= bound else "OVER"
                agree = agree and mark != "OVER"
                wide += mark != "ok"
                medians.append(median)
                print(f"  {metric['name']:<12} seeds {seeds.start:>2}-{seeds.stop - 1:<2} "
                      f"median {median:10.4f} {metric['unit']:<4} q1 {q1:10.4f} "
                      f"q3 {q3:10.4f} spread {spread:6.3f} bound {bound:.2f} {mark}")
            shift = medians[1] / medians[0] - 1
            ok = abs(shift) <= bound
            agree = agree and ok
            print(f"  {metric['name']:<12} second median moved {shift:+.3f} "
                  f"bound {bound:.2f} {'ok' if ok else 'MOVED'}")
    print(f"{'the two sets agree' if agree else 'the two sets DISAGREE'} within the bounds; "
          f"{wide} spreads of {2 * len(names) * len(spec['end_to_end'])} above a third "
          "of their bound")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
