"""Tier-1 gate: run the tier-1 suite and pass only on its known baseline.

    python3 tools/tier1_gate.py

Runs the tier-1 command of ROADMAP.md, ``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``, from the
root of this checkout, and reads its JUnit XML report.  Exits 0 only when
nothing errors (a collection error included), at least one test passes, and
the failed tests are exactly the two acceptance criteria that fail by design
(README "Acceptance status"); otherwise it names each unexpected failure,
each by-design failure that passed, and each error, and exits 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILS_BY_DESIGN = {"tests.test_acceptance::test_criterion_2_volume_oracle_convergence",
                   "tests.test_acceptance::test_criterion_6_irregular_formula"}


def _outcomes(report: str) -> dict[str, list[str]]:
    """The test ids of the report by outcome: passed, failed, error, skipped."""
    out: dict[str, list[str]] = {"passed": [], "failed": [], "error": [], "skipped": []}
    for case in ET.parse(report).iter("testcase"):
        test = "::".join(filter(None, (case.get("classname"), case.get("name"))))
        kinds = {child.tag for child in case} & {"failure", "error", "skipped"}
        if "error" in kinds:
            out["error"].append(test)
        elif "failure" in kinds:
            out["failed"].append(test)
        elif "skipped" in kinds:
            out["skipped"].append(test)
        else:
            out["passed"].append(test)
    return out


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", f"--junitxml={report}"],
                              cwd=ROOT, env=env)
        if not os.path.exists(report):
            print(f"tier-1 gate: pytest exited {done.returncode} without a report")
            return 1
        outcomes = _outcomes(report)
    failed = set(outcomes["failed"])
    problems = [f"error: {test}" for test in outcomes["error"]]
    problems += [f"unexpected failure: {test}" for test in sorted(failed - FAILS_BY_DESIGN)]
    problems += [f"by-design failure passed or is gone: {test}"
                 for test in sorted(FAILS_BY_DESIGN - failed)]
    if not outcomes["passed"]:
        problems.append("no test passed")
    counts = ", ".join(f"{len(tests)} {kind}" for kind, tests in outcomes.items())
    print(f"tier-1 gate: {counts}")
    for problem in problems:
        print(f"tier-1 gate: {problem}")
    print("tier-1 gate: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
