"""Check that the Tier-1 run fails exactly the red-by-design tests.

    python tests/check_red_set.py

runs the Tier-1 command from the repository root, reads the failing and erroring
node ids from pytest's short summary, and compares them with RED, the tests that
fail by design (README, Tests).  It exits 0 when the two sets are equal and 1 on any
difference, in either direction: a red test that passes or a green test that fails.
It only reads pytest's report; it never skips, marks or changes an outcome.  Its
name keeps pytest from collecting it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

RED = frozenset({
    "tests/test_acceptance.py::test_criterion_06_instability_negative_control",
    "tests/test_acceptance.py::test_criterion_07_inequality_suite",
    "tests/test_penrose.py::TestTwoStreamClaims::test_margin_vanishes",
    "tests/test_penrose.py::TestTwoStreamClaims::test_unstable_root_count",
    "tests/test_penrose.py::TestTwoStreamClaims::test_no_stable_strip",
    "tests/test_penrose.py::TestTwoStreamClaims::test_growth_rate_root",
    "tests/test_penrose.py::TestTwoStreamClaims::test_margin_transition_in_separation",
})

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE"]
SUMMARY = re.compile(r"^(?:FAILED|ERROR) (\S+?)(?: - .*)?$")


def failing_ids(report: str) -> set:
    """Node ids of the FAILED and ERROR lines of pytest's short test summary."""
    return {m.group(1) for m in map(SUMMARY.match, report.splitlines()) if m}


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    sys.stdout.write(done.stdout[-2000:])
    failed = failing_ids(done.stdout)
    if done.returncode not in (0, 1):  # interrupted, internal error, usage error, no tests
        print(f"pytest exited {done.returncode}; no verdict", file=sys.stderr)
        return 1
    unexpected, passing = sorted(failed - RED), sorted(RED - failed)
    for node in unexpected:
        print(f"unexpected failure: {node}")
    for node in passing:
        print(f"red-by-design test did not fail: {node}")
    print(f"red set {'matches' if not (unexpected or passing) else 'differs'}: "
          f"{len(failed)} failing, {len(RED)} expected")
    return 1 if unexpected or passing else 0


if __name__ == "__main__":
    sys.exit(main())
