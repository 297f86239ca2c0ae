"""The benchmark's traced job still wraps the engine.

perfbench/spans.py replaces every binding of the functions it traces and
refuses to run if one is left over, so a refactor that renames or rebinds a
traced function fails here rather than first in the benchmark.  The test
only runs perfbench/job.py; it changes nothing under perfbench/.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the counts the benchmark's self-test requires of each workload, the suite
# layer included; only nonintegrable takes gcds and searches for witnesses
REQUIRED = {
    "flat": (),
    "nonintegrable": (
        "scalar.poly_gcd.calls",
        "scalar.divexact.calls",
        "scalar.evaluate.calls",
        "report.find_nonzero_point.calls",
        "report.find_nonzero_point.evaluations",
    ),
}


@pytest.mark.parametrize("workload", sorted(REQUIRED))
def test_traced_job_counts_the_layers(workload):
    job = os.path.join(ROOT, "perfbench", "job.py")
    argv = [sys.executable, job, workload, "101", repr(time.monotonic()), "--trace"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    trace = json.loads(done.stdout.splitlines()[-1])["trace"]
    for name in (
        "courant.dorfman.calls",
        "courant.pairing.calls",
        "endo.apply.calls",
        "nijenhuis.connection.calls",
        "nijenhuis.concomitant_statuses.residuals_tested",
    ) + REQUIRED[workload]:
        assert trace[name] > 0, name
