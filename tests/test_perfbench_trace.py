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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_flat_job_counts_the_section_layers():
    job = os.path.join(ROOT, "perfbench", "job.py")
    argv = [sys.executable, job, "flat", "101", repr(time.monotonic()), "--trace"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    trace = json.loads(done.stdout.splitlines()[-1])["trace"]
    # the layers the benchmark's self-test requires on flat, the suite layer
    # included
    for name in (
        "courant.dorfman.calls",
        "courant.pairing.calls",
        "endo.apply.calls",
        "nijenhuis.connection.calls",
        "nijenhuis.concomitant_statuses.residuals_tested",
    ):
        assert trace[name] > 0, name
