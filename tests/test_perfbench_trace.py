"""The benchmark's traced job still wraps the engine.

perfbench/spans.py replaces every binding of the functions it traces and
refuses to run if one is left over, so a refactor that renames or rebinds a
traced function fails here rather than first in the benchmark.  Each
workload's traced job must also make every count that perfbench/run.py's
self-test requires of it nonzero, so a change that routes the last calls of
a traced layer elsewhere fails here too.  The test only runs
perfbench/job.py and reads perfbench/run.py; it changes nothing under
perfbench/.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# the counts every workload makes
ALL = (
    "scalar.poly_mul.calls",
    "scalar.poly_mul.term_pairs",
    "scalar.poly_mul.peak_terms",
    "scalar.poly_add.calls",
    "scalar.field_add.calls",
    "scalar.field_mul.calls",
    "cartan.lie_bracket.calls",
    "cartan.lie_derivative.calls",
    "cartan.interior_product.calls",
    "cartan.exterior_derivative.calls",
    "courant.dorfman.calls",
    "courant.pairing.calls",
    "report.check.calls",
)
# a check adds the endomorphism and suite layers; axioms-n6 runs neither
CHECK = (
    "endo.apply.calls",
    "endo.compose.calls",
    "nijenhuis.connection.calls",
    "nijenhuis.concomitant_statuses.residuals_tested",
)
# only nonintegrable takes gcds and searches for witnesses
REQUIRED = {
    "flat": ALL + CHECK,
    "nonintegrable": ALL
    + CHECK
    + (
        "scalar.poly_gcd.calls",
        "scalar.divexact.calls",
        "scalar.evaluate.calls",
        "report.find_nonzero_point.calls",
        "report.find_nonzero_point.evaluations",
    ),
    "axioms-n6": ALL,
}


def test_lists_cover_the_self_test(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert set(REQUIRED) == set(run.WORKLOADS)
    for workload, names in REQUIRED.items():
        assert set(run.NONZERO["all"] + run.NONZERO[workload]) <= set(names), workload


@pytest.mark.parametrize("workload", sorted(REQUIRED))
def test_traced_job_counts_the_layers(workload):
    job = os.path.join(PERFBENCH, "job.py")
    argv = [sys.executable, job, workload, "101", repr(time.monotonic()), "--trace"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    trace = json.loads(done.stdout.splitlines()[-1])["trace"]
    for name in REQUIRED[workload]:
        assert trace[name] > 0, name
