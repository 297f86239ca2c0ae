"""Time to a verdict for hypercourant, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in a closed loop: jobs
run one at a time, each in a fresh interpreter (see job.py for why), and a
new job starts only after the previous one ended and only if it is expected
to end within --seconds.  Inputs come only from --seed; `--seed held-out`
selects the held-out seed, kept for confirming a claim on inputs not used
while the change was written.

Every result is checked against answers that come from the mathematics, not
from the engine, and every reported witness is re-evaluated with sympy.

--trace 0 prints the end-to-end metrics, --trace 1 adds one traced job and
prints the per-layer metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import sympy

from job import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

HELD_OUT_SEED = 900001
SETUP_SAMPLES = 15  # set-up is short and noisy, so it is sampled more often than the verdict
RUN_LIMIT_S = 170  # a run ends well inside the 180 s it is allowed

SUITES = ("axioms", "certification", "connection-laws", "identities", "theorem")
CONCOMITANTS = ("II", "JJ", "KK", "IJ", "JK", "KI")

# Known answers, from the mathematics of each input (see README.md).
EXPECTED = {
    "flat": {
        "dim": 4,
        "theorem": "hypercomplex",
        "vanishing": set(CONCOMITANTS),
        "passing": set(SUITES),
    },
    "nonintegrable": {
        "dim": 4,
        "theorem": "not-hypercomplex",
        "vanishing": {"II"},
        "passing": {"axioms", "connection-laws", "identities"},
    },
}

# Per-layer counts that are nonzero on each workload (self-test).
NONZERO = {
    "all": (
        "scalar.poly_mul.calls", "scalar.poly_mul.term_pairs", "scalar.poly_mul.peak_terms",
        "scalar.poly_add.calls", "scalar.field_add.calls", "scalar.field_mul.calls",
        "cartan.lie_bracket.calls", "cartan.lie_derivative.calls",
        "cartan.interior_product.calls", "cartan.exterior_derivative.calls",
        "courant.dorfman.calls", "courant.pairing.calls", "report.check.calls",
    ),
    "flat": (
        "endo.apply.calls", "endo.compose.calls", "nijenhuis.connection.calls",
        "nijenhuis.concomitant_statuses.residuals_tested",
    ),
    "nonintegrable": (
        "endo.apply.calls", "endo.compose.calls", "nijenhuis.connection.calls",
        "nijenhuis.concomitant_statuses.residuals_tested",
        "scalar.poly_gcd.calls", "scalar.divexact.calls", "scalar.evaluate.calls",
        "report.find_nonzero_point.calls", "report.find_nonzero_point.evaluations",
    ),
    "axioms-n6": (),
}


class JobFailed(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags) -> dict:
    """Run one job in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise JobFailed("no time left in this run")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload, str(seed)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(spawned), *flags], cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise JobFailed("timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise JobFailed(f"exit {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise JobFailed("no result")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# independent answers
# ---------------------------------------------------------------------------


def recheck_witness(w: dict, nvars: int) -> str | None:
    """Evaluate a witness with sympy alone; None when it holds."""
    xs = {f"x{k + 1}": sympy.Symbol(f"x{k + 1}") for k in range(nvars)}
    expr = sympy.parse_expr(w["expression"].replace("^", "**"), local_dict=xs)
    if len(w["point"]) != nvars:
        return f"{w['label']}: point has {len(w['point'])} coordinates"
    at = {xs[f"x{k + 1}"]: sympy.Rational(v) for k, v in enumerate(w["point"])}
    value = sympy.nsimplify(expr.subs(at))
    if value != sympy.Rational(w["value"]):
        return f"{w['label']}: sympy gives {value}, report says {w['value']}"
    if value == 0:
        return f"{w['label']}: witness value is zero"
    return None


def witnesses(report: dict):
    for suite in report.get("suites", []):
        for check in suite.get("checks", []):
            if "witness" in check:
                yield check["witness"]
        for status in suite.get("theorem", {}).get("concomitants", {}).values():
            if "witness" in status:
                yield status["witness"]
    for check in report.get("checks", []):
        if "witness" in check:
            yield check["witness"]


def wrong_answers(workload: str, report: dict) -> list:
    """Every way the report differs from the known answers."""
    problems = []
    if workload == "axioms-n6":
        checks = report["checks"]
        expected = 7 * WORKLOADS[workload]["trials"]
        if len(checks) != expected:
            problems.append(f"{len(checks)} axiom checks, expected {expected}")
        problems += [f"{c['check-id']} failed" for c in checks if not c["pass"]]
        nvars = WORKLOADS[workload]["dim"]
    else:
        want = EXPECTED[workload]
        suites = {s["suite"]: s for s in report["suites"]}
        if set(suites) != set(SUITES):
            problems.append(f"suites {sorted(suites)}, expected {sorted(SUITES)}")
        for name in want["passing"]:
            if suites.get(name, {}).get("status") != "pass":
                problems.append(f"suite {name} did not pass")
        theorem = suites.get("theorem", {}).get("theorem", {})
        if theorem.get("verdict") != want["theorem"]:
            problems.append(f"theorem verdict {theorem.get('verdict')}, expected {want['theorem']}")
        statuses = theorem.get("concomitants", {})
        for key in CONCOMITANTS:
            status = statuses.get(key, {})
            vanishes = key in want["vanishing"]
            if status.get("vanishes") is not vanishes:
                problems.append(f"N[{key[0]},{key[1]}] vanishes={status.get('vanishes')}")
            elif not vanishes and "witness" not in status:
                problems.append(f"N[{key[0]},{key[1]}] has no witness")
        nvars = want["dim"]
    for w in witnesses(report):
        problem = recheck_witness(w, nvars)
        if problem:
            problems.append(problem)
    return problems


def self_test(workload: str, result: dict) -> list:
    """The traced job's counts are where the profile puts them, and the
    self times account for the whole traced wall time."""
    trace = result["trace"]
    problems = [
        f"{name} is zero" for name in NONZERO["all"] + NONZERO[workload] if not trace[name]
    ]
    wall, total = result["trace_wall_s"], result["trace_self_sum_s"]
    if abs(total - wall) > 0.01 * wall + 0.001:
        problems.append(f"self times sum to {total:.4f} s, traced wall time is {wall:.4f} s")
    return problems


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", required=True, type=lambda s: HELD_OUT_SEED if s == "held-out" else int(s)
    )
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "hypercourant", "__init__.py")):
        print("perfbench: run from a hypercourant checkout (src/ is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = args.workload
    rng = random.Random(args.seed)
    try:
        spawn(workload, 0, deadline, "--setup-only")  # compiles bytecode; untimed
    except JobFailed as exc:
        print(f"perfbench: the program does not start: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0

    def job(*flags, job_seed=None):
        nonlocal attempted, failed
        attempted += 1
        if job_seed is None:
            job_seed = rng.randrange(1, 1 << 31)
        try:
            result = spawn(workload, job_seed, deadline, *flags)
            problems = [] if "--setup-only" in flags else wrong_answers(workload, result["report"])
            if "--trace" in flags:
                problems += self_test(workload, result)
        except JobFailed as exc:
            result, problems = None, [str(exc)]
        if problems:
            failed += 1
            for p in problems:
                print(f"FAIL {workload} job seed {job_seed}: {p}")
            return None
        result["seed"] = job_seed
        return result

    # a job starts only if it is expected to end within --seconds; the first
    # always runs
    loop_start = time.monotonic()
    longest = 0.0
    jobs = []
    while not jobs or time.monotonic() - loop_start + longest <= args.seconds:
        if time.monotonic() + longest > deadline:
            break
        t0 = time.monotonic()
        result = job()
        longest = max(longest, time.monotonic() - t0)
        if result is None and not jobs:
            break
        if result is not None:
            jobs.append(result)
    loop_s = time.monotonic() - loop_start
    setup = [j["setup_s"] for j in jobs]
    setup_wall = [j["setup_wall_s"] for j in jobs]
    while jobs and len(setup) < SETUP_SAMPLES and time.monotonic() < deadline:
        result = job("--setup-only")
        if result is not None:
            setup.append(result["setup_s"])
            setup_wall.append(result["setup_wall_s"])
    # the traced job repeats the first job's input, so the difference in
    # verdict time is the tracing overhead alone
    traced = job("--trace", job_seed=jobs[0]["seed"]) if args.trace and jobs else None
    if not jobs or (args.trace and traced is None):
        print(f"perfbench: no successful job on {workload}", file=sys.stderr)
        result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        print(json.dumps(result))
        return 1

    samples = {
        "setup_s": setup,
        "verdict_s": [j["verdict_s"] for j in jobs],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
        "setup_wall_s": setup_wall,
        "verdict_wall_s": [j["verdict_wall_s"] for j in jobs],
    }
    e2e = {name: statistics.median(values) for name, values in samples.items()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(setup_wall_s="s", verdict_wall_s="s")
    print(
        f"workload {workload}: {len(jobs)} jobs in {loop_s:.1f} s, "
        "one client, closed loop, fresh interpreter per job"
    )
    for name, values in samples.items():
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no percentile has 10 samples beyond"
        print(f"  {name:<14} median {e2e[name]:.4f} {units[name]}  n={len(values)}  {tail_text}")
    print(f"  {'failed_frac':<14} {failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        layer = dict(traced["trace"])
        for suite in SUITES:
            layer[f"runfile.suite_s.{suite}"] = traced["suite_s"].get(suite, 0.0)
        layer["trace.overhead_s"] = traced["verdict_wall_s"] - jobs[0]["verdict_wall_s"]
        names = [m["name"] for m in spec["per_layer"]]
        for name in names:
            print(f"  {name:<52} {layer[name]:.6g} {units[name]}")
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in names}
    else:
        metrics = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
