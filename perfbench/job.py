"""One benchmark job: a fresh interpreter from import to verdict.

    python3 perfbench/job.py WORKLOAD JOB_SEED SPAWNED [--trace] [--setup-only]

SPAWNED is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so set-up time includes
interpreter start-up.  An untraced job reports its set-up and verdict wall
times, and both rescaled to a reference core speed by speed.py.

Every job is a new process on purpose: the engine memoises gcds in a
module-level cache, and a CLI user's run always starts with it empty.  Jobs
that shared a warm cache would measure a different program.

Only public entry points are called, with default arguments: no
`parallel=`, no test hooks, no private caches.  Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# workload -> inputs; the seed comes from the command line
WORKLOADS = {
    "flat": {"example": "flat-quaternionic", "trials": 2},
    "nonintegrable": {"example": "nonintegrable", "trials": 2},
    "axioms-n6": {"dim": 6, "degree": 2, "trials": 1},
}


def structure_text(spec: dict, seed: int) -> str:
    from hypercourant.structures import structure_file

    doc = structure_file(spec["example"])
    doc["options"]["seed"] = seed
    doc["options"]["trials"] = spec["trials"]
    return json.dumps(doc)


def peak_rss_mb() -> float:
    """High-water resident set of this process image.  getrusage's ru_maxrss
    would also count the parent's pages mapped before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    workload, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    traced = "--trace" in argv[3:]
    setup_only = "--setup-only" in argv[3:]
    spec = WORKLOADS[workload]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # the traced job is not rescaled, and probes would land in its spans
    from speed import SpeedProbe, rescale

    speed = None if traced else SpeedProbe()
    if speed:
        speed.start()

    import hypercourant
    from hypercourant import runfile

    setup_wall = time.monotonic() - spawned
    setup_probes = speed.take() if speed else []
    text = structure_text(spec, seed) if "example" in spec else None
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    walls = []

    def timed(fn, *args):
        if speed:
            speed.take()
        t0 = time.perf_counter()
        result = tracer.root(fn, *args) if tracer else fn(*args)
        walls.append(time.perf_counter() - t0)
        return result

    if text is not None:
        sf = timed(runfile.parse_structure, text)
        setup_wall += walls[-1]
        setup_probes += speed.take() if speed else []
    out = {"setup_wall_s": setup_wall}
    if speed:
        out["setup_s"] = rescale(setup_wall, setup_probes)
    if setup_only:
        if speed:
            speed.stop()
        print(json.dumps(out))
        return 0

    if text is not None:
        report = timed(runfile.run, sf)
    else:
        checks = timed(
            hypercourant.verify_axioms, spec["dim"], spec["degree"], spec["trials"], seed
        )
    out["verdict_wall_s"] = walls[-1]
    if speed:
        out["verdict_s"] = rescale(walls[-1], speed.take())
        speed.stop()
    if text is not None:
        out["report"] = json.loads(timed(runfile.emit, report, "json"))
        out["suite_s"] = dict(report.timings)
    else:
        out["report"] = {"checks": [c.to_dict() for c in checks]}
        out["suite_s"] = {}
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        out["trace"] = tracer.metrics()
        out["trace_wall_s"] = sum(walls)
        out["trace_self_sum_s"] = tracer.self_time_sum()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
