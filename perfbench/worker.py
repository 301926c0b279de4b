"""One pass of a workload in a fresh interpreter, so library caches start
cold.  Reads a job as JSON on stdin, prints the result as JSON on stdout.

job:    {"workload", "queries", "trace", "spans_path"}
result: {"latencies", "scales", "outputs", "maxrss_kb", "layers"}

latencies are wall seconds per query; scales turn them into seconds at
nominal machine speed (see speed.py).

Run by run.py with src/ on PYTHONPATH; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import skewrook
import skewrook.verify
import speed
import workloads
from spans import Tracer, install


def _steps(workload: str, inputs, sk):
    """(span name, thunk) per query.  A verify-sweep query is one check, so
    its steps come from stepping the suite generators."""
    if workload != "verify-sweep":
        for inp in inputs:
            yield "bench.query", lambda inp=inp: workloads.call(workload, inp, sk)
        return
    for suite, scale in inputs:
        it = sk.verify.SUITES[suite](scale)
        while True:
            box = []

            def step(it=it, box=box):
                try:
                    return next(it)
                except StopIteration:
                    box.append(True)

            yield f"verify.{suite}", step
            if box:
                break


def run(job: dict) -> dict:
    workload = job["workload"]
    sk = skewrook
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        install(tracer, sk)
    inputs = [workloads.prepare(workload, q, sk) for q in job["queries"]]
    latencies, scales, raw = [], [], []
    clock = time.perf_counter
    for index, (name, thunk) in enumerate(_steps(workload, inputs, sk)):
        before = speed.loop_seconds()
        t0 = clock()
        try:
            out = tracer.root(name, index, thunk) if tracer else thunk()
        except Exception as exc:  # a failed query is reported, not fatal
            out = exc
        dt = clock() - t0
        if out is None and workload == "verify-sweep":
            continue  # the step that found the suite exhausted
        latencies.append(dt)
        scales.append(speed.factor(before, speed.loop_seconds()))
        raw.append(out)
    result = {
        "latencies": latencies,
        "scales": scales,
        "outputs": [workloads.encode(workload, out, sk) for out in raw],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.layer_metrics() if tracer else None,
    }
    if tracer and job.get("spans_path"):
        path = Path(job["spans_path"])
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.load(sys.stdin)), separators=(",", ":")))
