"""The skewrook benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is loaded from its src/.
NAME is one of qrook-boards, bruhat-pairs, closed-forms, verify-sweep, or
"all" to run the four in turn and print a table.

A run generates the seed's query list, then runs passes over it while the
next pass should end within S seconds (and, untraced, until at least 100
queries are timed, so that ten samples lie beyond the 90th percentile).  Each pass is a fresh interpreter
with cold library caches: one client, closed loop, one query at a time.
Every output is checked exactly: against independent routes, against the
first pass, and by sha256 against reference.json when the seed has an entry.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, taken from the traced
passes only, and the tracing overhead.  The last line of stdout is always
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

import speed  # noqa: E402  (sibling modules; BENCH_DIR is on sys.path)
import workloads  # noqa: E402

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "qalgebra.poly_mul_calls": "count",
    "qalgebra.cache_hit_ratio": "ratio",
    "qalgebra.max_coeff_bits": "bits",
    "permutations.pattern_scans": "count",
    "permutations.perms_scanned": "count",
    "boards.cells": "count",
    "rooks.q_rook_number_calls": "count",
    "rooks.placements": "count",
    "verify.checks_failed": "count",
    "cli.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
MIN_SAMPLES = 100
SETUP_REPS = 9
CLI_REPS = 5
PASS_TIMEOUT_S = 170
HARD_STOP_S = 120


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]), PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)
    return env


def _spawn(argv: list[str]) -> tuple[float, float, str]:
    """(wall seconds, seconds at nominal speed, stdout) of one child."""
    before = speed.loop_seconds()
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60, check=True
    )
    dt = time.perf_counter() - t0
    return dt, dt * speed.factor(before, speed.loop_seconds()), proc.stdout


SETUP_PROBE = """
import time, speed
before = speed.loop_seconds()
t0 = time.perf_counter()
import skewrook
{call}
dt = time.perf_counter() - t0
print(dt, dt * speed.factor(before, speed.loop_seconds()))
"""


def measure_setup(workload: str) -> tuple[float, float]:
    """Median (nominal, wall) seconds from a fresh interpreter starting
    `import skewrook` to one trivial call answered, timed inside the child,
    over SETUP_REPS children after one unmeasured child (byte-compilation)."""
    argv = [sys.executable, "-c", SETUP_PROBE.format(call=workloads.SETUP_CALLS[workload])]
    runs = [_spawn(argv)[2].split() for _ in range(SETUP_REPS + 1)][1:]
    return statistics.median(float(r[1]) for r in runs), statistics.median(float(r[0]) for r in runs)


def measure_cli_startup() -> float:
    """Median nominal seconds of a whole `python -m skewrook check 4231`
    process, output checked, over CLI_REPS runs after one unmeasured run."""
    want = {"avoids": False, "violating_pattern": "4231", "positions": [1, 2, 3, 4]}
    runs = [_spawn([sys.executable, "-m", "skewrook", "check", "4231"]) for _ in range(CLI_REPS + 1)]
    for _, _, out in runs:
        if json.loads(out) != want:
            raise RuntimeError(f"skewrook check 4231 printed {out!r}")
    return statistics.median(r[1] for r in runs[1:])


def run_pass(workload: str, queries: list[dict], trace: bool, spans_path: Path | None = None) -> dict:
    job = {
        "workload": workload,
        "queries": queries,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=json.dumps(job),
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_passes(workload: str, queries: list[dict], seconds: float, trace: bool, spans_path: Path | None):
    """Untraced passes (or untraced/traced pairs when tracing) while the next
    one should end within `seconds`.  Untraced runs also go on until
    MIN_SAMPLES queries are timed; traced runs report no percentiles.
    Returns (untraced, traced)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, queries, False))
        if trace:
            traced.append(run_pass(workload, queries, True, None if traced else spans_path))
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / len(plain)
        enough = trace or sum(len(p["latencies"]) for p in plain) >= MIN_SAMPLES
        if next_end > seconds and enough or next_end > HARD_STOP_S:
            return plain, traced


def verdict(workload: str, queries: list[dict], passes: list[dict], sk):
    """(failed query runs, digest of pass 1, failure messages).  Pass 1 is
    checked against the independent routes; every later pass must repeat it
    output for output."""
    first = passes[0]["outputs"]
    fails = workloads.check(workload, queries, first, sk)
    messages = [f"query {i}: {msg}" for i, msg in enumerate(fails) if msg]
    failed = 0
    for n, p in enumerate(passes, start=1):
        outs = p["outputs"]
        if len(outs) != len(first):
            messages.append(f"pass {n}: {len(outs)} outputs, pass 1 had {len(first)}")
            failed += max(len(outs), 1)
            continue
        differ = {i for i, (a, b) in enumerate(zip(outs, first)) if a != b}
        if differ:
            messages.append(f"pass {n}: outputs {sorted(differ)[:5]} differ from pass 1")
        failed += sum(1 for i, msg in enumerate(fails) if msg or i in differ)
    return failed, workloads.digest(first), messages


def _coeff_bits(outputs: list[dict]) -> int:
    bits = 0

    def visit(obj):
        nonlocal bits
        if isinstance(obj, dict):
            if "coeffs" in obj:
                bits = max(bits, max(abs(int(c)).bit_length() for c in obj["coeffs"]))
            else:
                for v in obj.values():
                    visit(v)
        elif isinstance(obj, list):
            for v in obj:
                visit(v)

    visit(outputs)
    return bits


def _placements(workload: str, outputs: list[dict], sk) -> int:
    if workload == "qrook-boards":
        return sum(sum(o["r"]) for o in outputs)
    if workload == "bruhat-pairs":
        return sum(
            sk.LaurentPoly.from_json_dict(o["poly"]).evaluate_at_one() for o in outputs if "poly" in o
        )
    return 0


def _scaled(p: dict) -> list[float]:
    return [t * s for t, s in zip(p["latencies"], p["scales"])]


def _wall(p: dict) -> list[float]:
    return p["latencies"]


def _timings(passes: list[dict], times) -> dict:
    """Throughput as the median over passes; latency percentiles over all
    queries of all passes."""
    lat = [t for p in passes for t in times(p)]
    return {
        "throughput_qps": statistics.median(len(times(p)) / sum(times(p)) for p in passes),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import skewrook as sk

    queries = workloads.generate(workload, seed)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    plain, traced = run_passes(workload, queries, seconds, trace, spans_path)
    passes = plain + traced
    failed, dig, messages = verdict(workload, queries, passes, sk)
    reference = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if reference is not None and reference != dig:
        messages.append(f"digest {dig} differs from the reference {reference}")
    attempted = sum(len(p["latencies"]) for p in passes)
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "digest": dig,
        "reference": reference,
        "correct": not messages and failed == 0,
        "messages": messages,
    }
    if not trace:
        setup, setup_wall = measure_setup(workload)
        report["metrics"] = {**_timings(plain, _scaled), "setup_s": setup}
        report["metrics"]["peak_rss_mb"] = statistics.median(p["maxrss_kb"] for p in plain) / 1024
        report["wall"] = {**_timings(plain, _wall), "setup_s": setup_wall}
        report["failed_ratio"] = failed / attempted
        return report
    # span times are wall times: bring them to nominal speed with the pass's scale
    layers = {
        name: statistics.median(
            p["layers"][name] * (statistics.median(p["scales"]) if unit_of(name) == "s" else 1)
            for p in traced
        )
        for name in traced[0]["layers"]
    }
    first = passes[0]["outputs"]
    layers["qalgebra.max_coeff_bits"] = _coeff_bits(first)
    layers["rooks.placements"] = _placements(workload, first, sk)
    layers["verify.checks_failed"] = sum(1 for o in first if o.get("passed") is False)
    layers["cli.startup_ms"] = measure_cli_startup() * 1000
    layers["trace.overhead_ratio"] = statistics.median(
        sum(_scaled(p)) for p in traced
    ) / statistics.median(sum(_scaled(p)) for p in plain)
    report["metrics"] = dict(sorted(layers.items()))
    return report


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS.get(name, "s")


def _print_report(report: dict) -> None:
    ref = report["reference"]
    match = "no reference for this seed" if ref is None else (
        "matches the reference" if ref == report["digest"] else "DIFFERS from the reference"
    )
    print(
        f"{report['workload']} seed {report['seed']}: {report['passes']} passes, "
        f"{report['attempted']} queries, {report['failed']} failed, "
        f"digest {report['digest']} ({match})"
    )
    for msg in report["messages"][:20]:
        print(f"  FAIL {report['workload']}: {msg}")
    rows = dict(report["metrics"])
    if "failed_ratio" in report:
        rows["failed_ratio"] = report["failed_ratio"]
    wall = report.get("wall", {})
    for name, value in rows.items():
        unit = "ratio" if name == "failed_ratio" else unit_of(name)
        raw = f"   (wall {wall[name]:.6g} {unit})" if name in wall else ""
        print(f"  {name:<38} {value:>16.6g} {unit}{raw}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skewrook" / "__init__.py").is_file():
        print(f"error: no skewrook sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(report)
        reports.append(report)
    if len(reports) == 1:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in reports[0]["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}.{k}": {"value": v, "unit": unit_of(k)}
            for r in reports
            for k, v in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
