"""The repo's benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload search_rl --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout.  The workload runs in a fresh process
(``workload.py``) with one BLAS thread; set-up is repeated in further
set-up-only processes and ``setup_s`` is their median.  Prints a table of
every metric with its unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Exits non-zero when an operation failed or an output check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search_rl", "population_cold", "serve_warm", "train_hypernet")
#: Set-up runs per invocation (the workload's own plus set-up-only ones).
SETUP_REPEATS = 2
#: Whole-invocation budget; a child still running past it is killed.
BUDGET_S = 170.0
#: ``host_ref_s`` of the development host (2 CPUs, Python 3.11, OpenBLAS
#: on one thread).  Timings are reported at this host speed.
REF_NOMINAL_S = 0.070
THROUGHPUT_NAME = {
    "search_rl": "points_per_s",
    "population_cold": "points_per_s",
    "serve_warm": "requests_per_s",
    "train_hypernet": "images_per_s",
}
TAIL = {"search_rl": 0.90, "serve_warm": 0.99}


class BenchError(RuntimeError):
    pass


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one workload process; returns (set-up seconds, its result).

    Set-up time runs from just before the process is started to the
    ``READY`` line it prints before its first timed operation.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    timer = threading.Timer(max(1.0, deadline - t0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or setup_s is None or result is None:
        raise BenchError(f"{' '.join(cmd[1:])} exited with code {code}")
    return setup_s, result


def end_to_end(workload: str, result: dict, setups: list[tuple[float, float]]) -> tuple[dict, list]:
    """The JSON metrics and the printed rows (issue names, units, notes).

    ``setups`` holds (seconds, host_ref_s) per set-up.  Set-up times, and
    the timed phase of a compute-bound workload, are scaled to the nominal
    host speed by their own process's reference.
    """
    scale = REF_NOMINAL_S / result["host_ref_s"] if result["compute_bound"] else 1.0
    latencies = [scale * t for t in result["latencies"]]
    raw_throughput = result["work"] / result["wall_s"]
    throughput = raw_throughput / scale
    p50_ms = 1000.0 * statistics.median(latencies)
    setup_s = statistics.median(seconds * REF_NOMINAL_S / ref for seconds, ref in setups)
    raw_setup_s = statistics.median(seconds for seconds, _ in setups)
    attempted = result["ops"] + result["checked"]
    failed = result["op_failed"] + result["check_failed"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (p50_ms, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    n = len(latencies)
    rows = [
        ("setup_s", setup_s, "s", f"median of {len(setups)} set-ups; {raw_setup_s:.4g} s as timed"),
        (
            THROUGHPUT_NAME[workload], throughput, "1/s",
            f"{result['work']} {result['unit']} in {result['wall_s']:.2f} s; {raw_throughput:.4g}/s as timed",
        ),
        ("latency_p50_ms", p50_ms, "ms", f"n={n}; {p50_ms / scale:.4g} ms as timed"),
    ]
    if workload in TAIL:
        q = TAIL[workload]
        name = f"latency_p{round(q * 100)}_ms"
        if n * (1.0 - q) >= 10:
            rows.append((name, 1000.0 * quantile(latencies, q), "ms", f"n={n}"))
        else:
            rows.append((name, None, "ms", f"not reported: n={n}, needs {round(10 / (1 - q))}"))
    rows.append(("peak_rss_mb", result["peak_rss_mb"], "MB", "benchmark process + its workers/children"))
    rows.append(("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} ops and output checks"))
    for name, (value, unit) in result["quality"].items():
        rows.append((name, value, unit, "deterministic for the seed"))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, rows


def layer_unit(name: str) -> str:
    for suffix, unit in (
        ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_frac", "ratio"), ("_ratio", "ratio"), ("bytes", "B"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        setup_s, result = run_child(cmd, env, deadline)
        setups = [(setup_s, result["host_ref_s"])]
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                seconds, setup_only = run_child(cmd + ["--setup-only"], env, deadline)
                setups.append((seconds, setup_only["host_ref_s"]))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = result["ops"] + result["checked"]
    failed = result["op_failed"] + result["check_failed"]
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"cpus={result['cpu_count']} blas_threads=1 callers={2 if args.workload == 'serve_warm' else 1} "
        f"host_ref_s={result['host_ref_s']:.5f} nominal={REF_NOMINAL_S}"
    )
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(result["layers"].items())}
        for name, metric in metrics.items():
            print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}")
    else:
        metrics, rows = end_to_end(args.workload, result, setups)
        for name, value, unit, note in rows:
            shown = "-" if value is None else f"{value:.6g}"
            print(f"{name:22s} {shown:>14s} {unit:6s} {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
