"""querybound benchmark: end-to-end and per-layer metrics of the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

Workloads (see mix.py and BENCHMARK.json): ``table2``, ``interactive``,
``montecarlo``, or ``all`` to run each in turn. Each workload runs in its own
worker process as a closed loop with one client that calls
``querybound.cli.main(argv)`` in-process on argv lists generated from the
seed, and every output is checked against a NumPy reference (reference.py).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a separate traced
run's per-layer metrics (tracer.py). Each metric is printed as one line with
its unit; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the line before it a
JSON record of the machine and the raw samples. The exit code is 0 when every
output passed its check, 1 when one did not, and 2 when the benchmark could
not run (for example without the program's sources in src/).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 4  # before the timed run, and as many after it

END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "cpu_s": "s",
              "peak_rss_mb": "MB"}
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


class BenchError(RuntimeError):
    pass


def _worker(workload: str, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]


def _env(workload: str) -> dict:
    return {**os.environ, **mix.ENV.get(workload, {})}


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_times(workload: str, deadline: float, prime: bool) -> list:
    """Seconds from starting a fresh interpreter to its warm-up request being
    done, for SETUP_PROBES probes, after one that primes the file caches if
    prime is set."""
    times = []
    for i in range(SETUP_PROBES + prime):
        start = time.monotonic()
        proc = subprocess.run(_worker(workload, "--probe"), cwd=ROOT, env=_env(workload),
                              capture_output=True, text=True, timeout=_remaining(deadline))
        # CLOCK_MONOTONIC is system-wide, so the probe's stamp is comparable
        parts = proc.stdout.split()
        if proc.returncode != 0 or len(parts) != 2 or parts[0] != "ready":
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        if i or not prime:
            times.append(float(parts[1]) - start)
    return times


def run_worker(workload: str, args, deadline: float) -> dict:
    cmd = _worker(workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace))
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(workload), capture_output=True, text=True,
                          timeout=_remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_latency(latencies_ms: list):
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it, else None."""
    ordered = sorted(latencies_ms)
    for pct in TAIL_PERCENTILES:
        beyond = math.floor(len(ordered) * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= 10:
            return pct, ordered[len(ordered) - beyond - 1], beyond
    return None


def end_to_end(result: dict, setup: list) -> tuple:
    """(metrics, extra figures): medians over the run's passes."""
    passes = result["passes"]
    latencies_ms = [1e3 * s for p in passes for s in p["latencies_s"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "latency_p50_ms": statistics.median(latencies_ms),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {"passes": len(passes), "requests": len(latencies_ms),
             "fail_rate": result["failed"] / result["attempted"],
             "setup_samples_s": setup,
             "pass_wall_s": [p["wall_s"] for p in passes],
             "pass_cpu_s": [p["cpu_s"] for p in passes]}
    tail = tail_latency(latencies_ms)
    if tail:
        extra["latency_tail_ms"] = {"percentile": tail[0], "value": tail[1],
                                    "samples_beyond": tail[2], "samples": len(latencies_ms)}
    if result["trials"]:
        extra["trials_per_s"] = result["trials"] / sum(p["wall_s"] for p in passes)
    return metrics, extra


def run_workload(workload: str, args) -> bool:
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        result = run_worker(workload, args, deadline)
        values, units = result["metrics"], result["units"]
        extra = {"untraced_wall_s": result["untraced_wall_s"],
                 "traced_wall_s": result["traced_wall_s"], "spans_file": result["spans_file"]}
    else:
        # probes on both sides of the timed run, so that set-up is sampled
        # over the same stretch of time as the other metrics
        setup = setup_times(workload, deadline, prime=True)
        result = run_worker(workload, args, deadline)
        setup += setup_times(workload, deadline, prime=False)
        values, extra = end_to_end(result, setup)
        units = END_TO_END
    correct = result["failed"] == 0 and result["self_test"]

    for name, value in values.items():
        print(f"{workload:12s} {name:28s} {value:16.6f} {units[name]}")
    if "latency_tail_ms" in extra:
        t = extra["latency_tail_ms"]
        print(f"{workload:12s} {'latency_tail_ms':28s} {t['value']:16.6f} ms "
              f"(p{t['percentile']:g}, {t['samples_beyond']} of {t['samples']} samples beyond)")
    if "trials_per_s" in extra:
        print(f"{workload:12s} {'trials_per_s':28s} {extra['trials_per_s']:16.6f} 1/s")
    print(f"{workload:12s} {'fail_rate':28s} {result['failed'] / result['attempted']:16.6f} "
          f"ratio ({result['failed']} of {result['attempted']} requests)")
    for failure in result["failures"]:
        print(f"{workload:12s} FAILED {failure}")
    print(json.dumps({"record": {"workload": workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "self_test": result["self_test"], **extra,
                                 "failures": result["failures"],
                                 "machine": result["machine"]}}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}),
          flush=True)
    return correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="querybound benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=(*mix.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "querybound" / "cli.py").is_file():
        print(f"no querybound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = mix.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        correct = [run_workload(w, args) for w in workloads]
    except (BenchError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
