"""One benchmark worker: a fresh interpreter that imports querybound from the
checkout's src/, runs one warm-up request, then either stops (``--probe``,
used to time set-up) or runs the workload's requests in a closed loop with
one client, checks every output and prints one JSON object on stdout.

Untraced (``--trace 0``): passes run back to back until ``--seconds`` have
elapsed (at least one pass). Traced (``--trace 1``): pass 0 runs once
untraced and once under the tracer; the outputs must be byte-identical, and
the difference in wall time is the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mix

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import querybound.cli

    if Path(querybound.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"querybound imported from {querybound.cli.__file__}, not {src}")
    return querybound.cli


def _call(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI request."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed request, not a failed benchmark
        code = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
    return code, out.getvalue(), time.perf_counter() - start


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_pass(cli, reqs, records, tracer=None) -> dict:
    cpu0, wall0 = _cpu(), time.perf_counter()
    latencies = []
    for argv in reqs:
        if tracer is not None:
            tracer.request = len(records)
        code, out, seconds = _call(cli, argv)
        latencies.append(seconds)
        records.append((argv, code, out))
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": _cpu() - cpu0,
            "latencies_s": latencies}


def _without_threads(argv) -> tuple:
    if "--threads" not in argv:
        return tuple(argv)
    i = argv.index("--threads")
    return tuple(argv[:i]) + tuple(argv[i + 2:])


def _check_all(records) -> tuple:
    """(failure messages, indices of failed records, self-test passed).

    Besides each output's own check, requests whose argv are identical but
    for --threads must have given byte-identical output."""
    import reference

    failures, failed, first = [], set(), {}
    seen = {}
    for i, (argv, code, out) in enumerate(records):
        errors = reference.check(argv, code, out)
        key = _without_threads(argv)
        if key in seen and seen[key] != out:
            errors.append("output differs from an earlier identical request")
        seen.setdefault(key, out)
        if errors:
            failed.add(i)
            failures.append(f"{' '.join(argv)}: {'; '.join(errors)}")
        else:
            first.setdefault(argv[0], (argv, out))
    unseen = reference.self_test(first.values())
    failures += [f"self-test: perturbed {c} output passed its check" for c in unseen]
    return failures, failed, bool(first) and not unseen


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 prints instead
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def machine() -> dict:
    import numpy
    import scipy

    # nproc honours OMP_NUM_THREADS, which the montecarlo workers pin (mix.ENV)
    env = {k: v for k, v in os.environ.items() if not k.startswith("OMP_")}
    try:
        nproc = int(subprocess.run(["nproc"], env=env, capture_output=True, text=True,
                                   timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": nproc,
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in threads},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def timed_run(cli, workload, seed, seconds) -> dict:
    records, passes = [], []
    start = time.perf_counter()
    while True:
        reqs = mix.pass_requests(workload, seed, len(passes))
        passes.append(_run_pass(cli, reqs, records))
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, failed, self_test = _check_all(records)
    trials = sum(int(a[a.index("--trials") + 1]) for a, _, _ in records if a[0] == "run")
    return {"passes": passes, "peak_rss_mb": peak_rss_mb, "trials": trials,
            "attempted": len(records), "failed": len(failed), "failures": failures[:20],
            "self_test": self_test}


def traced_run(cli, workload, seed) -> dict:
    from tracer import METRICS, Tracer

    reqs = mix.pass_requests(workload, seed, 0)
    plain, traced = [], []
    untraced = _run_pass(cli, reqs, plain)
    tracer = Tracer("querybound")
    tracer.install()
    try:
        with_trace = _run_pass(cli, reqs, traced, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = with_trace["wall_s"] - untraced["wall_s"]

    # the traced copy of each request repeats its argv, so _check_all also
    # requires its output to be byte-identical to the untraced one
    failures, failed, self_test = _check_all(plain + traced)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    with spans.open("w") as fh:
        for sid, parent, name, layer, t0, t1, rid in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "layer": layer,
                                 "start": t0, "end": t1, "request": rid}) + "\n")
    return {"metrics": metrics, "units": {k: METRICS[k] for k in metrics},
            "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": with_trace["wall_s"], "spans_file": str(spans.relative_to(ROOT)),
            "attempted": len(plain) + len(traced), "failed": len(failed),
            "failures": failures[:20], "self_test": self_test}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=mix.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="stop after the warm-up request (set-up timing)")
    args = p.parse_args(argv)

    stdout = sys.stdout
    cli = _import_program()
    code, _, _ = _call(cli, mix.WARMUP[args.workload])
    if code != 0:
        print(f"warm-up request failed: {code}", file=sys.stderr)
        return 1
    if args.probe:
        print("ready", time.monotonic(), file=stdout, flush=True)
        return 0
    if args.trace:
        result = traced_run(cli, args.workload, args.seed)
    else:
        result = timed_run(cli, args.workload, args.seed, args.seconds)
    result["machine"] = machine()
    print(json.dumps(result), file=stdout, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
