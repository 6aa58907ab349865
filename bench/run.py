"""torusflow benchmark.

One workload per process (so peak memory is its own), one client, jobs=1:

    python3 bench/run.py --workload expo-feasible --seed 1 --seconds 20 --trace 0

runs set-up three times, then ops back to back for --seconds of wall time,
checks every op's output outside the timed region, prints an information
line (machine, per-input solution counts and output sha256, tail rank, raw
wall times) and then, as the last line, the result object.  --trace 0
reports the end-to-end metrics of BENCHMARK.json; --trace 1 alternates
traced and untraced ops and reports the per-layer metrics of
bench/tracing.py.

Times are reported in reference seconds: each op's wall time is divided by
the mean time of a fixed calibration loop run just before and just after
it, then multiplied by that loop's time on an idle reference host
(CAL_REF_S).  The loop does not touch the library, so a change to the
library moves the op and not the loop.
A shared host's speed drifts by up to 30% within a run; the ratio drifts
far less, so a change to the program shows through the drift.

Metrics, per workload:
  op_s.p50     median time of one op
  op_s.tail    highest percentile with at least ten ops beyond it (the
               percentile and op count are in the information line)
  cells_per_s  candidate winding cells an op decides per second, median
               over ops (the cell count comes from the candidate box,
               computed outside the timed region)
  setup_s      import, plus the median of three rounds of input generation,
               file writing and one warm-up op
  peak_rss_mb  ru_maxrss of the workload's process

    python3 bench/run.py --workload all --seed 1 --seconds 20

runs every workload in its own process, prints each metric with its unit,
and exits non-zero if any correctness check failed.

The program is imported from src/ of the checkout that holds this file;
the script exits with status 2 when that source tree is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_ROUNDS = 3
WORKLOAD_NAMES = ("expo-feasible", "ptc-near-limit", "mesh-sparse", "mesh-elastic", "lattice-one-cell")
END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Seconds the calibration loop takes on the host the benchmark was written
# on (2-core x86_64, Python 3.11, numpy 2.4.6 with OpenBLAS) when idle.
CAL_REF_S = 0.006


def calibration_s(np) -> float:
    """Wall time of a fixed loop shaped like the library's two kinds of work:
    small numpy maps, and a graph walk that builds paths as frozensets.

    Timed next to every op: the host's speed drifts by up to 30% over tens
    of seconds (other tenants share its cores), and an op's time divided by
    the loop's time drifts by about a fifth of that.
    """
    a = np.linspace(-1.0, 1.0, 256).reshape(16, 16) / 8
    n = 400
    adj = [[(v * 7 + 1) % n, (v * 13 + 5) % n, (v + 1) % n] for v in range(n)]
    start = time.perf_counter()
    x = np.linspace(-0.5, 0.5, 16)
    for _ in range(300):
        x = np.arcsin(np.clip(a @ x, -1.0, 1.0))
        x = x - x.mean()
    for source in range(0, n, 40):
        parent = {source: -1}
        queue = [source]
        for v in queue:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        paths = set()
        for v in range(0, n, 8):
            path = [v]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            paths.add(frozenset(path))
    return time.perf_counter() - start


def normalise(times, cals):
    """Reference seconds: time i ran between calibrations i and i+1 and is
    scaled by CAL_REF_S over their mean."""
    return [t * CAL_REF_S / (0.5 * (a + b)) for t, a, b in zip(times, cals, cals[1:])]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _openblas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _machine(np):
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


def tail(times):
    """(value, percentile, ops beyond): the highest percentile with at least
    ten ops beyond it; the maximum when there are ten ops or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_workload(args) -> int:
    # One BLAS thread: the load is one client with jobs=1, and on a shared
    # two-core host a second BLAS thread waits on other tenants' work.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import torusflow
    import torusflow.cli  # noqa: F401
    import_s = time.perf_counter() - start
    if Path(torusflow.__file__).resolve().parent != SRC / "torusflow":
        print(f"torusflow imported from {torusflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    machine = _machine(np)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    out = workdir / "out.json"
    cache: dict = {}
    outputs: dict = {}
    failures: list[str] = []
    attempted = failed = 0

    def direct(span, fn, *fargs):
        return fn(*fargs)

    def execute(op):
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            result = wl.run(op, out)
        except Exception as exc:  # an op that crashes is a failed op; the run goes on
            result = exc
        return result, time.perf_counter() - t0

    def gate(op, result, call=direct):
        nonlocal attempted, failed
        attempted += 1
        outcome = None
        if isinstance(result, Exception):
            problems = [f"{op.name}: raised {type(result).__name__}: {result}"]
        else:
            try:
                outcome = wl.check(op, result, wl.output_bytes(op, result, out), cache, call)
                problems = outcome.failures
            except Exception as exc:  # a malformed output is a failed op, not a crash
                problems = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            failures.extend(problems)
        if outcome is not None:
            seen = outputs.setdefault(op.name, {"solutions": outcome.solutions, "sha256": outcome.digest})
            if seen["sha256"] != outcome.digest:
                seen["varies"] = True

    try:
        rounds, setup_cals = [], [calibration_s(np) for _ in range(3)]
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            ops = wl.inputs(args.seed, workdir)
            warm, _ = execute(ops[0])
            rounds.append(time.perf_counter() - t0)
            setup_cals += [calibration_s(np) for _ in range(3)]
            gate(ops[0], warm)
        setup_s = (import_s + statistics.median(rounds)) * CAL_REF_S / statistics.median(setup_cals)

        tracer = Tracer() if args.trace else None
        traced_call = (lambda span, fn, *fargs: tracer.call(span, *fargs)) if tracer else direct
        raw, cals, cells = [], [], []
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        deadline = wall0 + args.seconds
        while not raw or time.perf_counter() < deadline:
            i = len(raw)
            op = ops[i % len(ops)]
            traced = tracer is not None and i % 2 == 0
            cals.append(calibration_s(np))
            if traced:
                tracer.op = i
                tracer.install()
            result, op_s = execute(op)
            if traced:
                tracer.uninstall()
                tracer.close_op()
            raw.append(op_s)
            cells.append(op.cells)
            gate(op, result, traced_call if traced else direct)
        cals.append(calibration_s(np))
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ref = normalise(raw, cals)
    if tracer is not None:
        times, traced_times = ref[1::2], ref[::2]
        overhead = statistics.median(traced_times) - statistics.median(times) if times else 0.0
        metrics = tracer.layer_metrics(len(traced_times), sum(cells[::2]), overhead,
                                       CAL_REF_S / statistics.median(cals))
        tracer.write(OUT_DIR / f"trace-{wl.name}.jsonl")
    else:
        times, traced_times = ref, []
        value, percentile, beyond = tail(times)
        metrics = {
            "op_s.p50": statistics.median(times),
            "op_s.tail": value,
            "cells_per_s": statistics.median(c / t for c, t in zip(cells, times)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    machine["loadavg_end"] = list(os.getloadavg())
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(raw),
        "traced_ops": len(traced_times),
        "warmup_ops": SETUP_ROUNDS,
        "tail": None if tracer else {"percentile": percentile, "ops_beyond": beyond},
        "wall_s": {"op_p50": statistics.median(raw), "import": import_s, "rounds": rounds,
                   "calibration_p50": statistics.median(cals),
                   "setup_calibration_p50": statistics.median(setup_cals)},
        "cpu_per_wall": cpu / wall,
        "outputs": outputs,
        "failures": failures[:20],
        "machine": machine,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; print metrics with units."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
        if not result["correct"]:
            print("  " + "\n  ".join(json.loads(lines[-2])["info"]["failures"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "torusflow" / "__init__.py").is_file():
        print(f"no torusflow source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
