"""One pass over a workload's job list; `run.py` starts each in a fresh process.

    python3 bench/worker.py --workload construct --seed 1 --trace 0 --started <t>

`--started` is the `time.monotonic()` reading taken just before the process
was started, so set-up time includes interpreter start-up, and
`--loop-before` the reference loop time (`hostspeed.py`) measured just
before that.  The pass prints one JSON record on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def load_recovsys():
    """Import `recovsys` from this checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import recovsys
    import recovsys.cli  # noqa: F401  (the CLI also imports serialization)

    where = Path(recovsys.__file__).resolve().parent
    if where != (SRC / "recovsys").resolve():
        raise ImportError(f"recovsys was imported from {where}, not from {SRC}")
    return recovsys


def blas_info() -> dict:
    """OpenBLAS build string and thread count, read from the library numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": None, "blas_threads": None}


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_pass(
    workload: str,
    seed: int,
    *,
    smoke: bool,
    traced: bool,
    started: float,
    loop_before: float | None = None,
    setup_only: bool = False,
) -> dict:
    """Set up, run the job list (timed), then check every job's output.

    `loop_before` is the reference loop time taken by the parent just before
    it started this process; with the loop timed right after set-up, it
    scales set-up time to reference speed.  Each job is scaled by the loop
    times right before and right after it.
    """
    rs = load_recovsys()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as work:
        jobs = workloads.build(workload, seed, smoke, rs, Path(work))
        setup_s = time.monotonic() - started
        loops = [hostspeed.reference_loop_s()]
        around_setup = ([loop_before] if loop_before else []) + loops[:1]
        setup = {"setup_s": setup_s, "setup_ref_s": hostspeed.at_reference_speed(setup_s, *around_setup)}
        if setup_only:
            return {"workload": workload, "seed": seed, "smoke": smoke, **setup}
        tracer = Tracer() if traced else None
        results = []
        if tracer:
            tracer.install(rs)
        try:
            for job in jobs:
                if tracer:
                    tracer.job = job.name
                cpu0, start = time.process_time(), time.perf_counter()
                try:
                    results.append((job, job.run(), None))
                except Exception:  # a failing job is counted, the pass goes on
                    results.append((job, None, traceback.format_exc(limit=3)))
                results[-1] += (time.perf_counter() - start, time.process_time() - cpu0)
                loops.append(hostspeed.reference_loop_s())
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records = []
        for i, (job, output, error, job_wall, job_cpu) in enumerate(results):
            if error is None:
                try:
                    job.check(output)
                except Exception:
                    error = traceback.format_exc(limit=3)
            records.append(
                {
                    "name": job.name,
                    "wall_s": job_wall,
                    "ref_s": hostspeed.at_reference_speed(job_wall, loops[i], loops[i + 1]),
                    "cpu_s": job_cpu,
                    "ok": error is None,
                    "error": error,
                }
            )
    record = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        **setup,
        "wall_s": sum(r["wall_s"] for r in records),
        "pass_s": sum(r["ref_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "loop_s": loops,
        "peak_rss_mb": peak_rss_mb,
        "jobs": records,
        "env": environment(),
    }
    if tracer:
        record["spans"] = tracer.metrics()
        record["layers"] = metrics.span_values(record["spans"])
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{workload}-seed{seed}{'-smoke' if smoke else ''}.json")
    return record


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--started", type=float, default=None)
    ap.add_argument("--loop-before", type=float, default=None, help="parent's reference loop time")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()
    started = time.monotonic() if args.started is None else args.started
    record = run_pass(
        args.workload,
        args.seed,
        smoke=args.smoke,
        traced=bool(args.trace),
        started=started,
        loop_before=args.loop_before,
        setup_only=args.setup_only,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
