"""Benchmark of `recovsys`: one workload, passes in fresh processes, one JSON line.

    python3 bench/run.py --workload construct --seed 1 --seconds 24 --trace 0

Passes over the workload's fixed job list start one after another, each in a
new interpreter, until `--seconds` have gone by; in `construct` the first
is a warm-up.
With `--trace 0` the last line reports the end-to-end metrics (medians over
the other passes, in seconds at the reference host speed of `hostspeed.py`);
with `--trace 1` untraced and traced passes alternate and it reports the
per-layer metrics.  Every job's output is checked against an independent
oracle; `failed` counts the jobs that raised, exited non-zero or failed
their check.  The full record, with the environment, goes to
`.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import metrics  # noqa: E402

# A run ends well inside three minutes, even when its passes are slow.
RUN_LIMIT_S = 160.0
SLACK = 1.1
SETUP_SAMPLES = 8


class PassFailed(Exception):
    """A worker process crashed, timed out or printed no record."""


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def one_pass(workload: str, seed: int, smoke: bool, timeout: float, *flags: str) -> dict:
    loop_before = hostspeed.reference_loop_s()
    started = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--started", repr(started), "--loop-before", repr(loop_before), *flags,
    ] + (["--smoke"] if smoke else [])  # fmt: skip
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(
    workload: str, seed: int, seconds: int, trace: bool, smoke: bool
) -> tuple[list[dict], list[dict]]:
    """Passes until `seconds` have gone by, and set-up samples spread over them.

    In the workloads of `metrics.WARM_UP` the first pass is a warm-up: its
    jobs are checked and counted, its times are not.  With `trace`,
    untraced and traced passes alternate after it.  Without it, extra
    set-up-only processes run between passes, so that set-up is sampled
    SETUP_SAMPLES times at an even pace over the run.
    """
    kinds = ("--trace=0", "--trace=1") if trace else ("--trace=0",)
    t0 = time.monotonic()
    passes: list[dict] = []
    if workload in metrics.WARM_UP:
        passes.append({**one_pass(workload, seed, smoke, RUN_LIMIT_S, "--trace=0"), "warmup": True})
    setups: list[dict] = []
    longest = time.monotonic() - t0

    def remaining() -> float:
        return RUN_LIMIT_S + 10 - (time.monotonic() - t0)

    def timed() -> int:
        return sum(not p.get("warmup") for p in passes)

    while True:
        start = time.monotonic()
        passes.append(one_pass(workload, seed, smoke, remaining(), kinds[timed() % len(kinds)]))
        longest = max(longest, time.monotonic() - start)
        if not trace:
            setups.append(passes[-1])
            due = math.ceil(SETUP_SAMPLES * min(1.0, (time.monotonic() - t0) / seconds))
            while len(setups) < due:
                setups.append(one_pass(workload, seed, smoke, remaining(), "--setup-only"))
        # Stop after a whole cycle of pass kinds once another cycle would end
        # past the measuring time (with some slack), so that slow passes
        # shorten the run instead of lengthening it.
        end_of_next = time.monotonic() - t0 + len(kinds) * longest
        if timed() % len(kinds) == 0 and end_of_next > min(seconds * SLACK, RUN_LIMIT_S):
            return passes, setups


def summarize(passes: list[dict], setups: list[dict], trace: bool) -> tuple[dict, int, int]:
    """Metric values (medians over passes), jobs attempted, jobs failed.

    Jobs of every pass count towards attempted and failed; the warm-up
    pass's times count towards no metric.
    """
    timed = [p for p in passes if not p.get("warmup")]
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(not j["ok"] for p in passes for j in p["jobs"])

    def med(values) -> float:
        return statistics.median(values)

    if not trace:
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        values = {name: med(p[name] for p in plain) for name in units if name != "setup_s"}
        values["setup_s"] = med(s["setup_ref_s"] for s in setups)
    else:
        values = {
            name: med(p["layers"][name] for p in traced)
            for name, _, _ in metrics.PER_LAYER
            if name not in metrics.RUN_LEVEL
        }
        values["process.cpu_s"] = med(p["cpu_s"] for p in plain)
        values["process.wall_s"] = med(p["wall_s"] for p in plain)
        values["trace.overhead_frac"] = med(p["pass_s"] for p in traced) / med(p["pass_s"] for p in plain) - 1
        for job in metrics.HEAVIEST.values():
            walls = [j["wall_s"] for p in plain for j in p["jobs"] if j["name"] == job]
            values[metrics.job_metric(job)] = med(walls) if walls else 0.0
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(metrics.HEAVIEST), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="seconds-long job sizes, for tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "recovsys" / "cli.py").is_file():
        print(f"error: no recovsys source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result, attempted, failed = summarize(passes, setups, bool(args.trace))

    timed = [p for p in passes if not p.get("warmup")]
    n_plain = sum(not p["traced"] for p in timed)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)} ({len(passes) - len(timed)} warm-up, {n_plain} untraced)"
    )
    for name, m in result.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        raw = {"wall_s": [p["wall_s"] for p in timed], "setup_s": [s["setup_s"] for s in setups]}
        for name, values in raw.items():
            print(f"  {name + ' (as measured)':<44} {statistics.median(values):>14.6g} s")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ratio ({failed} of {attempted} jobs)")
    for p in passes:
        for job in p["jobs"]:
            if not job["ok"]:
                print(f"FAILED {job['name']}:\n{job['error']}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "env": passes[0]["env"],
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
        "passes": passes,
        "setup_samples": setups,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = "-smoke" if args.smoke else ""
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
