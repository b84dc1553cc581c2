"""stochprobe benchmark: four workloads, end-to-end and per-layer metrics.

usage: python3 perfbench/run.py --workload {desk-exact,mc-trials,lp-scale,cli-docs,all}
                                --seed N [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root. Each workload runs in its own fresh process
(perfbench/worker.py) with BLAS threads fixed at 1, importing stochprobe
from ./src. More fresh processes only import and set up: one before the
workload's process, up to four that it starts between its rounds, and one
after it. Set-up time is the median of these samples and the workload
process's own, spread over the run. With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced pass, and the lines above it also give self times and
the tracing overhead. The lines above the last one also hold the
environment, sample counts, tail percentiles, fail_frac and the
deterministic work counters.
Full results and spans are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("desk-exact", "mc-trials", "lp-scale", "cli-docs")
RUN_BUDGET_S = 170.0

# name -> unit; must match BENCHMARK.json (perfbench/test_smoke.py checks).
# op_p50_ms and op_tail_ms are printed above the result line but kept out
# of it: the median op of a mixed round changes with the seed's numbers,
# and their run-to-run spread on a 2-core shared host reached 0.3.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# the layer metrics most likely to move under the ROADMAP's optimisations
# and never a time that is zero by construction on some workload; the
# traced run prints every other layer metric above the result line
PER_LAYER = (
    "simplex.calls", "simplex.pivots", "simplex.s", "simplex.pivots_per_s",
    "lp.cut_rounds", "lp.cuts", "lp.s", "lp.self_s",
    "constraints.separate_calls", "constraints.separate_s",
    "constraints.rank_calls", "constraints.rank_s",
    "constraints.mask_tables_builds", "greedy.paths",
    "trace.overhead_ops_per_s",
)


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(name, args, deadline, setup_only=False) -> dict:
    suffix = "-setup" if setup_only else ""
    out = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json")
    if os.path.exists(out):
        os.unlink(out)
    command = [sys.executable, os.path.join(HERE, "worker.py"), name, str(args.seed),
               str(args.seconds), str(args.trace), "1" if args.smoke else "0", out]
    if setup_only:
        command.append("--setup-only")
    env = child_env()
    env["PERFBENCH_T0"] = repr(time.perf_counter())
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name}: worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}:\n{err.decode(errors='replace')}")
    with open(out) as handle:
        return json.load(handle)


def run_workload(name, args, deadline) -> dict:
    def setup_only():
        return spawn(name, args, deadline, setup_only=True)["setup_s"]

    before = setup_only()
    result = spawn(name, args, deadline)
    setups = [before, result["setup_s"], *result["setup_s_in_run"], setup_only()]
    result["setup_s_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def end_to_end(result) -> dict:
    """Every end-to-end metric printed, not only those in the result line."""
    first = result["passes"][0]
    return {
        "setup_s": (result["setup_s"], "s"),
        "ops_per_s": (first["ops_per_s"], "1/s"),
        "op_p50_ms": (first["op_p50_ms"], "ms"),
        "op_tail_ms": (first["op_tail_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def report(name, result, trace) -> list[str]:
    first = result["passes"][0]
    lines = []
    notes = {
        "setup_s": f"median of {len(result['setup_s_samples'])} set-ups",
        "ops_per_s": f"{first['ops']} ops in {first['elapsed_s']:.3f} s, {first['rounds']} rounds",
        "op_p50_ms": f"n={first['ops']}",
        "op_tail_ms": f"p{first['op_tail_percentile']:.1f}, n={first['ops']}",
        "peak_rss_mb": "workload process and its children",
    }
    for key, (value, unit) in end_to_end(result).items():
        lines.append(f"{name:10s} {key:24s} {value:14.6g} {unit:6s} ({notes[key]})")
    lines.append(
        f"{name:10s} {'fail_frac':24s} {result['fail_frac']:14.6g} {'':6s} "
        f"({result['failed']} failed + {result['known_defect']} exited non-zero"
        f" of {result['attempted']} attempted)"
    )
    for failure in result["failures"][:10]:
        lines.append(f"{name:10s} FAILED {failure.strip()}")
    counters = " ".join(f"{k}={v}" for k, v in result["work"].items())
    lines.append(f"{name:10s} counters (set-up + round 0) {counters}")
    if trace:
        for key, entry in result["layers"].items():
            lines.append(f"{name:10s} layer {key:36s} {entry['value']:14.6g} {entry['unit']}")
        lines.append(f"{name:10s} spans written to {result['spans_file']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.monotonic()
    env = environment()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, started + RUN_BUDGET_S * len(names))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(env))
    metrics = {}
    for name, result in results.items():
        print("\n".join(report(name, result, args.trace)))
        if args.trace:
            chosen = {key: result["layers"][key] for key in PER_LAYER}
        else:
            measured = end_to_end(result)
            chosen = {key: {"value": measured[key][0], "unit": unit}
                      for key, unit in END_TO_END.items()}
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + key: entry for key, entry in chosen.items()})
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-result.json"),
              "w") as handle:
        json.dump({"env": env, "args": vars(args), "results": results, "summary": summary},
                  handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
