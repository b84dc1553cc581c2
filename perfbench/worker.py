"""One workload in one fresh process; started by run.py, not by hand.

usage: worker.py WORKLOAD SEED SECONDS TRACE SMOKE OUT [--setup-only]

PERFBENCH_T0 holds the launcher's time.perf_counter() taken just before
this process was spawned (CLOCK_MONOTONIC, shared across processes), so
set-up time counts interpreter start and imports. The result goes to the
JSON file OUT; stdout stays empty.

Between rounds of its first pass, at most SETUP_SLOTS - 1 times, the
worker waits for one more --setup-only process of its own. On a shared
machine the speed drifts over seconds, and set-up samples taken one after
another all see the same moment; these are spread over the run.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from stochprobe import constraints  # noqa: E402

import probe as probing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SLOTS = 5
SETUP_TIMEOUT_S = 120

LAYERS = ("simplex", "lp", "constraints", "greedy", "evaluate", "rounding",
          "crschemes", "auction", "io", "cli", "fixtures", "op")


def _cache_stats() -> Counter:
    info = constraints._tables.cache_info()
    return Counter({"mask_tables.misses": info.misses, "mask_tables.hits": info.hits})


def _fresh_cache() -> None:
    """Every round starts with no mask tables cached, so rounds repeat the
    same work and both passes of a traced run see the same cache state."""
    constraints._tables.cache_clear()


def setup_sample(out_path) -> float:
    """Set-up time of one fresh --setup-only process with this one's
    arguments."""
    sink = out_path + ".setup"
    env = dict(os.environ, PERFBENCH_T0=repr(time.perf_counter()))
    subprocess.run([sys.executable, os.path.abspath(__file__), *sys.argv[1:6], sink,
                    "--setup-only"], env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=SETUP_TIMEOUT_S)
    with open(sink) as handle:
        setup_s = json.load(handle)["setup_s"]
    os.unlink(sink)
    return setup_s


def run_pass(workload, probe, mode, seconds, rounds=None, between_rounds=None):
    """Whole rounds until `seconds` of round time have passed, or exactly
    `rounds` rounds, with the probe in `mode` while a round runs.
    between_rounds(elapsed) is called untimed before every round but the
    first.

    Each round's outputs are checked as soon as the round ends, untimed and
    with the probe off, then dropped: memory must not grow with the number
    of rounds a faster program fits into the run.
    """
    latencies = {}  # op kind -> array of latencies, 8 bytes per op
    failures = []
    known_defect = 0
    elapsed = 0.0
    r = 0
    while True:
        _fresh_cache()
        probe.install(mode)
        done = []
        started = time.perf_counter()
        for i, op in enumerate(workload.round(r)):
            probe.op = f"r{r}.{i}"
            span = probe.begin("op." + op.kind)
            began = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception:
                out, error = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - began
            probe.end(span)
            done.append((op, out, error, latency))
        elapsed += time.perf_counter() - started
        probe.uninstall()
        cache = _cache_stats()
        if r == 0:
            after_round0 = Counter(probe.counts) + cache
            round0 = [(op, out) for op, out, error, _ in done if error is None]
        for op, out, error, latency in done:
            latencies.setdefault(op.kind, array("d")).append(latency)
            if error is None:
                error = workload.check(op, out)
            if error is not None:
                failures.append(f"{op.kind} (round {r}): {error}")
            elif workload.nonzero_exit(out):
                known_defect += 1
        r += 1
        if r >= rounds if rounds is not None else elapsed >= seconds:
            break
        if between_rounds is not None:
            between_rounds(elapsed)
    return {"latencies": latencies, "failures": failures, "known_defect": known_defect,
            "rounds": r, "elapsed": elapsed, "last_cache": cache,
            "after_round0": after_round0, "round0": round0}


def _percentile_tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def pass_metrics(result):
    by_kind = result["latencies"]
    latencies = [v for values in by_kind.values() for v in values]
    tail, percentile = _percentile_tail(latencies)
    return {
        "by_kind": {
            kind: {"ops": len(v), "p50_ms": 1000.0 * statistics.median(v), "total_s": sum(v)}
            for kind, v in sorted(by_kind.items())
        },
        "ops": len(latencies),
        "rounds": result["rounds"],
        "elapsed_s": result["elapsed"],
        "ops_per_s": len(latencies) / result["elapsed"],
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail,
        "op_tail_percentile": percentile,
    }


def layer_metrics(spans, work, untraced, traced):
    """Per-layer numbers from the spans of set-up and the traced pass.

    Counts are deterministic: set-up plus round 0. Times cover set-up plus
    one round: set-up spans plus the traced pass's spans divided by its
    number of rounds, which is the work the counts cover. A run that fits
    more rounds in does not make them grow. Rates divide work by time over
    the same spans.
    """
    rounds = traced["metrics"]["rounds"]

    def per_round(op):
        return 1.0 if op == "setup" else 1.0 / rounds

    def in_round0(op):
        return 1.0 if op == "setup" or op.startswith("r0.") else 0.0

    summary = probing.summarize(spans, weight=per_round)
    round0 = probing.summarize(spans, weight=in_round0)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0}

    def row(name):
        return summary.get(name, zero)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    trials = Counter()
    seconds = Counter()
    for name in ("evaluate.simulate", "rounding.estimate_policy_value",
                 "crschemes.verify_scheme", "auction.evaluate_spm"):
        trials[name] = row(name)["extra"]
        seconds[name] = row(name)["s"]
    spm_mc_s = sum(per_round(op) * (end - start) for name, start, end, _, op, extra in spans
                   if name == "auction.evaluate_spm" and extra)
    paths = row("greedy.enumerate_greedy_paths")["extra"]
    exact_value_s = row("greedy.exact_greedy_value")["s"] + row("greedy.exact_greedy_deadline_value")["s"]
    layer_self = Counter()
    for name, data in summary.items():
        layer_self[name.split(".")[0]] += data["self_s"]
    cache = traced["cache"]
    lookups = cache["mask_tables.hits"] + cache["mask_tables.misses"]
    out = {
        "simplex.calls": (work["simplex.calls"], "count"),
        "simplex.pivots": (work["simplex.pivots"], "count"),
        "simplex.s": (row("simplex.maximize")["s"], "s"),
        "simplex.pivots_per_s": (rate(row("simplex.maximize")["extra"], row("simplex.maximize")["s"]), "1/s"),
        "lp.solves": (work["lp.solves"], "count"),
        "lp.cut_rounds": (work["lp.cut_rounds"], "count"),
        "lp.cuts": (work["lp.cuts"], "count"),
        "lp.s": (row("lp.solve_probing_lp")["s"], "s"),
        "lp.check_dual_s": (row("lp.check_dual")["s"], "s"),
        "constraints.separate_calls": (work["constraints.separate_calls"], "count"),
        "constraints.separate_s": (row("constraints.ConstraintSystem.separate")["s"], "s"),
        "constraints.rank_calls": (round0.get("constraints.ConstraintSystem.rank", zero)["calls"], "count"),
        "constraints.rank_s": (row("constraints.ConstraintSystem.rank")["s"], "s"),
        "constraints.mask_tables_builds": (work["constraints.mask_tables_builds"], "count"),
        "constraints.mask_tables_s": (row("evaluate.mask_tables")["s"], "s"),
        "constraints.mask_tables_hit_ratio": (rate(cache["mask_tables.hits"], lookups), "ratio"),
        "greedy.paths": (work["greedy.paths"], "count"),
        "greedy.paths_per_s": (rate(paths, exact_value_s), "1/s"),
        "greedy.exact_value_s": (exact_value_s, "s"),
        "greedy.certificate_s": (row("greedy.build_dual_certificate")["s"], "s"),
        "evaluate.oracle_calls": (round0.get("evaluate.optimal_adaptive", zero)["calls"], "count"),
        "evaluate.oracle_s": (row("evaluate.optimal_adaptive")["s"], "s"),
        "evaluate.simulate_trials": (work["evaluate.simulate_trials"], "count"),
        "evaluate.simulate_trials_per_s": (rate(trials["evaluate.simulate"], seconds["evaluate.simulate"]), "1/s"),
        "rounding.trials": (work["rounding.trials"], "count"),
        "rounding.trials_per_s": (rate(trials["rounding.estimate_policy_value"], seconds["rounding.estimate_policy_value"]), "1/s"),
        "rounding.marginals_s": (row("rounding.exact_chosen_marginals")["s"], "s"),
        "crschemes.verify_trials": (work["crschemes.verify_trials"], "count"),
        "crschemes.verify_trials_per_s": (rate(trials["crschemes.verify_scheme"], seconds["crschemes.verify_scheme"]), "1/s"),
        "auction.lp_p_s": (row("auction.solve_lp_p")["s"], "s"),
        "auction.lp_m_s": (row("auction.solve_lp_m")["s"], "s"),
        "auction.spm_trials": (work["auction.spm_trials"], "count"),
        "auction.spm_trials_per_s": (rate(trials["auction.evaluate_spm"], spm_mc_s), "1/s"),
        "auction.spm_exact_s": (row("auction.evaluate_spm")["s"] - spm_mc_s, "s"),
        "io.parse_s": (row("io.parse_instance")["s"] + row("io.parse_auction")["s"], "s"),
        "cli.import_s": (statistics.median([s[2] - s[1] for s in spans if s[0] == "cli.import"] or [0.0]), "s"),
        "fixtures.generate_s": (sum(d["s"] for n, d in summary.items() if n.startswith("fixtures.")), "s"),
        "trace.untraced_ops_per_s": (untraced["metrics"]["ops_per_s"], "1/s"),
        "trace.traced_ops_per_s": (traced["metrics"]["ops_per_s"], "1/s"),
        "trace.overhead_ops_per_s": (
            untraced["metrics"]["ops_per_s"] - traced["metrics"]["ops_per_s"], "1/s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    if untraced["round0"] and "argv" in untraced["round0"][0][0].meta:
        for command, row in untraced["metrics"]["by_kind"].items():
            out[f"cli.{command}_ms"] = (row["p50_ms"], "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main() -> int:
    name, seed, seconds, trace, smoke, out_path = sys.argv[1:7]
    seed, seconds, trace, smoke = int(seed), float(seconds), trace == "1", smoke == "1"
    setup_only = "--setup-only" in sys.argv[7:]
    t0 = float(os.environ["PERFBENCH_T0"])
    if not os.path.abspath(constraints.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"stochprobe imported from {constraints.__file__}, not from {ROOT}/src")

    probe = probing.Probe()
    probe.install("span" if trace and not setup_only else "count")
    workload = WORKLOADS[name](seed, smoke, probe, ROOT)
    workload.setup()
    setup_s = time.perf_counter() - t0
    if setup_only:
        probe.uninstall()
        with open(out_path, "w") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return 0

    setup_cache = _cache_stats()
    probe.uninstall()
    # a traced run splits its time: the untraced pass gives the overhead
    # baseline, the traced pass then repeats the same rounds
    first_s = seconds / 2 if trace else seconds
    due = [first_s * k / SETUP_SLOTS for k in range(1, SETUP_SLOTS)]
    setup_samples = []

    def sample_when_due(elapsed):
        if due and elapsed >= due[0]:
            while due and elapsed >= due[0]:
                due.pop(0)
            setup_samples.append(setup_sample(out_path))

    first = run_pass(workload, probe, "count", first_s, between_rounds=sample_when_due)
    passes = [first]
    if trace:
        before = Counter(probe.counts)
        traced = run_pass(workload, probe, "span", None, rounds=first["rounds"])
        # in-process cache statistics of the last round plus the CLI children's
        traced["cache"] = traced["last_cache"] + (Counter(probe.counts) - before)
        passes.append(traced)
    # before the reference checks, which import scipy
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    # deterministic work counters: set-up plus round 0 of the first pass,
    # plus the untimed counting invocations (cli-docs)
    probe.counts.clear()
    untimed = workload.after_pass()
    work_raw = first["after_round0"] + setup_cache + probe.counts
    work = {
        "simplex.calls": work_raw["simplex.maximize"],
        "simplex.pivots": work_raw["simplex.pivots"],
        "lp.solves": work_raw["lp.solve_probing_lp"],
        "lp.cut_rounds": work_raw["lp.cut_rounds"],
        "lp.cuts": work_raw["lp.cuts"],
        "constraints.separate_calls": work_raw["constraints.ConstraintSystem.separate"],
        "constraints.mask_tables_builds": work_raw["mask_tables.misses"],
        "greedy.paths": 0,
        "evaluate.simulate_trials": 0,
        "rounding.trials": 0,
        "crschemes.verify_trials": 0,
        "auction.spm_trials": 0,
    }
    work.update(workload.counters(first["round0"]))

    # failed: raised or failed its check. known_defect: passed its check
    # but exited non-zero (the capped tightness LP); fail_frac counts both.
    attempted = sum(len(v) for result in passes for v in result["latencies"].values())
    failures = [failure for result in passes for failure in result["failures"]]
    failed = len(failures)
    known_defect = sum(result["known_defect"] for result in passes)
    untimed_failures = []
    for op, out in untimed:
        if error := workload.check(op, out):
            untimed_failures.append(f"{op.kind} (untimed rerun): {error}")
    for op, out in first["round0"]:
        if error := workload.final_check(op, out):
            untimed_failures.append(f"{op.kind} (round 0 reference check): {error}")

    result = {
        "setup_s": setup_s,
        "setup_s_in_run": setup_samples,
        "passes": [pass_metrics(p) for p in passes],
        "peak_rss_mb": usage / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "known_defect": known_defect,
        "fail_frac": (failed + known_defect) / attempted,
        "failures": failures + untimed_failures,
        "correct": failed == 0 and not untimed_failures,
        "work": work,
    }
    if trace:
        first["metrics"], traced["metrics"] = result["passes"]
        result["layers"] = layer_metrics(probe.spans, work, first, traced)
        spans_path = os.path.join(os.path.dirname(out_path), f"{name}-spans.jsonl")
        with open(spans_path, "w") as handle:
            for span in probe.spans:
                handle.write(json.dumps(span) + "\n")
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
