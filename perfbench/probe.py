"""Counters and spans around stochprobe's public functions.

The benchmark never edits the package. It replaces function objects in the
package's module namespaces (and two methods on ConstraintSystem) with
wrappers, and puts the originals back when done. Two modes:

* "count": only simplex.maximize, ConstraintSystem.separate and
  lp.solve_probing_lp are wrapped, to count calls, pivots, cut rounds and
  cuts. A handful of calls per LP round, so the untraced run keeps these
  deterministic work counters at no visible cost.
* "span": every entry point in SPAN_TARGETS is wrapped and each call
  records a span (name, start, end, parent span, op id) in memory.

Per-trial functions (checker can_add/add, run_greedy inside simulate) are
never wrapped: at a few microseconds per call the wrapper would dominate.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

COUNT_TARGETS = (
    "simplex.maximize",
    "constraints.ConstraintSystem.separate",
    "lp.solve_probing_lp",
)

SPAN_TARGETS = (
    "fixtures.random_instance",
    "fixtures.spm_uniform_fixture",
    "fixtures.spm_matching_fixture",
    "io.parse_instance",
    "io.parse_auction",
    "simplex.maximize",
    "constraints.ConstraintSystem.separate",
    "constraints.ConstraintSystem.rank",
    "evaluate.mask_tables",
    "lp.solve_probing_lp",
    "lp.check_dual",
    "greedy.exact_greedy_value",
    "greedy.exact_greedy_deadline_value",
    "greedy.build_dual_certificate",
    "greedy.build_expected_certificate",
    "evaluate.optimal_adaptive",
    "evaluate.simulate",
    "rounding.estimate_policy_value",
    "rounding.exact_chosen_marginals",
    "crschemes.verify_scheme",
    "auction.solve_lp_p",
    "auction.solve_lp_m",
    "auction.build_spm",
    "auction.evaluate_spm",
)


def _extra(name, result):
    """Work count carried by a call's result (pivots, trials)."""
    if name == "simplex.maximize":
        return result.iterations
    if name in ("evaluate.simulate", "rounding.estimate_policy_value",
                "crschemes.verify_scheme"):
        return result.trials
    if name == "auction.evaluate_spm":
        return result.trials if result.method == "monte_carlo" else 0
    return None


def _tally(counts, name, result, rounds_before) -> None:
    counts[name] += 1
    if name == "simplex.maximize":
        counts["simplex.pivots"] += result.iterations
    elif name == "lp.solve_probing_lp":
        counts["lp.cut_rounds"] += counts["simplex.maximize"] - rounds_before
        counts["lp.cuts"] += len(result.cuts)


class Probe:
    """Installs wrappers; holds counters and spans for one process."""

    def __init__(self):
        self.counts = Counter()
        self.spans = []  # [name, start, end, parent, op, extra]
        self.stack = []
        self.op = "setup"
        self.recording = False
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self, mode: str) -> None:
        self.uninstall()
        self.recording = mode == "span"
        names = SPAN_TARGETS if self.recording else COUNT_TARGETS
        for name in names:
            self._wrap(name)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []
        self.recording = False

    def _wrap(self, name: str) -> None:
        module_name, _, attr = name.rpartition(".")
        on_class = module_name == "constraints.ConstraintSystem"
        if on_class:
            holders = [importlib.import_module("stochprobe.constraints").ConstraintSystem]
        else:
            holders = [importlib.import_module("stochprobe." + module_name)]
        original = getattr(holders[0], attr)
        make = self._spanning if self.recording else self._counting
        wrapper = make(name, original)
        if not on_class:
            # names bound by "from .x import f" in other package modules too
            holders += [
                mod for key, mod in list(sys.modules.items())
                if key.startswith("stochprobe.") and mod is not holders[0]
                and getattr(mod, attr, None) is original
            ]
        for holder in holders:
            self._restore.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            rounds_before = counts["simplex.maximize"]
            result = fn(*args, **kwargs)
            _tally(counts, name, result, rounds_before)
            return result

        return wrapper

    def _spanning(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            rounds_before = counts["simplex.maximize"]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            self.end(index, _extra(name, result))
            _tally(counts, name, result, rounds_before)
            return result

        return wrapper

    # -- manual spans for code the benchmark runs itself -----------------

    def begin(self, name: str) -> int:
        if not self.recording:
            return -1
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self.stack.append(index)
        return index

    def end(self, index: int, extra=None) -> None:
        if index < 0:
            return
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = extra

    def adopt(self, foreign_spans, parent: int) -> None:
        """Append spans recorded by a child process under span `parent`.

        perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes,
        so the child's timestamps line up with the parent's.
        """
        base = len(self.spans)
        for name, start, end, up, _op, extra in foreign_spans:
            self.spans.append(
                [name, start, end, parent if up < 0 else base + up, self.op, extra]
            )


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, weight=lambda op: 1.0) -> dict:
    """Per span name: calls, and total seconds, self seconds and summed
    extra, each span scaled by weight(its op id). Spans of weight 0 are
    left out."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0})
    for span, mine in zip(spans, own):
        name, start, end, _, op, extra = span
        scale = weight(op)
        if not scale:
            continue
        row = out[name]
        row["calls"] += 1
        row["s"] += scale * (end - start)
        row["self_s"] += scale * mine
        row["extra"] += scale * (extra or 0)
    return dict(out)
