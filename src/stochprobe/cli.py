"""Command-line front end over the probing pipelines.

Every command reads a JSON document, runs one pipeline, and prints a report
whose metrics each carry their provenance ("exact", "monte_carlo(N)", or
"oracle"). Reports are deterministic bytes for a fixed (document, argv,
seed): no timestamps, no elapsed times, floats at 17 significant digits.

Exit codes: 0 success, 1 a bound failed under `acceptance`, 2 input or
capability errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import io
from .acceptance import run_all
from .auction import (
    EXACT_AGENT_LIMIT,
    build_spm,
    evaluate_spm,
    solve_lp_m,
    solve_lp_p,
)
from .constraints import CapabilityError, ConstraintError
from .crschemes import KINDS, CrSchemeSpec, verify_scheme
from .evaluate import THREE_SIGMA_RADII, Policy, optimal_adaptive, simulate
from .greedy import (
    audit_certificates,
    exact_greedy_deadline_value,
    exact_greedy_value,
    run_greedy,
    run_greedy_deadline,
)
from .io import ParseError
from .lp import LpEngineError, solve_probing_lp
from .rounding import RoundingConfig, default_config, estimate_policy_value

DEFAULT_SEED = 0
DEFAULT_TRIALS = 10_000


@dataclass
class RunReport:
    command: list[str]
    config: dict
    metrics: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def add(self, name: str, value, provenance: str) -> None:
        self.metrics[name] = {"value": value, "provenance": provenance}

    def document(self) -> dict:
        doc = {
            "command": self.command,
            "config": self.config,
            "metrics": self.metrics,
            "flags": self.flags,
        }
        doc.update(self.tables)
        return doc

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return io.dumps(self.document())
        lines = ["command: " + " ".join(self.command)]
        lines.append(
            "config: "
            + " ".join(f"{k}={_plain(v)}" for k, v in sorted(self.config.items()))
        )
        lines.append("metrics:")
        for name, entry in self.metrics.items():
            lines.append(
                f"  {name} = {_plain(entry['value'])} ({entry['provenance']})"
            )
        if self.flags:
            lines.append("flags:")
            for name, value in self.flags.items():
                lines.append(f"  {name}: {'true' if value else 'false'}")
        for name, rows in self.tables.items():
            lines.append(f"{name}:")
            for row in rows:
                lines.append("  " + _plain(row))
        return "\n".join(lines) + "\n"


def _plain(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return " ".join(f"{k}={_plain(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    return str(value)


def _monte_carlo(trials: int) -> str:
    return f"monte_carlo({trials})"


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _read_instance(args):
    return io.read_instance(args.instance, strict=args.strict)


def _greedy_policy(instance, with_deadlines: bool) -> Policy:
    """Realized value of one greedy run, with or without the deadline clock."""
    run = run_greedy_deadline if with_deadlines else run_greedy
    weights = instance.weights()
    return lambda inst, rng: run(inst, rng).realized_value(weights)


def _greedy(args, argv, with_deadlines: bool):
    """Exact value by path enumeration; Monte Carlo above the enumeration cap."""
    instance = _read_instance(args)
    if with_deadlines and not instance.has_deadlines():
        raise ConstraintError("greedy-deadline needs an instance with deadlines")
    name = "greedy_deadline_value" if with_deadlines else "greedy_value"
    exact = exact_greedy_deadline_value if with_deadlines else exact_greedy_value
    report = RunReport(argv, {"seed": args.seed, "trials": args.trials})
    try:
        report.add(name, exact(instance), "exact")
    except CapabilityError:
        policy = _greedy_policy(instance, with_deadlines)
        outcome = simulate(policy, instance, args.trials, args.seed)
        report.add(name, outcome.mean, _monte_carlo(args.trials))
        report.add(name + "_radius", outcome.radius, _monte_carlo(args.trials))
    return report, 0


def _lp(args, argv):
    instance = _read_instance(args)
    solution = solve_probing_lp(instance)
    report = RunReport(argv, {"seed": args.seed})
    report.add("lp_objective", solution.objective, "exact")
    report.add("cut_rounds", solution.rounds, "exact")
    report.tables["solution"] = [
        {"y": list(solution.y)},
        {"x": list(solution.x)},
    ]
    return report, 0


def _config_of(args, instance) -> RoundingConfig:
    base = default_config(instance, seed=args.seed)
    b = args.b if args.b is not None else base.b
    outer_kind = args.outer_scheme or base.outer_scheme.kind
    inner_kind = args.inner_scheme or base.inner_scheme.kind
    outer = CrSchemeSpec(outer_kind, b, order_policy="by-index")
    inner = CrSchemeSpec(inner_kind, b, order_policy="by-weight-desc")
    return RoundingConfig(b=b, outer_scheme=outer, inner_scheme=inner, seed=args.seed)


def _scheme_report(args, argv, config: RoundingConfig) -> RunReport:
    return RunReport(
        argv,
        {
            "seed": args.seed,
            "trials": args.trials,
            "b": config.b,
            "outer_scheme": config.outer_scheme.kind,
            "inner_scheme": config.inner_scheme.kind,
        },
    )


def _round(args, argv):
    instance = _read_instance(args)
    config = _config_of(args, instance)
    solution = solve_probing_lp(instance)
    factor = config.guarantee(instance)
    outcome = estimate_policy_value(
        instance, config, args.trials, args.seed, solution=solution
    )
    report = _scheme_report(args, argv, config)
    report.add("lp_objective", solution.objective, "exact")
    report.add("guarantee_factor", factor, "exact")
    report.add("guaranteed_value", factor * solution.objective, "exact")
    report.add("simulated_value", outcome.mean, _monte_carlo(args.trials))
    report.add("simulated_radius", outcome.radius, _monte_carlo(args.trials))
    report.flags["bound_met"] = bool(
        outcome.mean >= factor * solution.objective - THREE_SIGMA_RADII * outcome.radius
    )
    return report, 0


def _simulate(args, argv):
    instance = _read_instance(args)
    with_deadlines = instance.has_deadlines()
    name = "greedy_deadline_value" if with_deadlines else "greedy_value"
    policy = _greedy_policy(instance, with_deadlines)
    outcome = simulate(policy, instance, args.trials, args.seed)
    report = RunReport(argv, {"seed": args.seed, "trials": args.trials})
    report.add(name, outcome.mean, _monte_carlo(args.trials))
    report.add("radius", outcome.radius, _monte_carlo(args.trials))
    return report, 0


def _oracle(args, argv):
    instance = _read_instance(args)
    report = RunReport(argv, {"seed": args.seed})
    report.add("optimal_adaptive", optimal_adaptive(instance), "oracle")
    return report, 0


def _certify(args, argv):
    instance = _read_instance(args)
    audit = audit_certificates(instance)
    count = len(audit.paths)
    report = RunReport(
        argv, {"seed": args.seed, "k_in": audit.k_in, "k_out": audit.k_out}
    )
    report.add("path_count", count, "exact")
    report.add("worst_path_slack", float(audit.worst_path_slack), "exact")
    report.add("expected_value", audit.expected, "exact")
    report.add("mixture_value", audit.mixture_check.value, "exact")
    report.add("mixture_cap", audit.mixture_cap, "exact")
    report.flags["per_path_feasible"] = audit.per_path_feasible
    report.flags["mixture_feasible"] = bool(audit.mixture_check.feasible)
    report.flags["mixture_bounded"] = audit.mixture_bounded
    if count <= 256:
        report.tables["paths"] = [
            {"path": index, **asdict(row)} for index, row in enumerate(audit.paths)
        ]
    else:
        report.flags["paths_truncated"] = True
    return report, 0


def _verify_cr(args, argv):
    instance = _read_instance(args)
    config = _config_of(args, instance)
    solution = solve_probing_lp(instance)
    report = _scheme_report(args, argv, config)
    sides = (
        ("outer", config.outer_scheme, instance.outer, np.asarray(solution.y)),
        ("inner", config.inner_scheme, instance.inner, np.asarray(solution.x)),
    )
    for label, spec, system, z in sides:
        weights = instance.weights() if spec.order_policy == "by-weight-desc" else None
        verification = verify_scheme(
            spec, system, z, args.trials, args.seed, weights=weights
        )
        report.add(f"{label}_target_c", verification.target_c, "exact")
        report.add(
            f"{label}_min_estimate",
            float(min(verification.estimates)),
            _monte_carlo(args.trials),
        )
        report.flags[f"{label}_satisfied"] = verification.satisfied()
    return report, 0


def _spm(args, argv):
    spec = io.read_auction(args.instance, strict=args.strict)
    mechanism_lp = solve_lp_m(spec)
    probing_lp = solve_lp_p(spec)
    k = spec.feasibility.k_parameter()
    bound = mechanism_lp.objective / (4 * k + 2)
    mode = "exact" if spec.n <= EXACT_AGENT_LIMIT else "monte_carlo"
    revenues = []
    offers = []
    for draw in range(args.best_of):
        mechanism = build_spm(spec, seed=args.seed + draw, solution=probing_lp)
        outcome = evaluate_spm(
            mechanism, spec, mode=mode, trials=args.trials, seed=args.seed
        )
        revenues.append(outcome.mean)
        offers.append([list(offer) for offer in mechanism.offers])
    best = int(np.argmax(revenues))
    mean = float(np.mean(revenues))
    provenance = "exact" if mode == "exact" else _monte_carlo(args.trials)
    report = RunReport(
        argv,
        {"seed": args.seed, "trials": args.trials, "best_of": args.best_of, "k": k},
    )
    report.add("lp_mechanism", mechanism_lp.objective, "exact")
    report.add("lp_probing", probing_lp.objective, "exact")
    report.add("revenue_bound", bound, "exact")
    report.add("mean_revenue", mean, provenance)
    report.add("best_revenue", revenues[best], provenance)
    report.add("best_draw", best, "exact")
    report.flags["lp_probing_covers_mechanism"] = bool(
        probing_lp.objective >= mechanism_lp.objective - 1e-6
    )
    report.flags["mean_meets_bound"] = bool(mean >= bound - 1e-3)
    report.tables["best_offers"] = offers[best]
    return report, 0


def _acceptance(args, argv):
    if args.seed is None:
        raise ConstraintError("acceptance mode requires an explicit --seed")
    results = run_all(args.seed)
    report = RunReport(argv, {"seed": args.seed})
    rows = []
    for result in results:
        rows.append(
            {
                "criterion": result.number,
                "name": result.name,
                "passed": result.passed,
                "details": result.details,
            }
        )
    all_passed = all(result.passed for result in results)
    report.add("criteria_run", len(results), "exact")
    report.add("criteria_passed", sum(r.passed for r in results), "exact")
    report.flags["all_passed"] = all_passed
    report.tables["criteria"] = rows
    return report, 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sub, *, trials=False, schemes=False, best_of=False, seed_required=False):
    sub.add_argument("--instance", required=not seed_required, help="input document")
    if seed_required:
        sub.add_argument("--seed", type=int, default=None)
    else:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if trials:
        sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    if schemes:
        sub.add_argument("--b", type=float, default=None)
        sub.add_argument("--inner-scheme", choices=KINDS, default=None)
        sub.add_argument("--outer-scheme", choices=KINDS, default=None)
    if best_of:
        sub.add_argument("--best-of", type=int, default=20, dest="best_of")
    sub.add_argument("--strict", action="store_true",
                     help="reject unknown document fields instead of warning")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochprobe",
        description="stochastic probing policies, relaxations, and checks",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    handlers = {
        "greedy": (partial(_greedy, with_deadlines=False), {"trials": True}),
        "greedy-deadline": (partial(_greedy, with_deadlines=True), {"trials": True}),
        "lp": (_lp, {}),
        "round": (_round, {"trials": True, "schemes": True}),
        "simulate": (_simulate, {"trials": True}),
        "oracle": (_oracle, {}),
        "certify": (_certify, {}),
        "verify-cr": (_verify_cr, {"trials": True, "schemes": True}),
        "spm": (_spm, {"trials": True, "best_of": True}),
        "acceptance": (_acceptance, {"seed_required": True}),
    }
    for name, (handler, extras) in handlers.items():
        sub = commands.add_parser(name)
        _add_common(sub, **extras)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return 2 if code not in (0, 2) else int(code)
    try:
        report, code = args.handler(args, argv)
    except (ParseError, ConstraintError, CapabilityError, LpEngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
