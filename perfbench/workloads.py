"""The four benchmark workloads.

Each workload builds its inputs in setup(), then hands out rounds of ops.
Every round repeats the same ops (Monte Carlo ops on fresh streams), and a
run measures whole rounds, so the op mix never depends on where the clock
ran out. The outputs of a round are checked right after it, outside the
timed region.

The structure of every instance (sizes, matroid kinds and their parts,
ranks and graphs) is fixed by the workload and drawn from STRUCTURE_SEED.
The seed argument draws the numbers: weights, probabilities, deadlines,
valuations, Monte Carlo streams and the CLI command order (lp-scale and
the graphic instances of mc-trials instead rename elements, see LpScale).
The cost of the exact enumerators depends mostly on structure, so runs
with different seeds measure about the same amount of work on new data.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

from stochprobe import (
    auction,
    crschemes,
    evaluate,
    fixtures,
    greedy,
    io,
    lp,
    rounding,
)
from stochprobe.constraints import (
    GraphicMatroid,
    LaminarMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from stochprobe.instance import make_instance

# One-sided paper bounds get 3 standard errors of slack, as the acceptance
# suite does; the bounds are loose on these instances, so chance does not
# reach them. Two-sided agreement between a Monte Carlo mean and its exact
# value is checked at 5 standard errors, and per-element CR retention at a
# one-sided binomial tail of 1e-6: a mc-trials run makes a few hundred
# agreement checks and tens of thousands of retention tests, so 3 sigma
# would fail runs by chance alone.
BOUND_SIGMAS = 3.0
AGREEMENT_SIGMAS = 5.0
RETENTION_TAIL = 1e-6
LP_TOL = 1e-6

HERE = os.path.dirname(os.path.abspath(__file__))
STRUCTURE_SEED = 20130225


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _instance(shape_rng, data_rng, n, *, weighted=True, with_deadlines=False, **kinds):
    """Structure from fixtures.random_instance(shape_rng); weights,
    probabilities and deadlines redrawn from data_rng, as fixtures draws them."""
    base = fixtures.random_instance(shape_rng, n, weighted=weighted,
                                    with_deadlines=with_deadlines, **kinds)
    weights = np.round(data_rng.uniform(0.1, 3.0, size=n), 3) if weighted else np.ones(n)
    probs = np.round(data_rng.uniform(0.05, 1.0, size=n), 3)
    deadlines = None
    if with_deadlines:
        deadlines = [int(d) for d in data_rng.integers(1, n + 1, size=n)]
    return make_instance(weights, probs, base.inner, base.outer, deadlines=deadlines)


def _stream(seed: int, *keys: int) -> int:
    """A non-negative int seed for the package's own Monte Carlo streams."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class Op:
    """One unit of work: a kind label, a thunk, and what its check needs."""

    __slots__ = ("kind", "run", "meta")

    def __init__(self, kind, run, **meta):
        self.kind = kind
        self.run = run
        self.meta = meta


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, probe, root: str):
        self.seed = seed
        self.smoke = smoke
        self.probe = probe
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        """None if the output is correct, else why not. Runs after every
        round, so it must not import scipy (that would show in peak RSS)."""
        raise NotImplementedError

    def final_check(self, op: Op, output) -> str | None:
        """A costlier check against a reference, run once on round 0."""
        return None

    def counters(self, done) -> dict:
        """Work counts read off (op, output) pairs: paths, trials."""
        return {}

    def after_pass(self) -> list:
        """Untimed (op, output) pairs to check after a timed pass."""
        return []

    def nonzero_exit(self, output) -> bool:
        """Whether an op's process exited non-zero (CLI ops only)."""
        return False


# ---------------------------------------------------------------------------
# desk-exact
# ---------------------------------------------------------------------------


class DeskExact(Workload):
    """Exact pipeline on small generated instances, stratified by shape.

    One instance per (matroid kind, k_in, k_out, weighted) cell; n cycles
    through 6..12 across instances, and every fourth instance with n <= 10
    carries deadlines.
    """

    name = "desk-exact"

    def setup(self):
        sizes = range(5, 8) if self.smoke else range(6, 13)
        cells = [
            (kind, k_in, k_out, weighted)
            for kind in fixtures.MATROID_KINDS
            for k_in in (1, 2)
            for k_out in (1, 2)
            for weighted in (True, False)
        ]
        if self.smoke:
            cells = cells[::4]
        data = _rng(self.seed)
        self.instances = []
        for i, (kind, k_in, k_out, weighted) in enumerate(cells):
            n = sizes[i % len(sizes)]
            self.instances.append(
                _instance(
                    _rng(STRUCTURE_SEED, 1, i), data, n,
                    inner_members=k_in, outer_members=k_out, weighted=weighted,
                    with_deadlines=n <= 10 and i % 4 == 0,
                    inner_kinds=(kind,), outer_kinds=(kind,),
                )
            )

    def round(self, r):
        return [
            Op("exact", lambda inst=inst: self._pipeline(inst), instance=inst)
            for inst in self.instances
        ]

    def _pipeline(self, inst):
        probe = self.probe
        solution = lp.solve_probing_lp(inst)
        greedy_value = greedy.exact_greedy_value(inst)
        span = probe.begin("greedy.enumerate_greedy_paths")
        paths = 0
        duals_feasible = True
        for path in greedy.enumerate_greedy_paths(inst):
            certificate = greedy.build_dual_certificate(inst, path)
            duals_feasible &= lp.check_dual(certificate, inst).feasible
            paths += 1
        probe.end(span, paths)
        optimum = evaluate.optimal_adaptive(inst)
        if inst.n <= rounding.EXACT_MARGINAL_LIMIT:
            config = rounding.default_config(inst)
            rounding.exact_chosen_marginals(inst, config, solution)
        if inst.has_deadlines():
            greedy.exact_greedy_deadline_value(inst)
        return {
            "lp": solution.objective,
            "greedy": greedy_value,
            "optimum": optimum,
            "paths": paths,
            "duals_feasible": duals_feasible,
        }

    def check(self, op, out):
        inst = op.meta["instance"]
        if out["lp"] < out["optimum"] - LP_TOL:
            return f"LP {out['lp']} below adaptive optimum {out['optimum']}"
        if not out["duals_feasible"]:
            return "a per-path dual certificate is infeasible"
        if np.all(inst.weights() == 1.0):
            k = inst.inner.k_parameter() + inst.outer.k_parameter()
            if out["greedy"] < out["optimum"] / k - 1e-9:
                return f"greedy {out['greedy']} below OPT/{k} = {out['optimum'] / k}"
        return None

    def counters(self, done):
        return {"greedy.paths": sum(out["paths"] for _, out in done)}


# ---------------------------------------------------------------------------
# mc-trials
# ---------------------------------------------------------------------------


class McTrials(Workload):
    """Monte Carlo estimators at fixed trial counts on fixed instances.

    Counter systems (partition, laminar, uniform) sit beside graphic and
    intersection systems. LP solutions and SPM mechanisms are built in
    setup; each round reruns every estimator on a fresh stream, so a round
    costs the same trials every time.
    """

    name = "mc-trials"
    COUNTER_KINDS = ("partition", "laminar", "uniform")

    def setup(self):
        self.trials = 100 if self.smoke else 150
        sizes = (8, 16) if self.smoke else (12, 40, 80)
        data = _rng(self.seed)
        shapes = []
        for n in sizes:
            for j, kind in enumerate(self.COUNTER_KINDS):
                outer = self.COUNTER_KINDS[(j + 1) % 3]
                shapes.append(dict(n=n, inner_kinds=(kind,), outer_kinds=(outer,)))
        for n in sizes[:2]:
            shapes.append(dict(n=n, inner_kinds=("graphic",), outer_kinds=("graphic",)))
        shapes.append(dict(n=sizes[0], inner_members=2, outer_kinds=("partition",)))
        self.items = []
        for i, shape in enumerate(shapes):
            n = shape.pop("n")
            if shape.get("inner_kinds") == ("graphic",):
                # the cut rounds of a graphic LP move several-fold with its
                # numbers, which would make set-up time depend on the seed:
                # fix the numbers and let the seed rename elements, as lp-scale does
                base = _instance(_rng(STRUCTURE_SEED, 2, i), _rng(STRUCTURE_SEED, 2, 100 + i),
                                 n, **shape)
                inst = _relabel(base, _rng(self.seed, 2, i))
            else:
                inst = _instance(_rng(STRUCTURE_SEED, 2, i), data, n, **shape)
            solution = lp.solve_probing_lp(inst)
            config = rounding.default_config(inst)
            self.items.append((inst, solution, config))
        self.auctions = []
        specs = (
            [fixtures.spm_uniform_fixture(data, agents=4, max_value=3, rank=2)]
            if self.smoke else [
                fixtures.spm_uniform_fixture(data, agents=8, max_value=6, rank=3),
                fixtures.spm_matching_fixture(data, left=3, right=3, max_value=4),
            ]
        )
        for spec in specs:
            solution = auction.solve_lp_p(spec)
            mechanism = auction.build_spm(spec, seed=self.seed, solution=solution)
            self.auctions.append((spec, mechanism))
        self._exact = {}

    def round(self, r):
        trials = self.trials
        ops = []
        for i, (inst, solution, config) in enumerate(self.items):
            seed = _stream(self.seed, r, i)
            weights = inst.weights()
            policy = lambda g, rng, w=weights: greedy.run_greedy(g, rng).realized_value(w)
            y = np.asarray(solution.y)
            x = np.asarray(solution.x)
            outer_w = weights if config.outer_scheme.order_policy == "by-weight-desc" else None
            inner_w = weights if config.inner_scheme.order_policy == "by-weight-desc" else None
            ops += [
                Op("simulate", lambda inst=inst, s=seed, p=policy:
                   evaluate.simulate(p, inst, trials, s), item=i),
                Op("rounding", lambda inst=inst, c=config, s=seed, sol=solution:
                   rounding.estimate_policy_value(inst, c, trials, s, solution=sol), item=i),
                Op("verify_outer", lambda inst=inst, c=config, s=seed, y=y, w=outer_w:
                   crschemes.verify_scheme(c.outer_scheme, inst.outer, y, trials, s, weights=w),
                   item=i),
                Op("verify_inner", lambda inst=inst, c=config, s=seed, x=x, w=inner_w:
                   crschemes.verify_scheme(c.inner_scheme, inst.inner, x, trials, s, weights=w),
                   item=i),
            ]
        for j, (spec, mechanism) in enumerate(self.auctions):
            seed = _stream(self.seed, r, 1000 + j)
            ops.append(
                Op("spm", lambda spec=spec, m=mechanism, s=seed:
                   auction.evaluate_spm(m, spec, mode="monte_carlo", trials=trials, seed=s),
                   auction=j)
            )
        return ops

    def _moments(self, key, compute):
        if key not in self._exact:
            self._exact[key] = compute()
        return self._exact[key]

    def check(self, op, out):
        if op.kind in ("verify_outer", "verify_inner"):
            return _retention_check(out)
        if op.kind == "spm":
            spec, mechanism = self.auctions[op.meta["auction"]]
            mean, second, exact = self._moments(
                ("spm", op.meta["auction"]),
                lambda: (*_spm_moments(mechanism, spec),
                         auction.evaluate_spm(mechanism, spec, mode="exact").mean),
            )
            if abs(exact - mean) > 1e-9 * max(1.0, mean):
                return f"exact SPM revenue {exact} but offer enumeration gives {mean}"
            return _agreement("SPM", out, mean, second)
        inst, solution, config = self.items[op.meta["item"]]
        sigma = out.radius / evaluate.Z99
        if op.kind == "simulate":
            if out.mean > solution.objective + BOUND_SIGMAS * sigma + 1e-9:
                return f"greedy mean {out.mean} above LP {solution.objective}"
            if inst.n <= greedy.PATH_ENUMERATION_LIMIT:
                mean, second = self._moments(("greedy", op.meta["item"]),
                                             lambda: _greedy_moments(inst))
                return _agreement("greedy", out, mean, second)
            return None
        floor = config.guarantee(inst) * solution.objective
        if out.mean < floor - BOUND_SIGMAS * sigma - 1e-9:
            return f"rounding mean {out.mean} below guarantee {floor}"
        return None

    TRIAL_COUNTERS = {
        "simulate": "evaluate.simulate_trials",
        "rounding": "rounding.trials",
        "verify_outer": "crschemes.verify_trials",
        "verify_inner": "crschemes.verify_trials",
        "spm": "auction.spm_trials",
    }

    def counters(self, done):
        out = dict.fromkeys(self.TRIAL_COUNTERS.values(), 0)
        for op, result in done:
            out[self.TRIAL_COUNTERS[op.kind]] += result.trials
        return out


def _agreement(label, report, mean, second):
    """Monte Carlo mean within AGREEMENT_SIGMAS exact standard errors."""
    sigma = math.sqrt(max(second - mean * mean, 0.0) / report.trials)
    if abs(report.mean - mean) > AGREEMENT_SIGMAS * sigma + 1e-9:
        return f"{label} Monte Carlo {report.mean} vs exact {mean} (sigma {sigma})"
    return None


def _greedy_moments(inst):
    """First two moments of the greedy policy's value, over all its paths."""
    weights = inst.weights()
    mean = second = 0.0
    for path in greedy.enumerate_greedy_paths(inst):
        value = path.realized_value(weights)
        mean += path.probability * value
        second += path.probability * value * value
    return mean, second


def _spm_moments(mechanism, spec):
    """First two moments of SPM revenue, branching on each offer's acceptance
    the way auction._exact_revenue does."""
    offers = mechanism.offers

    def moments(idx, served):
        if idx == len(offers):
            return 0.0, 0.0
        agent, price = offers[idx]
        skip = moments(idx + 1, served)
        if not spec.feasibility.is_independent(served | {agent}):
            return skip
        p = float(spec.survival(agent)[price]) if price <= spec.B else 0.0
        if p <= 0.0:
            return skip
        m1, m2 = moments(idx + 1, served | {agent})
        return (
            p * (price + m1) + (1.0 - p) * skip[0],
            p * (price * price + 2.0 * price * m1 + m2) + (1.0 - p) * skip[1],
        )

    return moments(0, frozenset())


def _retention_check(verification):
    """Per element, the kept count must be consistent with retention at the
    target: its exact binomial lower tail stays above RETENTION_TAIL.

    SchemeVerification.satisfied() uses a normal radius that is zero when
    an element was sampled once and dropped, so at benchmark trial counts
    it flags sparse elements on a single draw; the binomial tail does not.
    """
    target = verification.target_c
    for e, (estimate, sampled) in enumerate(zip(verification.estimates, verification.included)):
        if sampled == 0 or estimate >= target:
            continue
        kept = round(estimate * sampled)
        tail = math.fsum(math.comb(sampled, i) * target**i * (1.0 - target) ** (sampled - i)
                         for i in range(kept + 1))
        if tail < RETENTION_TAIL:
            return f"element {e}: kept {kept} of {sampled}, target retention {target}"
    return None


# ---------------------------------------------------------------------------
# lp-scale
# ---------------------------------------------------------------------------


def _partition(n):
    return PartitionMatroid(n, tuple(tuple(range(i, i + 3)) for i in range(0, n, 3)),
                            (1,) * (n // 3))


def _laminar(n):
    blocks = [(tuple(range(i, min(i + 6, n))), 2) for i in range(0, n, 6)]
    blocks += [(tuple(range(i, min(i + 30, n))), 8) for i in range(0, n, 30)]
    blocks.append((tuple(range(n)), n // 4))
    return LaminarMatroid(n, tuple(s for s, _ in blocks), tuple(c for _, c in blocks))


def _uniform(n):
    return UniformMatroid(n, n // 4)


def _graphic(n, rng):
    vertices = n // 3
    edges = []
    for e in range(n):
        a = e % vertices
        b = (a + 1 + int(rng.integers(0, vertices - 1))) % vertices
        edges.append((a, b))
    return GraphicMatroid(n, vertex_count=vertices, edges=tuple(edges))


def _relabel(inst, rng):
    """The same instance with its elements (and graph vertices) renamed by a
    random permutation: an isomorphic LP seen in a different index order."""
    n = inst.n
    new_of = rng.permutation(n)
    old_of = np.argsort(new_of)

    def rename(system):
        if isinstance(system, UniformMatroid):
            return system
        if isinstance(system, GraphicMatroid):
            vertex = rng.permutation(system.vertex_count)
            edges = tuple(
                (int(vertex[u]), int(vertex[v])) for u, v in (system.edges[e] for e in old_of)
            )
            return GraphicMatroid(n, vertex_count=system.vertex_count, edges=edges)
        groups = system.parts if isinstance(system, PartitionMatroid) else system.sets
        renamed = tuple(tuple(sorted(int(new_of[e]) for e in group)) for group in groups)
        return type(system)(n, renamed, system.capacities)

    return make_instance(inst.weights()[old_of], inst.probabilities()[old_of],
                         rename(inst.inner), rename(inst.outer))


class LpScale(Workload):
    """Cut-generated LP solves from scratch on polynomially separable systems.

    The number of cut rounds of one of these LPs moves with its weights by
    tens of percent, which would swamp a speed change. So the instances,
    numbers included, are drawn once from STRUCTURE_SEED, and the seed
    renames their elements: every seed solves isomorphic LPs (the same cut
    sequence) in a different index order, which Bland's rule sees.
    Probabilities lie in [PROB_LOW, 1] and the outer system never binds, so
    every part of 3 starts out violated.
    """

    name = "lp-scale"
    PROB_LOW = 0.4
    BUILDERS = {"partition": _partition, "laminar": _laminar, "uniform": _uniform}

    def setup(self):
        sizes = (15, 30) if self.smoke else (60, 120, 180)
        # several small graphic LPs rather than one large one: the cost of a
        # graphic LP varies several-fold with its graph and weights
        graphic_sizes = (15,) if self.smoke else (36,) * 4
        shape = _rng(STRUCTURE_SEED, 3)
        relabel = _rng(self.seed)
        shapes = [(kind, n) for n in sizes for kind in self.BUILDERS]
        shapes += [("graphic", n) for n in graphic_sizes]
        self.subjects = []
        for kind, n in shapes:
            inner = _graphic(n, shape) if kind == "graphic" else self.BUILDERS[kind](n)
            weights = np.round(shape.uniform(0.1, 3.0, size=n), 3)
            probs = np.round(shape.uniform(self.PROB_LOW, 1.0, size=n), 3)
            base = make_instance(weights, probs, inner, UniformMatroid(n, n))
            self.subjects.append(("lp", f"{kind}.{n}", _relabel(base, relabel)))
        top = [int(shape.integers(5, 9)) for _ in range(2)]
        data = _rng(self.seed, 1)
        if self.smoke:
            specs = [fixtures.spm_uniform_fixture(data, agents=4, max_value=3, rank=2)]
        else:
            specs = [
                fixtures.spm_uniform_fixture(data, agents=10, max_value=top[0], rank=3),
                fixtures.spm_matching_fixture(data, left=3, right=4, max_value=top[1]),
            ]
        for spec in specs:
            self.subjects += [("lp_p", "", spec), ("lp_m", "", spec)]

    def round(self, r):
        ops = []
        for kind, label, subject in self.subjects:
            if kind == "lp":
                ops.append(Op("lp." + label, lambda s=subject: lp.solve_probing_lp(s),
                              instance=subject, shape=label))
            elif kind == "lp_p":
                ops.append(Op("auction.lp_p", lambda s=subject: auction.solve_lp_p(s),
                              spec=subject))
            else:
                ops.append(Op("auction.lp_m", lambda s=subject: auction.solve_lp_m(s),
                              spec=subject))
        return ops

    def check(self, op, out):
        # ops of one round reach check() in order, lp_p before its lp_m
        if op.kind == "auction.lp_p":
            self._lp_p = out.objective
            return None
        if op.kind == "auction.lp_m":
            lp_p = self._lp_p
            if lp_p < out.objective - LP_TOL:
                return f"LP_P {lp_p} below LP_M {out.objective}"
            return None
        inst = op.meta["instance"]
        y = np.asarray(out.y)
        x = np.asarray(out.x)
        weights, probs = inst.weights(), inst.probabilities()
        direct = float(np.sum(weights * probs * y))
        if abs(direct - out.objective) > LP_TOL * max(1.0, abs(out.objective)):
            return f"objective {out.objective} but sum w*p*y = {direct}"
        if inst.inner.separate(x) is not None or inst.outer.separate(y) is not None:
            return "LP point violates a rank constraint"
        return None

    def final_check(self, op, out):
        if not op.kind.startswith("lp.") or op.meta["shape"].startswith("graphic"):
            return None
        inst = op.meta["instance"]
        reference = _highs_objective(inst)
        if abs(reference - out.objective) > LP_TOL * max(1.0, abs(reference)):
            return f"objective {out.objective} but HiGHS gives {reference}"
        return None


def _highs_objective(inst) -> float:
    """The same LP with every rank row written out (polynomially many here)."""
    from scipy.optimize import linprog

    n = inst.n
    weights, probs = inst.weights(), inst.probabilities()
    rows, rhs = [], []

    def add(members, scale, bound):
        row = np.zeros(n)
        row[list(members)] = scale[list(members)]
        rows.append(row)
        rhs.append(bound)

    inner, outer = inst.inner, inst.outer
    if isinstance(inner, PartitionMatroid):
        for part, cap in zip(inner.parts, inner.capacities):
            add(part, probs, cap)
    elif isinstance(inner, LaminarMatroid):
        for members, cap in zip(inner.sets, inner.capacities):
            add(members, probs, cap)
    else:
        add(range(n), probs, inner.limit)
    add(range(n), np.ones(n), outer.limit)
    result = linprog(-weights * probs, A_ub=np.array(rows), b_ub=np.array(rhs),
                     bounds=[(0.0, 1.0)] * n, method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS failed: {result.message}")
    return float(-result.fun)


# ---------------------------------------------------------------------------
# cli-docs
# ---------------------------------------------------------------------------

# The README's command lines with --trials left at the CLI default (the
# acceptance command is left out: one pass takes minutes), plus the LP on
# the tightness document, which exits 2 at the enumeration cap today.
README_COMMANDS = (
    ("greedy", "--instance", "data/small_weighted.json"),
    ("greedy-deadline", "--instance", "data/small_deadline.json"),
    ("lp", "--instance", "data/small_weighted.json"),
    ("round", "--instance", "data/small_weighted.json", "--b", "0.2"),
    ("simulate", "--instance", "data/small_weighted.json", "--seed", "7"),
    ("oracle", "--instance", "data/small_weighted.json"),
    ("certify", "--instance", "data/small_weighted.json", "--format", "text"),
    ("verify-cr", "--instance", "data/small_weighted.json"),
    ("spm", "--instance", "data/spm_matching_k2.json", "--best-of", "20"),
)
CAPPED_COMMAND = ("lp", "--instance", "data/tightness_blocks7.json")
CAP_MESSAGE = b"separation by enumeration capped at support size"
SMOKE_COMMANDS = (README_COMMANDS[2], README_COMMANDS[5], CAPPED_COMMAND)
CLI_TIMEOUT_S = 120


class CliDocs(Workload):
    """Fresh CLI processes on the shipped documents, in a seeded order."""

    name = "cli-docs"

    def setup(self):
        self.commands = SMOKE_COMMANDS if self.smoke else README_COMMANDS + (CAPPED_COMMAND,)
        span = self.probe.begin("cli.import")
        importlib.import_module("stochprobe.cli")
        self.probe.end(span)
        data = os.path.join(self.root, "data")
        for name in sorted(os.listdir(data)):
            path = os.path.join(data, name)
            if name.startswith("spm_"):
                io.read_auction(path)
            else:
                io.read_instance(path)
        self.env = dict(os.environ, PYTHONPATH="src")
        self.stdout_of = {}

    def round(self, r):
        order = _rng(self.seed, r).permutation(len(self.commands))
        return [
            Op(self.commands[i][0], lambda argv=self.commands[i]: self._invoke(argv),
               argv=self.commands[i])
            for i in order
        ]

    def _invoke(self, argv, mode=None):
        """One CLI process. mode None runs `python -m stochprobe.cli` itself;
        "count" or "span" runs it under perfbench/cli_traced.py."""
        if mode is None and not self.probe.recording:
            command = [sys.executable, "-m", "stochprobe.cli", *argv]
            done = subprocess.run(command, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
            return done.returncode, done.stdout, done.stderr
        mode = mode or "span"
        fd, sink = tempfile.mkstemp(prefix="cli-", suffix=".json",
                                    dir=os.path.join(self.root, ".bench_out"))
        os.close(fd)
        try:
            command = [sys.executable, os.path.join(HERE, "cli_traced.py"), mode, sink, *argv]
            span = self.probe.begin("cli." + argv[0])
            done = subprocess.run(command, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
            with open(sink) as handle:
                child = json.load(handle)
            if span >= 0:
                self.probe.adopt(child["spans"], span)
            self.probe.end(span)
            self.probe.counts.update(child["counts"])
        finally:
            os.unlink(sink)
        return done.returncode, done.stdout, done.stderr

    def after_pass(self):
        """Rerun every command once under the counting bootstrap.

        Untimed. It gives the deterministic work counters (the timed ops
        are plain `python -m stochprobe.cli` processes) and one more
        invocation of every argv for the byte-identical stdout check.
        """
        return [
            (Op(argv[0], None, argv=argv), self._invoke(argv, mode="count"))
            for argv in self.commands
        ]

    def nonzero_exit(self, out):
        return out[0] != 0

    def check(self, op, out):
        code, stdout, stderr = out
        argv = op.meta["argv"]
        first = self.stdout_of.setdefault(argv, stdout)
        if stdout != first:
            return f"{' '.join(argv)}: stdout differs between invocations"
        if argv == CAPPED_COMMAND and code == 2 and CAP_MESSAGE in stderr:
            return None  # the known defect: a loud, named cap (see fail_frac)
        if code != 0:
            return f"{' '.join(argv)}: exit {code}: {stderr.decode(errors='replace')[:200]}"
        return None


WORKLOADS = {cls.name: cls for cls in (DeskExact, McTrials, LpScale, CliDocs)}
