"""Policy evaluation: Monte Carlo and the adaptive optimum.

Trial t of a Monte Carlo estimate with seed s draws from the stream of
default_rng((s, t)). Both sources run numpy's SeedSequence hash-mix for a
block of trials at once (_seed_blocks). Estimators whose draws are all
random() read them from trial_uniforms, which computes those doubles for
the block; the rest, simulate with its arbitrary policies among them, take
from trial_rngs a fresh generator per trial that numpy's PCG64 seeds from
the trial's row. Every confidence radius comes from from_samples or
binomial_radius.

Policies are callables (instance, rng) -> realized value for one draw of the
element activities. Permutation policies probe in a fixed order whenever
both systems permit, optionally with an independent probe-inclusion coin per
element, which is how rounded LP solutions and the bad-ordering baselines
are shaped.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .constraints import CapabilityError, ConstraintError, mask_tables, ordered_scan
from .instance import ProbingInstance

Policy = Callable[[ProbingInstance, np.random.Generator], float]

ORACLE_LIMIT = 12
ORACLE_DEADLINE_LIMIT = 10

# two-sided 99% normal quantile for confidence radii
Z99 = 2.5758293035489004
# slacks are quoted in standard errors; this many radii make three of them
THREE_SIGMA_RADII = 3.0 / Z99


@dataclass(frozen=True)
class PolicyValueReport:
    mean: float
    radius: float
    trials: int
    method: str  # "exact", "monte_carlo", or "oracle"

    def __post_init__(self):
        if self.radius < 0:
            raise ConstraintError("confidence radius must be non-negative")

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "PolicyValueReport":
        """Mean of per-trial values with its 99% normal confidence radius."""
        trials = len(values)
        radius = 0.0
        if trials > 1:
            radius = float(Z99 * values.std(ddof=1) / np.sqrt(trials))
        return cls(float(values.mean()), radius, trials, "monte_carlo")


def binomial_radius(p_hat: float, n: int) -> float:
    """99% normal confidence radius of a proportion p_hat seen over n draws."""
    return Z99 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def trial_rngs(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One fresh generator per trial t < trials, default_rng((seed, t)) exactly.

    Each trial's stream depends on (seed, trial index) alone, so callers may
    split the trial range across workers without changing results. Trials
    are seeded SEED_TRIALS at a time by numpy's SeedSequence hash-mix (see
    _seed_blocks); numpy's PCG64 then seeds itself from its trial's row of
    generate_state(4, uint64), so state, draws and spawned children are those
    of default_rng((seed, t)). numpy checks the seed on the first trial, so a
    bad one fails as it does in default_rng. Trial indices are one uint32
    word each, so trials above 2**32 are refused.
    """
    if trials < 1:
        raise ConstraintError("trials must be at least 1")
    if trials > 2**32:
        raise ConstraintError(f"trials must be at most 2**32, got {trials}")
    return _trial_generators(seed, trials)


def _trial_generators(seed: int, trials: int) -> Iterator[np.random.Generator]:
    for t, state in _seed_blocks(seed, trials):
        for index, row in zip(t.tolist(), state):
            yield np.random.Generator(np.random.PCG64(_TrialSeed((seed, index), row)))


class _TrialSeed(np.random.bit_generator.ISpawnableSeedSequence):
    """The seed sequence of one trial, as PCG64 and Generator.spawn use it.

    generate_state(4, np.uint64), the call PCG64 makes, returns the trial's
    precomputed (read-only) row; any other request, and spawn, goes to
    SeedSequence(entropy), built on first use, so children are those of
    default_rng(entropy).
    """

    def __init__(self, entropy: tuple[int, int], state: np.ndarray):
        self._entropy = entropy
        self._state = state
        self._sequence: Optional[np.random.SeedSequence] = None

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._state
        return self._seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seed_sequence().spawn(n_children)

    def _seed_sequence(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self._entropy)
        return self._sequence


# numpy's SeedSequence hash-mix (after O'Neill's seed_seq_fe), in uint32
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# trials seeded together, and doubles per block of rows: both bound the
# temporaries to a few hundred kB
SEED_TRIALS = 1 << 12
BLOCK_DRAWS = 1 << 12


def trial_uniforms(seed: int, trials: int, k: int) -> Iterator[np.ndarray]:
    """Blocks of rows, row t holding default_rng((seed, t)).random(k), t < trials.

    The doubles are those numpy gives, bit for bit: the SeedSequence of the
    entropy (seed, t) is mixed as numpy mixes it and seeds PCG64, and draw
    j = 1..k is the XSL-RR output of the jumped-ahead LCG state
    A^(j+1) u + (1 + A + ... + A^j) inc (see _pcg64_seed), computed for all
    trials and draws at once in uint64 halves. A block holds at most
    BLOCK_DRAWS doubles (at least one row). numpy checks the seed on the
    first block, so a bad one fails as it does in default_rng. Trial
    indices are one uint32 word each, so trials above 2**32 are refused.
    """
    if trials < 1:
        raise ConstraintError("trials must be at least 1")
    if trials > 2**32:
        raise ConstraintError(f"trials must be at most 2**32, got {trials}")
    return _uniform_blocks(seed, trials, k)


def _uniform_blocks(seed: int, trials: int, k: int) -> Iterator[np.ndarray]:
    rows = max(1, BLOCK_DRAWS // max(k, 1))
    for t, state in _seed_blocks(seed, trials):
        u, inc = _pcg64_seed(state)
        for r in range(0, len(t), rows):
            yield _pcg64_uniforms(u[:, r : r + rows], inc[:, r : r + rows], k)


def _seed_blocks(seed: int, trials: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Trial indices t < trials, SEED_TRIALS at a time, with their seed states.

    Row i of a block's read-only state is
    SeedSequence((seed, t[i])).generate_state(4, np.uint64).
    """
    np.random.SeedSequence((seed, 0))  # numpy's own checks and errors
    seed = operator.index(seed)
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    for start in range(0, trials, SEED_TRIALS):
        t = np.arange(start, min(start + SEED_TRIALS, trials), dtype=np.uint32)
        state = _seed_state(_seed_pool(words, t))
        state.flags.writeable = False
        yield t, state


def _seed_pool(words: list[int], t: np.ndarray) -> list[np.ndarray]:
    """SeedSequence((seed, t)).pool for each t, seed given by its uint32 words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    entropy = [np.full(1, w, np.uint32) for w in words] + [t]
    entropy += [np.zeros(1, np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_state(pool: list[np.ndarray]) -> np.ndarray:
    """Per trial, the row generate_state(4, np.uint64) gives for its pool.

    Eight uint32 words are hashed out of the pool and paired, low word
    first, into uint64 words, as numpy pairs them on every byte order.
    """
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)], axis=1)


@functools.lru_cache(maxsize=64)
def _pcg64_jumps(k: int) -> tuple[np.ndarray, ...]:
    """For draws j = 1..k, A^(j+1) and 1 + A + ... + A^j as uint64 halves."""
    mask64, mask128 = (1 << 64) - 1, (1 << 128) - 1
    power, total, out = _PCG_MULT, 1, []
    for _ in range(k):
        total = (total + power) & mask128
        power = power * _PCG_MULT & mask128
        out.append([power >> 64, power & mask64, total >> 64, total & mask64])
    return tuple(np.array(out, np.uint64).reshape(k, 4).T)


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit partial products."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_seed(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, u = initstate + inc and inc as rows (high, low) of uint64.

    pcg64_set_seed takes initstate and initseq from generate_state(4,
    uint64), a row of state, sets inc = 2 initseq + 1, steps from 0, adds
    initstate and steps again: s_0 = A u + inc, so the state of draw j is
    A^(j+1) u + (1 + A + ... + A^j) inc.
    """
    high0, low0, high1, low1 = state.T
    inc_lo = (low1 << 1) | 1
    inc_hi = (high1 << 1) | (low1 >> 63)
    u_lo = low0 + inc_lo
    u_hi = high0 + inc_hi + (u_lo < inc_lo)
    return np.stack([u_hi, u_lo]), np.stack([inc_hi, inc_lo])


def _pcg64_uniforms(u: np.ndarray, inc: np.ndarray, k: int) -> np.ndarray:
    """The first k random() doubles of each trial's seeded PCG64."""
    (u_hi, u_lo), (inc_hi, inc_lo) = u[:, :, None], inc[:, :, None]
    power_hi, power_lo, total_hi, total_lo = _pcg64_jumps(k)
    lo = u_lo * power_lo
    hi = _mulhi64(u_lo, power_lo)
    hi += u_lo * power_hi
    hi += u_hi * power_lo
    lo_b = inc_lo * total_lo
    hi += _mulhi64(inc_lo, total_lo)
    hi += inc_lo * total_hi
    hi += inc_hi * total_lo
    lo += lo_b
    hi += lo < lo_b  # carry out of the low halves
    # XSL-RR output, then next_double's 53 high bits
    x = hi ^ lo
    rot = hi >> 58
    out = (x >> rot) | (x << ((64 - rot) & 63))
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


def monte_carlo(
    draw: Callable[[np.random.Generator], float], trials: int, seed: int
) -> PolicyValueReport:
    """Report over the values draw(rng) takes on the trial generators."""
    values = (draw(rng) for rng in trial_rngs(seed, trials))
    return PolicyValueReport.from_samples(np.fromiter(values, float, count=trials))


def simulate(
    policy: Policy, instance: ProbingInstance, trials: int, seed: int
) -> PolicyValueReport:
    """Average realized value over independent runs; deterministic in (seed, trials)."""
    return monte_carlo(lambda rng: policy(instance, rng), trials, seed)


def permutation_policy(
    order: Sequence[int], probe_probabilities: Optional[Sequence[float]] = None
) -> Policy:
    """Probe elements in the given order whenever both systems permit.

    With probe_probabilities, element e is only attempted after winning an
    independent coin with that probability (sample-then-scan rounding shape).
    The order must list distinct non-negative elements of the instance's
    universe, and probe probabilities, one per element up to the largest in
    the order, must lie in [0, 1].
    """
    if len(set(order)) < len(order) or any(e < 0 for e in order):
        raise ConstraintError("order must list distinct non-negative elements")
    top = max(order, default=-1)
    q = probe_probabilities
    if q is not None and not all(0.0 <= v <= 1.0 for v in q):
        raise ConstraintError("probe probabilities must be finite and lie in [0, 1]")
    if q is not None and len(q) <= top:
        raise ConstraintError(
            f"probe probabilities cover {len(q)} elements, the order needs {top + 1}"
        )

    def run(instance: ProbingInstance, rng: np.random.Generator) -> float:
        if top >= instance.n:
            raise ConstraintError(
                f"order element {top} outside universe of size {instance.n}"
            )
        probs = instance.probabilities()
        weights = instance.weights()
        # the filter draws e's probe coin only when the scan asks for e
        probes = order if q is None else (e for e in order if not rng.random() >= q[e])
        inner, outer = instance.inner.checker(), instance.outer.checker()
        chosen = ordered_scan(probes, inner, lambda e: rng.random() < probs[e], outer)[1]
        value = 0.0
        for e in chosen:
            value += float(weights[e])
        return value

    return run


def optimal_adaptive(instance: ProbingInstance) -> float:
    """Optimal adaptive probing value by a level DP over reachable (Q, S).

    A state's code gives element e the base-3 digit 0 (unprobed), 1 (probed
    and inactive) or 2 (chosen); its Q and S masks travel with it while the
    levels are built. Level L holds the sorted codes reachable with
    |Q| = L, deduplicated with np.unique, so no dense 3^n array is made; e
    may be probed where it is unprobed and both mask tables accept Q + e
    and S + e. The backward sweep takes e in ascending order, finds the
    successors by searchsorted and keeps the running maximum of
    p (w + V[c + 2·3^e]) + (1 - p) V[c + 3^e]: the floating-point steps of
    the memoized recursion over (Q, S) it replaced, so the value keeps its
    bits.

    With deadlines, the clock is forced by the history (t = |Q| + 1) and a
    probe of e is allowed only while t <= d_e; the deadline relaxation used
    by the greedy policy plays no role here.
    """
    n = instance.n
    deadlines = instance.deadlines() if instance.has_deadlines() else None
    if deadlines is not None and None in deadlines:
        raise ConstraintError("all elements need deadlines for the deadline clock")
    limit = ORACLE_LIMIT if deadlines is None else ORACLE_DEADLINE_LIMIT
    if n > limit:
        raise CapabilityError(f"adaptive optimum capped at {limit} elements here")
    if n == 0:
        return 0.0
    probs = [float(v) for v in instance.probabilities()]
    weights = [float(v) for v in instance.weights()]
    inner_ok = mask_tables(instance.inner).independent
    outer_ok = mask_tables(instance.outer).independent

    # levels[L] = (sorted codes with |Q| = L, [(e, 3^e, states that may probe e)])
    levels = []
    codes = q = s = np.zeros(1, np.int32)  # 3^n < 2^31 while n <= 19
    while True:
        moves, grown = [], []
        for e in range(n):
            if deadlines is not None and len(levels) + 1 > deadlines[e]:
                continue
            bit = 1 << e
            ok = ((q & bit) == 0) & outer_ok[q | bit] & inner_ok[s | bit]
            if ok.any():
                step = 3**e
                moves.append((e, step, ok))
                c, q_e, s_e = codes[ok], q[ok] | bit, s[ok]
                grown += [(c + 2 * step, q_e, s_e | bit), (c + step, q_e, s_e)]
        levels.append((codes, moves))
        if not grown:
            break
        codes, first = np.unique(np.concatenate([g[0] for g in grown]), return_index=True)
        q, s = (np.concatenate([g[i] for g in grown])[first] for i in (1, 2))

    # the deepest level has no moves, so value and after are set before use
    for codes, moves in reversed(levels):
        best = np.zeros(len(codes))
        for e, step, ok in moves:
            c = codes[ok]
            p = probs[e]
            gain = p * (weights[e] + value[np.searchsorted(after, c + 2 * step)])
            gain += (1.0 - p) * value[np.searchsorted(after, c + step)]
            best[ok] = np.maximum(best[ok], gain)
        value, after = best, codes
    return float(value[0])
