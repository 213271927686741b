"""Random multi-controlled circuit generators.

Three constructions, all pure functions of (parameters, seed), each as
an array program that is the only consumer of its random stream and as
a ``Circuit`` that is an export view of that program:

* ``gate_opt_program`` / ``gate_opt_thermalizer``: two-stage serial bit
  thermalizer that keeps the total gate count low, as packed round
  arrays.
* ``depth_opt_program`` / ``depth_opt_thermalizer``: staged parallel bit
  thermalizer that grows the control region geometrically to keep the
  depth low, as arrays of its fired slots.
* ``sign_program`` / ``sign_thermalizer``: parallel signed-MCZ rounds
  that randomize the sign bits, as slot arrays.

Every round draws like one of two condition samplers: ``_rmc_draw``
(one shared condition) or ``_prmc_draw`` (p disjoint conditions).
Generation is fully decoupled from simulation: the drivers run the
programs, ``gen`` writes the ``Circuit`` views (plus round/stage
metadata for diagnostics), and neither touches ensemble state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuit import MCX, SIGNED_MCZ, Circuit, ControlTerm, Gate, Layer, ccx_ladder_count
from .copysim import pack_bits, pack_sites, unpack_bits, words_needed
from .rng import stream

_EMPTY_LAYER = Layer(())


def ceil_rounds(x: float) -> int:
    """ceil(x) with a relative epsilon guard against float fuzz like
    ceil(0.1*30) -> 4."""
    return max(1, math.ceil(x - 1e-9 * max(1.0, abs(x))))


@dataclass(frozen=True)
class GenParams:
    """Shared generator parameters.

    ``rounds`` is the ceiling of alpha*t, the number of condition rounds
    per stage.
    """

    n: int
    k: int
    t: int
    alpha: float
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 < self.k <= self.n:
            raise ValueError("k must satisfy 1 < k <= n")
        if self.t < 1:
            raise ValueError("t must be positive")
        if self.m < 1:
            raise ValueError("m must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def rounds(self) -> int:
        return ceil_rounds(self.alpha * self.t)

    def as_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "t": self.t, "alpha": self.alpha, "m": self.m}


def _rmc_draw(n: int, window: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of one shared-condition round, unvalidated.

    Draws m distinct control offsets uniformly from a window of the given
    size, each with an independent fair-coin required value, plus a
    uniform mask over the n - window candidate target sites.  Returns the
    unsorted 0-based window offsets of the m controls and the fused coin
    vector (m polarities, then the target mask).
    """
    # a permutation prefix is a uniform distinct draw; one fused coin
    # vector serves both the polarities and the mask
    picks = rng.permutation(window)[:m]
    return picks, rng.integers(0, 2, size=m + n - window, dtype=np.uint8)


def _prmc_draw(window: int, m: int, p: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of one parallel round, unvalidated.

    Draws m*p distinct offsets from a window of the given size,
    partitioned uniformly into p groups of m (groups keep their random
    internal order), with i.i.d. fair-coin polarities and one fair apply
    bit per group.  Returns the 0-based window offsets of the m*p group
    members in draw order and one coin vector (m*p polarities, then p
    apply bits).
    """
    # a permutation prefix is a uniform random arrangement, so the
    # consecutive chunks of m form a uniform partition
    return rng.permutation(window)[: m * p], rng.integers(0, 2, size=m * p + p, dtype=np.uint8)


def _sorted_controls(terms: list[ControlTerm]) -> tuple[ControlTerm, ...]:
    return tuple(sorted(terms, key=lambda c: c.position))


@dataclass(frozen=True)
class GateOptProgram:
    """Array form of one gate-opt thermalizer: its 2R rounds, stage 1 first.

    Round r flips every site set in ``flips[r]`` on the copies that match
    ``patterns[r]`` on the sites set in ``masks[r]``; ``fired[r]`` counts
    its targets (the round's gate count).  Rows are packed like copies
    (site i in bit (i-1) % 64 of word (i-1) // 64).  A round's targets
    never meet its own condition sites.
    """

    masks: np.ndarray
    patterns: np.ndarray
    flips: np.ndarray
    fired: np.ndarray

    def rows(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The rounds as one (masks, patterns, flips, diagonal) segment."""
        return [(self.masks, self.patterns, self.flips, np.zeros(len(self.masks), dtype=bool))]


def gate_opt_program(gp: GenParams) -> GateOptProgram:
    """Draw the two-stage serial bit thermalizer as packed round arrays.

    Stage 1 runs ``rounds`` shared-condition rounds (``_rmc_draw``) with m
    controls drawn from [1, k] and a target mask over [k+1, n]; stage 2
    mirrors it with controls in [k+1, n] and targets in [1, k].  This is
    the only consumer of the gate-opt stream: ``gate_opt_thermalizer`` and
    ``gate_opt_cost_profile`` are views of its result.
    """
    n, k, m = gp.n, gp.k, gp.m
    if m > k:
        raise ValueError("gate-opt requires m <= k (stage-1 controls live in [1, k])")
    if m > n - k:
        raise ValueError("gate-opt requires m <= n-k (stage-2 controls live in [k+1, n])")
    rng = stream(gp.seed, "gen", "gate-opt")
    rounds = gp.rounds
    condition = np.zeros((2 * rounds, n), dtype=np.uint8)
    pattern = np.zeros((2 * rounds, n), dtype=np.uint8)
    targets = np.zeros((2 * rounds, n), dtype=np.uint8)
    for stage, (x1, window, t_lo, t_hi) in enumerate(((1, k, k, n), (k + 1, n - k, 0, k))):
        draws = [_rmc_draw(n, window, m, rng) for _ in range(rounds)]
        rows = slice(stage * rounds, (stage + 1) * rounds)
        # the j-th smallest position takes the j-th polarity coin
        sites = np.sort(np.array([picks for picks, _ in draws]), axis=1) + (x1 - 1)
        coins = np.array([c for _, c in draws])
        np.put_along_axis(condition[rows], sites, 1, axis=1)
        np.put_along_axis(pattern[rows], sites, coins[:, :m], axis=1)
        targets[rows, t_lo:t_hi] = coins[:, m:]
    return GateOptProgram(
        masks=pack_bits(condition),
        patterns=pack_bits(pattern),
        flips=pack_bits(targets),
        fired=targets.sum(axis=1, dtype=np.int64),
    )


def gate_opt_thermalizer(gp: GenParams) -> Circuit:
    """Two-stage serial bit thermalizer as a ``Circuit`` (export view of
    ``gate_opt_program``).

    Each round emits one m-MCX per target site whose mask bit is set, all
    sharing the round's condition.  The serial target sweep keeps one
    scheduling slot (one layer, empty when the mask bit is 0) per
    candidate target, so the layer count is rounds * n for every seed;
    only gate presence is random.
    """
    prog = gate_opt_program(gp)
    n, k, rounds = gp.n, gp.k, gp.rounds
    condition = unpack_bits(prog.masks, n)
    pattern = unpack_bits(prog.patterns, n)
    targets = unpack_bits(prog.flips, n)
    # every round has exactly m condition sites; nonzero walks them in
    # ascending order, row by row
    cond_rows, cond_cols = np.nonzero(condition)
    sites = (cond_cols + 1).reshape(2 * rounds, gp.m).tolist()
    values = pattern[cond_rows, cond_cols].reshape(2 * rounds, gp.m).tolist()
    layers: list[Layer] = []
    rounds_meta: list[dict] = []
    for r in range(2 * rounds):
        stage, target_first, width = (1, k + 1, n - k) if r < rounds else (2, 1, k)
        controls = tuple(ControlTerm(p, v) for p, v in zip(sites[r], values[r]))
        rounds_meta.append(
            {
                "stage": stage,
                "layer": len(layers),
                "controls": [list(pv) for pv in zip(sites[r], values[r])],
            }
        )
        block = [_EMPTY_LAYER] * width
        for site in np.flatnonzero(targets[r]).tolist():
            block[site + 1 - target_first] = Layer((Gate(MCX, controls, site + 1),), check=False)
        layers.extend(block)
    extra = {"rounds": rounds_meta, "stage2_first_layer": rounds * (n - k)}
    return Circuit(
        n=n,
        layers=tuple(layers),
        generator="gate-opt",
        params=gp.as_dict(),
        seed=gp.seed,
        extra=extra,
    )


def _depth_opt_stages(n: int, k: int, m: int) -> list[tuple[int, int, int, int, int]]:
    """Stage table (x1, x2, p, slots, target_base) including the closer.

    Growth stage at control size s has p = floor(s/m) groups and targets
    s+1 .. s+slots (slots truncated at n); the closing stage draws
    controls from [k+1, n] and targets 1 .. min(p, k).
    """
    if m > k:
        raise ValueError("depth-opt requires m <= k")
    if n <= k:
        raise ValueError("depth-opt requires k < n")
    if (n - k) // m < 1:
        raise ValueError("closing phase needs at least one group: n-k >= m")
    stages = []
    s = k
    while s < n:
        p = s // m
        stages.append((1, s, p, min(p, n - s), s))
        s += p
    p_close = (n - k) // m
    stages.append((k + 1, n, p_close, min(p_close, k), 0))
    return stages


def depth_opt_stage_count(n: int, k: int, m: int) -> int:
    """Number of growth stages of the staged thermalizer (deterministic)."""
    return len(_depth_opt_stages(n, k, m)) - 1


def _depth_opt_rounds(gp: GenParams):
    """Draw the staged thermalizer round by round.

    Yields ``(stage, positions, values, apply_bits)`` per round, where
    ``stage`` is its ``_depth_opt_stages`` row, ``positions`` and
    ``values`` hold the round's m*p group members in draw order (group x
    is entries x*m .. x*m + m - 1), and ``apply_bits`` holds one bit per
    target slot: the groups past the stage's slots are drawn but never
    fire.  This is the only consumer of the depth-opt stream.  It is
    lazy because sweeps reach sizes where storing every round's
    positions would take gigabytes.
    """
    n, k, m = gp.n, gp.k, gp.m
    stages = _depth_opt_stages(n, k, m)
    if n - k < 2:
        raise ValueError("depth-opt closing window [k+1, n] needs at least 2 sites")
    rng = stream(gp.seed, "gen", "depth-opt")
    for stage in stages:
        x1, x2, p, slots, _ = stage
        for _ in range(gp.rounds):
            offsets, coins = _prmc_draw(x2 - x1 + 1, m, p, rng)
            yield stage, x1 + offsets, coins[: m * p], coins[m * p : m * p + slots]


@dataclass(frozen=True)
class DepthOptProgram:
    """Array form of one staged thermalizer: its fired slots.

    Slots run stage by stage, round by round and slot by slot, the order
    of ``depth_opt_thermalizer``'s gates.  Slot i flips site
    ``targets[i]`` on the copies that hold ``values[i]`` on the sites
    ``sites[i]`` (its group's m sites, 1-based, in draw order).
    ``fired[j, r]`` counts the fired slots of round r of
    ``_depth_opt_stages`` row j, the closing stage last.
    """

    n: int
    sites: np.ndarray
    values: np.ndarray
    targets: np.ndarray
    fired: np.ndarray

    def rows(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """One (masks, patterns, flips, diagonal) segment per stage: its
        fired slots in order, packed like copies, none of them diagonal."""
        W = words_needed(self.n)
        masks, patterns = pack_sites(np.array((self.sites, self.sites * self.values)), W)
        flips = pack_sites(self.targets[:, None], W)
        diagonal = np.zeros(len(masks), dtype=bool)
        bounds = np.cumsum(self.fired.sum(axis=1))[:-1]
        return list(zip(*(np.split(a, bounds) for a in (masks, patterns, flips, diagonal))))


def depth_opt_program(gp: GenParams) -> DepthOptProgram:
    """Draw the staged thermalizer as arrays of its fired slots.

    Each stage's rounds from ``_depth_opt_rounds`` are stacked and its
    fired slots selected in one step: slot x of a round conditions on
    the round's x-th group and targets site target_base + x + 1.
    ``depth_opt_thermalizer`` is a view of the result.
    """
    sites, values, targets, fired = [], [], [], []
    for (_, _, p, slots, target_base), draws in groupby(_depth_opt_rounds(gp), key=lambda d: d[0]):
        _, positions, coins, apply_bits = zip(*draws)
        shape = (len(positions), p, gp.m)
        on = np.array(apply_bits) == 1
        sites.append(np.array(positions).reshape(shape)[:, :slots][on])
        values.append(np.array(coins).reshape(shape)[:, :slots][on])
        targets.append(target_base + 1 + np.nonzero(on)[1])
        fired.append(on.sum(axis=1))
    return DepthOptProgram(
        n=gp.n,
        sites=np.concatenate(sites),
        values=np.concatenate(values),
        targets=np.concatenate(targets),
        fired=np.array(fired, dtype=np.int64),
    )


def depth_opt_thermalizer(gp: GenParams) -> Circuit:
    """Staged parallel bit thermalizer as a ``Circuit`` (export view of
    ``depth_opt_program``).

    Growth stages: starting from s = k, each stage partitions [1, s] into
    p = floor(s/m) disjoint m-site conditions per round and targets sites
    s+1 .. s+p in parallel (targets past n are truncated in the final
    stage); after ``rounds`` such layers, s grows to s+p.  A closing
    phase then repeats the construction with controls drawn from
    [k+1, n] and targets sweeping [1, k].  Each fired slot is one m-MCX
    on its group's sites.

    Every round is exactly one layer (kept even when no apply bit fires),
    so the unit-cost depth is (growth stages + 1) * rounds for all seeds.
    """
    prog = depth_opt_program(gp)
    order = np.argsort(prog.sites, axis=1)
    sites = np.take_along_axis(prog.sites, order, axis=1).tolist()
    values = np.take_along_axis(prog.values, order, axis=1).tolist()
    gates = [
        Gate(MCX, tuple(map(ControlTerm, s, v)), target)
        for s, v, target in zip(sites, values, prog.targets.tolist())
    ]
    layers: list[Layer] = []
    end = 0
    for count in prog.fired.ravel().tolist():
        layers.append(Layer(gates[end : end + count], check=False) if count else _EMPTY_LAYER)
        end += count
    stages_meta = [
        {"s": x2 if x1 == 1 else "closing", "p": p, "targets": slots, "first_layer": j * gp.rounds}
        for j, (x1, x2, p, slots, _) in enumerate(_depth_opt_stages(gp.n, gp.k, gp.m))
    ]
    extra = {"stages": stages_meta, "growth_stages": len(stages_meta) - 1}
    return Circuit(
        n=gp.n,
        layers=tuple(layers),
        generator="depth-opt",
        params=gp.as_dict(),
        seed=gp.seed,
        extra=extra,
    )


@dataclass(frozen=True)
class SignProgram:
    """Array form of one sign thermalizer: L layers of p slots.

    Slot (l, x) holds its group's m sites in draw order (``sites[l, x]``,
    1-based) and their required values.  When ``fired[l, x]`` it is one
    signed MCZ whose signed target is the group's last drawn site and
    whose controls are the others.
    """

    n: int
    sites: np.ndarray
    values: np.ndarray
    fired: np.ndarray

    def rows(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """One (masks, patterns, flips, diagonal) segment: the fired slots,
        layer by layer, each the full condition of its signed MCZ, packed
        like copies, as a diagonal row that flips nothing."""
        sites = self.sites[self.fired]
        masks, patterns = pack_sites(np.array((sites, sites * self.values[self.fired])), words_needed(self.n))
        return [(masks, patterns, np.zeros_like(masks), np.ones(len(masks), dtype=bool))]


def sign_program(n: int, p: int, alpha: float, t: int, m: int, seed: int = 0) -> SignProgram:
    """Draw the parallel sign thermalizer as slot arrays.

    Emits ceil(alpha*t/p) layers.  Each layer partitions [1, m*p] into p
    disjoint m-site groups, each with fair-coin required values and a
    fair apply bit.  This is the only consumer of the sign stream:
    ``sign_thermalizer`` and ``sign_cost_profile`` are views of its
    result.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    if m * p > n:
        raise ValueError("sign thermalizer requires m*p <= n")
    if m * p < 2:
        raise ValueError("condition window [1, m*p] needs at least 2 sites")
    if t < 1 or alpha <= 0:
        raise ValueError("t and alpha must be positive")
    rng = stream(seed, "gen", "sign")
    n_layers = ceil_rounds(alpha * t / p)
    mp = m * p
    offsets = np.empty((n_layers, mp), dtype=np.int64)
    coins = np.empty((n_layers, mp + p), dtype=np.uint8)
    for li in range(n_layers):
        # a parallel round on the window [1, m*p]
        offsets[li], coins[li] = _prmc_draw(mp, m, p, rng)
    shape = (n_layers, p, m)
    return SignProgram(n, (offsets + 1).reshape(shape), coins[:, :mp].reshape(shape), coins[:, mp:] == 1)


def sign_thermalizer(n: int, p: int, alpha: float, t: int, m: int, seed: int = 0) -> Circuit:
    """Parallel sign thermalizer as a ``Circuit`` (export view of
    ``sign_program``).

    Every fired slot becomes one signed MCZ whose controls are its
    group's first m-1 drawn members and whose signed target is the last
    (position and required value).  Layers without a fired slot stay, so
    there are ceil(alpha*t/p) layers for every seed.  With m = 1 the gate
    degenerates to a single-site sign-flip condition.
    """
    prog = sign_program(n, p, alpha, t, m, seed)
    n_layers = prog.fired.shape[0]
    layers: list[Layer] = []
    for sites, values, fired in zip(prog.sites.tolist(), prog.values.tolist(), prog.fired.tolist()):
        gates = [
            Gate(
                SIGNED_MCZ,
                _sorted_controls([ControlTerm(s, v) for s, v in zip(sites[x][:-1], values[x][:-1])]),
                sites[x][-1],
                target_value=values[x][-1],
            )
            for x in range(p)
            if fired[x]
        ]
        layers.append(Layer(gates, check=False) if gates else _EMPTY_LAYER)
    params = {"n": n, "p": p, "t": t, "alpha": alpha, "m": m}
    extra = {"layer_count": n_layers, "slots_per_layer": p}
    return Circuit(
        n=n,
        layers=tuple(layers),
        generator="sign",
        params=params,
        seed=seed,
        extra=extra,
    )


@dataclass(frozen=True)
class CostMeasurement:
    """Measured costs of one generated circuit."""

    gates: int
    unit_depth: int
    decomposed_depth: int
    ccx_count: int


def gate_opt_cost_profile(gp: GenParams) -> CostMeasurement:
    """Costs of ``gate_opt_thermalizer(gp)`` from its program, without
    materializing gates."""
    gates = int(gate_opt_program(gp).fired.sum())
    cost = ccx_ladder_count(gp.m)
    slots = gp.rounds * gp.n
    return CostMeasurement(gates, slots, gates * cost + (slots - gates), gates * cost)


def depth_opt_cost_profile(gp: GenParams) -> CostMeasurement:
    """Costs of ``depth_opt_thermalizer(gp)`` from a lazy walk of its
    rounds: at sweep sizes the program would hold millions of slots."""
    cost = ccx_ladder_count(gp.m)
    gates = 0
    decomposed = 0
    rounds = 0
    for _, _, _, apply_bits in _depth_opt_rounds(gp):
        fired = int(np.count_nonzero(apply_bits))
        gates += fired
        decomposed += cost if fired else 1
        rounds += 1
    return CostMeasurement(gates, rounds, decomposed, gates * cost)


def sign_cost_profile(n: int, p: int, alpha: float, t: int, m: int, seed: int = 0) -> CostMeasurement:
    """Costs of ``sign_thermalizer(...)`` from its program."""
    fired = sign_program(n, p, alpha, t, m, seed).fired
    cost = ccx_ladder_count(m)  # m-site condition: m-1 controls plus the signed target
    gates = int(fired.sum())
    decomposed = int(np.where(fired.any(axis=1), cost, 1).sum())
    return CostMeasurement(gates, fired.shape[0], decomposed, gates * cost)
