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

Each generator reads its random stream in one draw function, one stage
at a time.  Stage j reads its own stream ("gen", <algorithm>, j) as
three blocks covering all of the stage's rounds: the firing bits (the
target mask, or the apply bits), the polarity coins, then a float64 key
matrix of shape (rounds, window).  The smallest m keys of a row pick a
uniform m-subset of the window; the keys in ascending order give a
uniform arrangement whose consecutive chunks of m are disjoint groups.
Because the firing bits come first, the cost profiles read only them.

Generation is fully decoupled from simulation: the drivers run the
programs, ``gen`` writes the ``Circuit`` views (plus round/stage
metadata for diagnostics), and neither touches ensemble state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _gate_opt_draw(gp: GenParams, firing_only: bool = False):
    """Draw the gate-opt stream, one stage at a time.

    Stage 0 (stage 1 of the circuit metadata) conditions on m sites of
    [1, k] and targets [k+1, n]; stage 1 mirrors it with controls in
    [k+1, n] and targets [1, k].  Stage j reads the stream ("gen",
    "gate-opt", j) in three blocks: the (rounds, targets) uint8 target
    mask, the (rounds, m) polarity coins, then a (rounds, window) float64
    key matrix whose m smallest keys per row pick the round's controls.
    Yields ``(target_first, mask, coins, sites)`` per stage, ``sites``
    holding each round's 1-based control sites in ascending order, the
    j-th smallest taking the j-th coin.  With ``firing_only`` only the
    masks are drawn (coins and sites are None).  This is the only
    consumer of the gate-opt stream.
    """
    n, k, m, rounds = gp.n, gp.k, gp.m, gp.rounds
    if m > k:
        raise ValueError("gate-opt requires m <= k (stage-1 controls live in [1, k])")
    if m > n - k:
        raise ValueError("gate-opt requires m <= n-k (stage-2 controls live in [k+1, n])")
    for stage, (x1, window, target_first) in enumerate(((1, k, k + 1), (k + 1, n - k, 1))):
        rng = stream(gp.seed, "gen", "gate-opt", stage)
        mask = rng.integers(0, 2, size=(rounds, n - window), dtype=np.uint8)
        if firing_only:
            yield target_first, mask, None, None
            continue
        coins = rng.integers(0, 2, size=(rounds, m), dtype=np.uint8)
        picks = np.argpartition(rng.random((rounds, window)), m - 1, axis=1)[:, :m]
        yield target_first, mask, coins, x1 + np.sort(picks, axis=1)


def gate_opt_program(gp: GenParams) -> GateOptProgram:
    """Draw the two-stage serial bit thermalizer as packed round arrays:
    the rounds of ``_gate_opt_draw``'s stages in order.
    ``gate_opt_thermalizer`` is a view of the result."""
    n, rounds = gp.n, gp.rounds
    sites, coins = [], []
    targets = np.zeros((2 * rounds, n), dtype=np.uint8)
    for stage, (target_first, mask, stage_coins, stage_sites) in enumerate(_gate_opt_draw(gp)):
        lo = target_first - 1
        targets[stage * rounds : (stage + 1) * rounds, lo : lo + mask.shape[1]] = mask
        sites.append(stage_sites)
        coins.append(stage_coins)
    sites = np.concatenate(sites)
    masks, patterns = pack_sites(np.array((sites, sites * np.concatenate(coins))), words_needed(n))
    return GateOptProgram(
        masks=masks,
        patterns=patterns,
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


def _depth_opt_draw(gp: GenParams, firing_only: bool = False):
    """Draw the depth-opt stream, one stage at a time.

    Stage j, the ``_depth_opt_stages`` row (x1, x2, p, slots, _), reads
    the stream ("gen", "depth-opt", j) in three blocks: the
    (rounds, slots) uint8 apply bits, the (rounds, slots, m) polarity
    coins, then a (rounds, x2 - x1 + 1) float64 key matrix.  The window
    sites in ascending key order form a uniform arrangement whose
    consecutive chunks of m are the round's p groups; only the first
    ``slots`` groups can fire, so only theirs are kept.  Yields ``(stage,
    apply, coins, sites)`` per stage, ``sites`` holding each kept
    group's 1-based sites in draw order.  With ``firing_only`` only the
    apply bits are drawn (coins and sites are None), which keeps the
    cost profile at one small block per stage.  This is the only
    consumer of the depth-opt stream.
    """
    n, k, m, rounds = gp.n, gp.k, gp.m, gp.rounds
    stages = _depth_opt_stages(n, k, m)
    if n - k < 2:
        raise ValueError("depth-opt closing window [k+1, n] needs at least 2 sites")
    for j, stage in enumerate(stages):
        x1, x2, _, slots, _ = stage
        rng = stream(gp.seed, "gen", "depth-opt", j)
        apply = rng.integers(0, 2, size=(rounds, slots), dtype=np.uint8)
        if firing_only:
            yield stage, apply, None, None
            continue
        coins = rng.integers(0, 2, size=(rounds, slots, m), dtype=np.uint8)
        order = np.argsort(rng.random((rounds, x2 - x1 + 1)), axis=1)[:, : slots * m]
        yield stage, apply, coins, x1 + order.reshape(rounds, slots, m)


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

    Each stage's fired slots are selected from its ``_depth_opt_draw``
    blocks in one step: slot x of a round conditions on the round's x-th
    group and targets site target_base + x + 1.
    ``depth_opt_thermalizer`` is a view of the result.
    """
    sites, values, targets, fired = [], [], [], []
    for (_, _, _, _, target_base), apply, coins, stage_sites in _depth_opt_draw(gp):
        on = apply == 1
        sites.append(stage_sites[on])
        values.append(coins[on])
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


def _sign_draw(n: int, p: int, alpha: float, t: int, m: int, seed: int, firing_only: bool = False):
    """Draw the sign stream: its one stage of ceil(alpha*t/p) layers.

    Each layer partitions the window [1, m*p] into p disjoint m-site
    groups, each with fair-coin required values and a fair apply bit.
    The stream ("gen", "sign", 0) gives three blocks: the (layers, p)
    uint8 apply bits, the (layers, p, m) polarity coins, then a
    (layers, m*p) float64 key matrix; the window sites in ascending key
    order, in chunks of m, are the groups.  Returns ``(apply, coins,
    sites)``, ``sites`` holding each group's 1-based sites in draw
    order.  With ``firing_only`` only the apply bits are drawn (coins
    and sites are None).  This is the only consumer of the sign stream.
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
    layers = ceil_rounds(alpha * t / p)
    rng = stream(seed, "gen", "sign", 0)
    apply = rng.integers(0, 2, size=(layers, p), dtype=np.uint8)
    if firing_only:
        return apply, None, None
    coins = rng.integers(0, 2, size=(layers, p, m), dtype=np.uint8)
    order = np.argsort(rng.random((layers, m * p)), axis=1)
    return apply, coins, 1 + order.reshape(layers, p, m)


def sign_program(n: int, p: int, alpha: float, t: int, m: int, seed: int = 0) -> SignProgram:
    """Draw the parallel sign thermalizer as slot arrays (the blocks of
    ``_sign_draw``).  ``sign_thermalizer`` is a view of the result."""
    apply, coins, sites = _sign_draw(n, p, alpha, t, m, seed)
    return SignProgram(n, sites, coins, apply == 1)


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
    """Costs of ``gate_opt_thermalizer(gp)`` from its target masks alone:
    every round keeps one layer per candidate target."""
    gates = sum(int(mask.sum()) for _, mask, _, _ in _gate_opt_draw(gp, firing_only=True))
    cost = ccx_ladder_count(gp.m)
    slots = gp.rounds * gp.n
    return CostMeasurement(gates, slots, gates * cost + (slots - gates), gates * cost)


def _layer_costs(fired: np.ndarray, cost: int) -> CostMeasurement:
    """Costs of layers whose fired-slot counts are ``fired``: a layer with
    a gate takes its ladder depth, an empty one a unit idle step."""
    gates = int(fired.sum())
    return CostMeasurement(gates, len(fired), int(np.where(fired > 0, cost, 1).sum()), gates * cost)


def depth_opt_cost_profile(gp: GenParams) -> CostMeasurement:
    """Costs of ``depth_opt_thermalizer(gp)`` from its apply bits alone,
    one stage at a time: at sweep sizes the program would hold millions
    of slots."""
    fired = [apply.sum(axis=1) for _, apply, _, _ in _depth_opt_draw(gp, firing_only=True)]
    return _layer_costs(np.concatenate(fired), ccx_ladder_count(gp.m))


def sign_cost_profile(n: int, p: int, alpha: float, t: int, m: int, seed: int = 0) -> CostMeasurement:
    """Costs of ``sign_thermalizer(...)`` from its apply bits alone."""
    apply, _, _ = _sign_draw(n, p, alpha, t, m, seed, firing_only=True)
    # m-site condition: m-1 controls plus the signed target
    return _layer_costs(apply.sum(axis=1), ccx_ladder_count(m))
