"""Random multi-controlled circuit generators.

Three constructions, all pure functions of (parameters, seed), each as
an array program and as a ``Circuit`` that is an export view of that
program.  Every program is one ``Program``: kernel rows (mask, pattern,
flips, diagonal), each row's target site and each round's gate count,
drawn for a block of seeds at once behind a leading trial axis; one
seed is a block of one.

* ``gate_opt_program`` / ``gate_opt_thermalizer``: two-stage serial bit
  thermalizer that keeps the total gate count low, one row per round.
* ``depth_opt_program`` / ``depth_opt_thermalizer``: staged parallel bit
  thermalizer that grows the control region geometrically to keep the
  depth low, one row per fired slot.
* ``sign_program`` / ``sign_thermalizer``: parallel signed-MCZ rounds
  that randomize the sign bits, one diagonal row per fired slot.

Each generator's layout is one stage table (``stage_table``): per stage,
its rounds, its condition window, its firing bits per round, the groups
it keeps and the width of its layers.  One reader, ``_draw_stages``,
consumes every generator stream from that table.  Stage j of a seed
reads its own stream ("gen", <algorithm>, j) as three blocks covering
all of the stage's rounds: the firing bits (the target mask, or the
apply bits), the polarity coins, then a float64 key matrix of shape
(rounds, window).  The reader reads the raw words of the stage's stream
of every seed of a block, one ``random_raw`` call each on one ``Philox``
re-keyed per seed (``rng.stream_words``), cuts the three
blocks out of them as those ``Generator`` calls would read them, and
sorts the whole block's keys in one argsort.  The window sites in
ascending key order are a uniform arrangement whose consecutive chunks
of m are disjoint groups; a gate-opt round keeps one.  Each program
function packs its block's rows as it draws them, in one pass, fired
slots compacted in slot order (``_place``), and every view reads the
conditions back from those rows (``_conditions``).  Because the firing
bits come first, the cost profiles read only them, and
``analysis.predicted_cost`` reads the same table for its expectations.

Generation is fully decoupled from simulation: the drivers run the
programs, ``gen`` writes the ``Circuit`` views (plus round/stage
metadata for diagnostics), and neither touches ensemble state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import MCX, SIGNED_MCZ, Circuit, ControlTerm, Gate, Layer, ccx_ladder_count
from .copysim import pack_bits, pack_conditions, site_words, unpack_bits, words_needed
from .rng import stream_words

_EMPTY_LAYER = Layer(())


def ceil_rounds(alpha: float, t: int, p: int) -> int:
    """ceil(alpha*t/p), at least 1, computed exactly from the shortest
    decimal that reads back as ``alpha`` (its repr): 0.1*30 gives 3, not
    the 4 of float arithmetic, and no round is lost at large alpha*t."""
    return max(1, math.ceil(Fraction(repr(float(alpha))) * t / p))


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
        _check_alpha(self.alpha)

    @property
    def rounds(self) -> int:
        return ceil_rounds(self.alpha, self.t, 1)

    def as_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "t": self.t, "alpha": self.alpha, "m": self.m}


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


class Stage(NamedTuple):
    """One row of a generator's stage table.

    The stage reads the stream ("gen", <algorithm>, ``stage``) for
    ``rounds`` rounds.  A round conditions on ``groups`` disjoint m-site
    groups of the ``window`` sites from site ``first`` on, and has
    ``firing`` firing bits, ``width`` of them to a layer: 1 for gate-opt's
    one-target layers, the slot count otherwise.
    """

    stage: int
    rounds: int
    first: int
    window: int
    firing: int
    groups: int
    width: int

    @property
    def first_target(self) -> int:
        """First target site of a bit stage: the site after a window that
        starts at site 1, else site 1 (the window then ends at n)."""
        return self.first + self.window if self.first == 1 else 1


def stage_table(algorithm: str, n: int, k: int, t: int, alpha: float, m: int, p: int | None = None) -> list[Stage]:
    """The stage table of one run of ``algorithm``.

    gate-opt: stage 0 conditions on one m-subset of [1, k] and fires on
    the targets [k+1, n], one layer each; stage 1 mirrors it.  depth-opt:
    growth stage at control size s partitions [1, s] into floor(s/m)
    groups, of which the first min(floor(s/m), n-s) fire on s+1, s+2, ...;
    the closing stage draws its groups from [k+1, n] and fires on 1 ..
    min(floor((n-k)/m), k).  sign: one stage of ceil(alpha*t/p) layers of
    p groups on [1, m*p]; only sign reads ``p`` and only the bit
    thermalizers read ``k``.  Only depth-opt shapes without a stage table
    are rejected; the draws check the rest.
    """
    if algorithm == "gate-opt":
        rounds = ceil_rounds(alpha, t, 1)
        return [Stage(0, rounds, 1, k, n - k, 1, 1), Stage(1, rounds, k + 1, n - k, k, 1, 1)]
    if algorithm == "depth-opt":
        if m > k:
            raise ValueError("depth-opt requires m <= k")
        if n <= k:
            raise ValueError("depth-opt requires k < n")
        if (n - k) // m < 1:
            raise ValueError("closing phase needs at least one group: n-k >= m")
        rounds = ceil_rounds(alpha, t, 1)
        table = []
        s = k
        while s < n:
            slots = min(s // m, n - s)
            table.append(Stage(len(table), rounds, 1, s, slots, slots, slots))
            s += s // m
        slots = min((n - k) // m, k)
        return table + [Stage(len(table), rounds, k + 1, n - k, slots, slots, slots)]
    if algorithm == "sign":
        if p is None:
            raise ValueError("the sign thermalizer needs p (parallel slots per layer)")
        return [Stage(0, ceil_rounds(alpha, t, p), 1, m * p, p, p, p)]
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _firing(data: np.ndarray, start: int, count: int) -> np.ndarray:
    """The fair uint8 bits that ``integers(0, 2, count, uint8)`` reads
    from ``data``, each trial's raw bytes, from uint32 ``start`` on: the
    top bit of each byte."""
    return data[:, 4 * start : 4 * start + count] >> 7


def _draw_stages(algorithm: str, table: list[Stage], m: int, seeds: Sequence[int], firing_only: bool = False):
    """Read the stream of every stage of ``table`` for each of ``seeds``.

    Per stage, each seed's stream ("gen", ``algorithm``, j) is read in
    three blocks: the (rounds, firing) uint8 firing bits, the (rounds,
    groups, m) polarity coins, then a (rounds, window) float64 key
    matrix.  Yields ``(row, bits, coins, sites)`` per stage, each block
    with a leading (B,) trial axis, ``sites`` holding each round's
    groups as 1-based sites in ascending key order: the window's first
    groups·m sites, in chunks of m, from one argsort over the block.
    With ``firing_only`` only the firing bits are read (coins and sites
    are None).  This is the only consumer of the generator streams.

    A stage reads the block's raw words at once (``rng.stream_words``)
    and cuts the three blocks out of them as ``integers``, ``integers``
    and ``random`` would read them (the ``rng`` docstring).  The words
    are shifted in place and dropped before the argsort, so a stage
    holds them once.
    """
    B = len(seeds)
    for row in table:
        shape = (B, row.rounds, row.groups, m)
        n_bits, n_coins = row.rounds * row.firing, row.rounds * row.groups * m
        bit_u32, coin_u32 = -(-n_bits // 4), 0 if firing_only else -(-n_coins // 4)
        first_key = -(-(bit_u32 + coin_u32) // 2)
        count = first_key + (0 if firing_only else row.rounds * row.window)
        words = stream_words(seeds, "gen", algorithm, row.stage, count=count)
        data = words.astype("<u8", copy=False).view(np.uint8)
        if firing_only:
            data >>= 7
            yield row, data[:, :n_bits].reshape(B, row.rounds, row.firing), None, None
            continue
        bits = _firing(data, 0, n_bits).reshape(B, row.rounds, row.firing)
        coins = _firing(data, bit_u32, n_coins).reshape(shape)
        # (w >> 11) * 2^-53 in float64; the exact power-of-two scale leaves
        # the argsort as it is
        keys = words[:, first_key:]
        keys >>= 11
        keys = keys.astype(np.float64).reshape(B, row.rounds, row.window)
        del words, data
        order = np.argsort(keys, axis=2)[:, :, : row.groups * m]
        del keys
        yield row, bits, coins, row.first + order.reshape(shape)


def _place(fired: np.ndarray, segment: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the fired slots of a block.

    ``fired`` (B, S) marks each trial's fired slots, and ``segment`` (S,)
    numbers the segment of every slot, in nondecreasing order.  Fired
    slots keep their slot order; segment j starts at the same row in
    every trial, after the block's longest segment j-1, and a trial's
    rows past its own are padding.  Returns the trial, slot and row of
    every fired slot and the width of every segment.
    """
    trial, slot = np.nonzero(fired)
    segments = int(segment[-1]) + 1
    group = trial * segments + segment[slot]
    counts = np.bincount(group, minlength=len(fired) * segments)
    widths = counts.reshape(len(fired), segments).max(axis=0)
    # fired slots come trial by trial, segment by segment, so each group's
    # first slot sits after the counts of the groups before it
    firsts = np.cumsum(counts) - counts
    row = np.arange(len(trial)) - firsts[group] + (np.cumsum(widths) - widths)[segment[slot]]
    return trial, slot, row, widths


@dataclass(frozen=True)
class Program:
    """Array form of a block of B thermalizers: kernel rows behind a
    leading trial axis, packed like copies (site i in bit (i-1) % 64 of
    word (i-1) // 64).

    A copy of trial b that equals ``patterns[b, r]`` on the sites set in
    ``masks[b, r]`` flips the sites set in ``flips[b, r]`` and, where
    ``diagonal[b, r]``, negates its sign.  ``targets[b, r]`` is the row's
    one target site: the flipped site of a depth-opt row, the signed
    site of a sign row, and 0 for a gate-opt round, which flips many.
    ``fired[b, i]`` counts the gates of round i.  Rows past a trial's
    own are zero, target 0 and off the diagonal, so they change nothing;
    there are none at B = 1.
    """

    masks: np.ndarray
    patterns: np.ndarray
    flips: np.ndarray
    diagonal: np.ndarray
    targets: np.ndarray
    fired: np.ndarray

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The kernel rows: (masks, patterns, flips, diagonal)."""
        return self.masks, self.patterns, self.flips, self.diagonal


def _padded(shape: tuple[int, int], trial: np.ndarray, row: np.ndarray, *slots: np.ndarray) -> list[np.ndarray]:
    """Zero-padded (B, R, ...) arrays of a block's fired slots: entry i
    of each of ``slots`` goes to row ``row[i]`` of trial ``trial[i]``."""
    out = [np.zeros(shape + a.shape[1:], dtype=a.dtype) for a in slots]
    for rows, a in zip(out, slots):
        rows[trial, row] = a
    return out


def _conditions(prog: Program, n: int, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """The m condition sites of each of trial 0's rows, ascending, and
    the values they must hold: the rows of one seed hold no padding."""
    condition = unpack_bits(prog.masks[0], n)
    rows, cols = np.nonzero(condition)
    shape = (len(condition), m)
    values = unpack_bits(prog.patterns[0], n)[rows, cols]
    return (cols + 1).reshape(shape).tolist(), values.reshape(shape).tolist()


def _layers(gates: list[Gate], fired: np.ndarray) -> tuple[Layer, ...]:
    """``gates`` in order, ``fired[r]`` of them to layer r."""
    layers, end = [], 0
    for count in fired.tolist():
        layers.append(Layer(gates[end : end + count], check=False) if count else _EMPTY_LAYER)
        end += count
    return tuple(layers)


def _gate_opt_stages(gp: GenParams) -> list[Stage]:
    """The gate-opt stage table, once both windows hold m sites."""
    if gp.m > gp.k:
        raise ValueError("gate-opt requires m <= k (stage-1 controls live in [1, k])")
    if gp.m > gp.n - gp.k:
        raise ValueError("gate-opt requires m <= n-k (stage-2 controls live in [k+1, n])")
    return stage_table("gate-opt", gp.n, gp.k, gp.t, gp.alpha, gp.m)


def gate_opt_program(gp: GenParams, seeds: Sequence[int] | None = None) -> Program:
    """Draw the two-stage serial bit thermalizer of every seed in
    ``seeds`` (``gp.seed`` alone by default): one row per round, the
    rounds of its stages in order, flipping every target the round's
    mask sets.  A round's controls are its m sites in ascending order,
    the j-th smallest taking the j-th coin; they never meet its targets.
    ``gate_opt_thermalizer`` is a view of the one-seed result."""
    seeds = (gp.seed,) if seeds is None else seeds
    n, rounds = gp.n, gp.rounds
    sites, coins = [], []
    targets = np.zeros((len(seeds), 2 * rounds, n), dtype=np.uint8)
    for row, mask, stage_coins, stage_sites in _draw_stages("gate-opt", _gate_opt_stages(gp), gp.m, seeds):
        lo = row.first_target - 1
        targets[:, row.stage * rounds : (row.stage + 1) * rounds, lo : lo + row.firing] = mask
        sites.append(np.sort(stage_sites[:, :, 0], axis=2))
        coins.append(stage_coins[:, :, 0])
    masks, patterns = pack_conditions(np.concatenate(sites, axis=1), np.concatenate(coins, axis=1), words_needed(n))
    shape = masks.shape[:-1]
    return Program(masks, patterns, pack_bits(targets), np.zeros(shape, dtype=bool), np.zeros(shape, dtype=np.int64),
                   targets.sum(axis=2, dtype=np.int64))


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
    sites, values = _conditions(prog, n, gp.m)
    targets = unpack_bits(prog.flips[0], n)
    # one layer per candidate target: stage 1 sweeps [k+1, n], stage 2 [1, k]
    slots = np.concatenate([targets[:rounds, k:].ravel(), targets[rounds:, :k].ravel()])
    gates, rounds_meta = [], []
    for r in range(2 * rounds):
        controls = tuple(map(ControlTerm, sites[r], values[r]))
        gates += [Gate(MCX, controls, site + 1) for site in np.flatnonzero(targets[r]).tolist()]
        rounds_meta.append(
            {
                "stage": 1 if r < rounds else 2,
                "layer": r * (n - k) if r < rounds else rounds * (n - k) + (r - rounds) * k,
                "controls": [list(pv) for pv in zip(sites[r], values[r])],
            }
        )
    extra = {"rounds": rounds_meta, "stage2_first_layer": rounds * (n - k)}
    return Circuit(
        n=n,
        layers=_layers(gates, slots),
        generator="gate-opt",
        params=gp.as_dict(),
        seed=gp.seed,
        extra=extra,
    )


def _depth_opt_stages(gp: GenParams) -> list[Stage]:
    """The depth-opt stage table, once its closing window holds 2 sites."""
    table = stage_table("depth-opt", gp.n, gp.k, gp.t, gp.alpha, gp.m)
    if gp.n - gp.k < 2:
        raise ValueError("depth-opt closing window [k+1, n] needs at least 2 sites")
    return table


def depth_opt_program(gp: GenParams, seeds: Sequence[int] | None = None) -> Program:
    """Draw the staged thermalizer of every seed in ``seeds`` (``gp.seed``
    alone by default): one row per fired slot, stage by stage, round by
    round and slot by slot, the order of ``depth_opt_thermalizer``'s
    gates.

    Slot x of a round conditions on the round's x-th group and flips the
    stage's x-th target site.  The fired slots of every stage and trial
    are selected from the block in one step; stage j starts at the same
    row in every trial, after the block's most fired slots of stage j-1.
    ``depth_opt_thermalizer`` is a view of the one-seed result.
    """
    seeds = (gp.seed,) if seeds is None else seeds
    B, m, W = len(seeds), gp.m, words_needed(gp.n)
    on, sites, values, targets, segment, fired = [], [], [], [], [], []
    for row, apply, coins, stage_sites in _draw_stages("depth-opt", _depth_opt_stages(gp), m, seeds):
        on.append(apply.reshape(B, -1) == 1)
        sites.append(stage_sites.reshape(B, -1, m))
        values.append(coins.reshape(B, -1, m))
        targets.append(np.tile(np.arange(row.first_target, row.first_target + row.firing), row.rounds))
        segment.append(np.full(row.rounds * row.firing, row.stage))
        fired.append(on[-1].reshape(B, row.rounds, row.firing).sum(axis=2))
    trial, slot, place, widths = _place(np.concatenate(on, axis=1), np.concatenate(segment))
    masks, patterns = pack_conditions(
        np.concatenate(sites, axis=1)[trial, slot], np.concatenate(values, axis=1)[trial, slot], W
    )
    target = np.concatenate(targets)[slot]
    rows = _padded((B, int(widths.sum())), trial, place, masks, patterns, site_words(W)[target],
                   np.zeros(len(slot), dtype=bool), target)
    return Program(*rows, fired=np.concatenate(fired, axis=1))


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
    sites, values = _conditions(prog, gp.n, gp.m)
    gates = [
        Gate(MCX, tuple(map(ControlTerm, s, v)), target)
        for s, v, target in zip(sites, values, prog.targets[0].tolist())
    ]
    stages_meta = [
        {"s": row.window if row.first == 1 else "closing", "p": row.window // gp.m, "targets": row.firing,
         "first_layer": row.stage * gp.rounds}
        for row in stage_table("depth-opt", gp.n, gp.k, gp.t, gp.alpha, gp.m)
    ]
    extra = {"stages": stages_meta, "growth_stages": len(stages_meta) - 1}
    return Circuit(
        n=gp.n,
        layers=_layers(gates, prog.fired[0]),
        generator="depth-opt",
        params=gp.as_dict(),
        seed=gp.seed,
        extra=extra,
    )


def _sign_stages(n: int, p: int, alpha: float, t: int, m: int) -> list[Stage]:
    """The sign stage table, once its window [1, m*p] fits in [1, n] and
    holds 2 sites."""
    if n < 1:
        raise ValueError("n must be positive")
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    if m * p > n:
        raise ValueError("sign thermalizer requires m*p <= n")
    if m * p < 2:
        raise ValueError("condition window [1, m*p] needs at least 2 sites")
    if t < 1:
        raise ValueError("t must be positive")
    _check_alpha(alpha)
    return stage_table("sign", n, 0, t, alpha, m, p)


def sign_program(
    n: int, p: int, alpha: float, t: int, m: int, seed: int = 0, seeds: Sequence[int] | None = None
) -> Program:
    """Draw the parallel sign thermalizer of every seed in ``seeds``
    (``seed`` alone by default): one diagonal row per fired slot, layer
    by layer, that flips nothing.  A slot's row is the full condition of
    its signed MCZ, its group's m sites, and its target the group's last
    drawn site.  ``sign_thermalizer`` is a view of the one-seed result."""
    seeds = (seed,) if seeds is None else seeds
    B, W = len(seeds), words_needed(n)
    [(_, apply, coins, sites)] = _draw_stages("sign", _sign_stages(n, p, alpha, t, m), m, seeds)
    on = (apply == 1).reshape(B, -1)
    trial, slot, place, [width] = _place(on, np.zeros(on.shape[1], dtype=np.intp))
    sites = sites.reshape(B, -1, m)[trial, slot]
    masks, patterns = pack_conditions(sites, coins.reshape(B, -1, m)[trial, slot], W)
    rows = _padded((B, width), trial, place, masks, patterns, np.zeros_like(masks), np.ones(len(slot), dtype=bool),
                   sites[:, -1])
    return Program(*rows, fired=on.reshape(apply.shape).sum(axis=2))


def sign_thermalizer(n: int, p: int, alpha: float, t: int, m: int, seed: int = 0) -> Circuit:
    """Parallel sign thermalizer as a ``Circuit`` (export view of
    ``sign_program``).

    Every fired slot becomes one signed MCZ whose signed target is its
    group's last drawn member (position and required value) and whose
    controls are the others.  Layers without a fired slot stay, so there
    are ceil(alpha*t/p) layers for every seed.  With m = 1 the gate
    degenerates to a single-site sign-flip condition.
    """
    prog = sign_program(n, p, alpha, t, m, seed)
    gates = []
    for sites, values, target in zip(*_conditions(prog, n, m), prog.targets[0].tolist()):
        controls = tuple(ControlTerm(s, v) for s, v in zip(sites, values) if s != target)
        gates.append(Gate(SIGNED_MCZ, controls, target, target_value=values[sites.index(target)]))
    params = {"n": n, "p": p, "t": t, "alpha": alpha, "m": m}
    extra = {"layer_count": len(prog.fired[0]), "slots_per_layer": p}
    return Circuit(
        n=n,
        layers=_layers(gates, prog.fired[0]),
        generator="sign",
        params=params,
        seed=seed,
        extra=extra,
    )


@dataclass(frozen=True)
class CostMeasurement:
    """Costs of one generated circuit: measured by the cost profiles, or
    expected over the fair firing bits by ``analysis.predicted_cost``
    (``gates``, ``decomposed_depth`` and ``ccx_count`` are then floats;
    ``unit_depth`` is exact for every seed)."""

    gates: float
    unit_depth: int
    decomposed_depth: float
    ccx_count: float


def _cost_profile(algorithm: str, table: list[Stage], m: int, seed: int) -> CostMeasurement:
    """Costs of a run from its firing bits alone, one stage block at a
    time: at sweep sizes the program would hold millions of slots.  A
    layer with a firing bit takes the ladder depth of its m-site
    condition, an empty one a unit idle step."""
    cost = ccx_ladder_count(m)
    gates = busy = layers = 0
    for row, bits, _, _ in _draw_stages(algorithm, table, m, (seed,), firing_only=True):
        fired = bits.reshape(-1, row.width).sum(axis=1)
        gates += int(fired.sum())
        busy += np.count_nonzero(fired)
        layers += len(fired)
    return CostMeasurement(gates, layers, busy * cost + layers - busy, gates * cost)


def gate_opt_cost_profile(gp: GenParams) -> CostMeasurement:
    """Costs of ``gate_opt_thermalizer(gp)`` from its target masks alone."""
    return _cost_profile("gate-opt", _gate_opt_stages(gp), gp.m, gp.seed)


def depth_opt_cost_profile(gp: GenParams) -> CostMeasurement:
    """Costs of ``depth_opt_thermalizer(gp)`` from its apply bits alone."""
    return _cost_profile("depth-opt", _depth_opt_stages(gp), gp.m, gp.seed)


def sign_cost_profile(n: int, p: int, alpha: float, t: int, m: int, seed: int = 0) -> CostMeasurement:
    """Costs of ``sign_thermalizer(...)`` from its apply bits alone."""
    return _cost_profile("sign", _sign_stages(n, p, alpha, t, m), m, seed)
