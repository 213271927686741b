"""Seeded experiment loops shared by the CLI and the test suites.

Every driver derives one independent stream per (master seed, purpose,
trial index), so trials are order-independent and each artifact can name
the exact stream that produced it, however trials are grouped.  Every
trial loop that simulates, ``sim``'s too, runs through ``run_blocks``,
which asks for a block of trials at a time: the drivers draw a block's
programs and initial copies together, one pass over its seeds.  A block
derives its circuit seeds with one ``rng.block_seeds`` call and reads
its copy pools through one ``rng.TrialStreams``, one re-keyed ``Philox``
for the block.  The block is the unit a loop folds, too: ``run_blocks``
yields its (B, t, W) copies, (B, t) signs and (B, t, R) recorded rows,
and the loops write or read them as block slices, ranking a block's
condition matrices, or ``rank-mc``'s Bernoulli matrices read through one
``rng.TrialStreams``, in one ``f2linalg.ranks`` call.

The sign trials, the bit battery and the full-rank Monte Carlo of
``rank-mc`` and ``bounds`` split their trials into contiguous spans, one
per core this process may use, and ``_map_spans`` runs the spans in a
pool of forked workers.  A span returns arrays; the parent joins them in
span order, so the results are the same bytes at any core count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import subsetstate
from .circuit import ccx_ladder_count
from .copysim import (
    CopyEnsemble,
    StepProgram,
    check_initial_shape,
    distinct,
    pack_bits,
    run_steps,
    sample_initial_block,
    step_program,
    words_needed,
)
from .f2linalg import MonteCarloEstimate, ranks, wilson_interval
from .generators import (
    GenParams,
    Stage,
    _depth_opt_stages,
    _gate_opt_stages,
    _sign_stages,
    depth_opt_program,
    gate_opt_program,
    sign_program,
)
from .rng import TrialStreams, block_seeds, stream


@dataclass
class BitBatteryResult:
    """Per-trial outcomes of a bit-thermalizer run."""

    ensembles: list[CopyEnsemble]
    x_full_rank: list[bool] = field(default_factory=list)
    x_ranks: list[int] = field(default_factory=list)
    distinct: list[bool] = field(default_factory=list)
    ccx_counts: list[int] = field(default_factory=list)

    @property
    def x_full_rank_frequency(self) -> float:
        if not self.x_full_rank:
            raise ValueError("no condition-matrix diagnostics recorded")
        return sum(self.x_full_rank) / len(self.x_full_rank)

    @property
    def all_distinct(self) -> bool:
        return all(self.distinct)


# uint64 words a block of trials fills, counting the most rows its trials
# can hold (mask, pattern and flips) and its copies.  Results do not
# depend on it: every trial keeps its own streams, and batching is exact.
_BLOCK_CELLS = 1 << 14
# A span of trials holds at least this many blocks: a run too small to
# fill two spans stays in this process and pays no pool start-up (about
# 20 ms for two forked workers).  At 8, verify's 1000-trial gate-opt
# battery at n=64, k=24, t=8 (blocks of 56) fills two spans: timed as the
# first call of fresh launches on 2 vCPUs it took 0.16-0.21 s as two
# spans against 0.19-0.31 s as one.
_SPAN_BLOCKS = 8
# rank-mc trials a span holds at least, and a block at most: 10^4 trials
# at p=0.25 on one core took 0.12 s (16x64) and 0.23 s (24x96) in blocks of
# 64, 0.24 s and 0.42 s in blocks of 16, and 0.10 s and 0.21 s in 256.
_RANK_SPAN_TRIALS = 64


def _core_count() -> int:
    """Cores this process may run on: its affinity mask, where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_spans(fn: Callable[[tuple], object], args: tuple, trials: int, least: int) -> list:
    """``fn(args + (lo, hi))`` over contiguous spans lo .. hi-1 that cover
    trials 0 .. trials-1, in span order.

    There is one span per core this process may use (``_core_count``),
    and fewer where a span would hold under ``least`` trials.  One span
    runs in this process.  More run in a pool of forked workers, one per
    span, closed and joined on every path.  Where the platform cannot
    fork, all the trials run in this process: a worker started any other
    way imports numpy afresh, which costs more than a span saves.
    """
    from multiprocessing import get_all_start_methods, get_context

    cores = _core_count() if "fork" in get_all_start_methods() else 1
    count = max(1, min(cores, trials // least))
    bounds = [trials * j // count for j in range(count + 1)]
    spans = [(*args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if count == 1:
        return [fn(spans[0])]
    with ProcessPoolExecutor(max_workers=count, mp_context=get_context("fork")) as pool:
        return list(pool.map(fn, spans))


def _block_trials(words: int, fixed: int = 0) -> int:
    """Trials in a block of trials that add at most ``words`` words each
    to ``fixed`` shared ones: as many as first fill ``_BLOCK_CELLS``, at
    least one."""
    return max(1, -(-(_BLOCK_CELLS - fixed) // words))


def _trial_words(n: int, t: int, *tables: list[Stage]) -> int:
    """The most uint64 words one trial adds to a block: its copies, and
    three per row word (mask, pattern, flips) of the programs of
    ``tables``, which hold at most one row per kept group of a round."""
    rows = sum(row.rounds * row.groups for table in tables for row in table)
    return (3 * rows + t) * words_needed(n)


def run_blocks(
    lo: int,
    hi: int,
    draw: Callable[[int, int], tuple[tuple[np.ndarray, ...] | None, np.ndarray, np.ndarray]],
    words: int,
    record: Sequence[int] = (),
    shared: StepProgram | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Run trials lo .. hi-1 through the step kernel, a block at a time.

    ``draw(a, b)``, called in trial order, gives the block of trials
    a .. b-1: its rows (masks, patterns, flips, diagonal), each with a
    leading trial axis and zero-padded to the block's longest trial, and
    its (B, t, W) initial copies and (B, t) signs.  Or ``shared`` holds
    one step program that every trial runs, grouped into steps once;
    ``draw`` then gives None for the rows, and the rows count once.

    A block runs in one ``copysim.run_steps`` call.  ``words`` is the
    most one trial can add to a block (see ``_trial_words``); a block
    holds ``_block_trials`` trials, counting the shared rows.  Yields,
    block by block in trial order, the block's first trial a, its final
    copies and signs, and the (B, t, len(record)) satisfaction of the
    ``record`` rows.
    """
    size = _block_trials(words, 0 if shared is None else 3 * shared.masks.size)
    for start in range(lo, hi, size):
        rows, copies, signs = draw(start, min(hi, start + size))
        program = step_program(*rows, record=record) if shared is None else shared
        yield start, copies, signs, run_steps(program, copies, signs)


def _bit_span(span: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit-battery trials lo .. hi-1: their (B, t, W) final copies,
    condition-matrix ranks (none unless ``record``) and CCX counts."""
    algorithm, base, record, words, master_seed, lo, hi = span
    program = gate_opt_program if algorithm == "gate-opt" else depth_opt_program
    n, k, t = base.n, base.k, base.t
    finals = np.zeros((hi - lo, t, words_needed(n)), dtype=np.uint64)
    x_ranks = np.zeros(hi - lo if record else 0, dtype=np.int64)
    ccx = np.zeros(hi - lo, dtype=np.int64)
    per_gate_ccx = ccx_ladder_count(base.m)

    def draw(a: int, b: int):
        prog = program(base, block_seeds(master_seed, "bit-circuit", a, b))
        ccx[a - lo : b - lo] = prog.fired.sum(axis=1) * per_gate_ccx
        copies = sample_initial_block(n, k, t, TrialStreams(master_seed, "bit-copies", a, b))
        return prog.rows(), copies, np.ones((b - a, t), dtype=np.int8)

    for a, copies, _, recorded in run_blocks(lo, hi, draw, words, record):
        block = slice(a - lo, a - lo + len(copies))
        finals[block] = copies
        if record:
            x_ranks[block] = ranks(pack_bits(recorded))
    return finals, x_ranks, ccx


def run_bit_battery(
    algorithm: str,
    n: int,
    k: int,
    t: int,
    m: int,
    alpha: float,
    trials: int,
    master_seed: int,
    diagnostics: bool = True,
) -> BitBatteryResult:
    """Run `trials` independent thermalizer executions.

    Each trial draws a fresh circuit and fresh initial copies.  With
    diagnostics on (gate-opt only), the stage-1 condition matrix is
    recorded through the run and its rank checked against t.

    Trials run the rows of ``gate_opt_program`` or ``depth_opt_program``
    through ``run_blocks``; no gate objects are built.  Every gate
    carries m controls, so a trial's CCX total is its gate count times
    the ladder cost.  Spans of trials run on every core this process may
    use (``_map_spans``); every parameter is checked here first.  The
    joined (trials, t, W) final copies are checked for distinct copies
    in one ``copysim.distinct`` call.
    """
    if algorithm not in ("gate-opt", "depth-opt"):
        raise ValueError(f"unknown bit thermalizer {algorithm!r}")
    base = GenParams(n=n, k=k, t=t, alpha=alpha, m=m)
    table = _gate_opt_stages(base) if algorithm == "gate-opt" else _depth_opt_stages(base)
    check_initial_shape(n, k, t)
    # stage-1 gate-opt rounds read only [1, k], which no stage-1 round
    # writes: their satisfaction is the condition matrix
    record = range(base.rounds) if algorithm == "gate-opt" and diagnostics else ()
    words = _trial_words(n, t, table)
    spans = _map_spans(
        _bit_span, (algorithm, base, record, words, master_seed), trials, _SPAN_BLOCKS * _block_trials(words)
    )
    finals, x_ranks, ccx = (np.concatenate(parts) for parts in zip(*spans))
    signs = np.ones((trials, t), dtype=np.int8)
    return BitBatteryResult(
        ensembles=[CopyEnsemble(n, c, s, check=False) for c, s in zip(finals, signs)],
        x_full_rank=(x_ranks == t).tolist(),
        x_ranks=x_ranks.tolist(),
        distinct=distinct(finals).tolist(),
        ccx_counts=ccx.tolist(),
    )


@dataclass
class SignTrialResult:
    sign_vectors: list[np.ndarray]
    layer_count: int
    gate_counts: list[int]


def _sign_span(span: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Sign trials lo .. hi-1: their (B, t) final signs and gate counts."""
    n, p, alpha, t, m, words, master_seed, lo, hi = span
    signs = np.zeros((hi - lo, t), dtype=np.int8)
    gates = np.zeros(hi - lo, dtype=np.int64)

    def draw(a: int, b: int):
        prog = sign_program(n, p, alpha, t, m, seeds=block_seeds(master_seed, "sign-circuit", a, b))
        gates[a - lo : b - lo] = prog.fired.sum(axis=1)
        copies = sample_initial_block(n, n, t, TrialStreams(master_seed, "sign-copies", a, b))
        return prog.rows(), copies, np.ones((b - a, t), dtype=np.int8)

    for a, _, final, _ in run_blocks(lo, hi, draw, words):
        signs[a - lo : a - lo + len(final)] = final
    return signs, gates


def run_sign_trials(
    n: int, p: int, alpha: float, t: int, m: int, trials: int, master_seed: int
) -> SignTrialResult:
    """Sign-thermalizer sweeps: fresh circuit and fresh t distinct uniform
    copies of the full n-bit space per trial; collects final sign vectors.

    Each trial's fired slots run through ``run_blocks`` as diagonal
    rows, one step, since sign gates write no site.  Spans of trials run
    on every core this process may use (``_map_spans``); every parameter
    is checked here first.
    """
    [stage] = _sign_stages(n, p, alpha, t, m)
    check_initial_shape(n, n, t)
    words = _trial_words(n, t, [stage])
    spans = _map_spans(
        _sign_span, (n, p, alpha, t, m, words, master_seed), trials, _SPAN_BLOCKS * _block_trials(words)
    )
    signs, gates = (np.concatenate(parts) for parts in zip(*spans))
    return SignTrialResult(list(signs), stage.rounds, gates.tolist())


def ensemble_subsets(ensembles: Sequence[CopyEnsemble]) -> list[tuple[int, ...]]:
    """Each ensemble's copies as a sorted tuple of basis-string ints."""
    return [tuple(sorted(e.to_ints())) for e in ensembles]


def moment_states(
    n: int,
    k: int,
    t: int,
    samples: int,
    master_seed: int,
    alpha_bit: float,
    m_bit: int,
    alpha_sign: float,
    m_sign: int,
    p_sign: int,
) -> Iterator[subsetstate.SubsetState]:
    """The algorithm ensemble of ``run_moment_experiment``, in sample order.

    Sample i evolves the initial subset table through the serial bit
    thermalizer of stream ("moment-bit", i), then the sign thermalizer of
    stream ("moment-sign", i).  A table is a batch of 2^k single copies,
    so ``run_blocks`` runs each sample's gate-opt rows followed by its
    diagonal sign rows on a (2^k, W) table.  The two row sets of a block
    are joined here, slot by slot, so the sign rows start at the same
    row in every trial and the step boundary between them stays one.
    """
    initial = subsetstate.initial_subset_state(n, k)
    bit_params = GenParams(n=n, k=k, t=t, alpha=alpha_bit, m=m_bit)
    words = _trial_words(
        n, len(initial.images), _gate_opt_stages(bit_params), _sign_stages(n, p_sign, alpha_sign, t, m_sign)
    )

    def draw(lo: int, hi: int):
        bit_prog = gate_opt_program(bit_params, block_seeds(master_seed, "moment-bit", lo, hi))
        sign_seeds = block_seeds(master_seed, "moment-sign", lo, hi)
        sign_prog = sign_program(n, p_sign, alpha_sign, t, m_sign, seeds=sign_seeds)
        copies, signs = np.tile(initial.images, (hi - lo, 1, 1)), np.tile(initial.signs, (hi - lo, 1))
        rows = tuple(np.concatenate(pair, axis=1) for pair in zip(bit_prog.rows(), sign_prog.rows()))
        return rows, copies, signs

    for _, images, signs, _ in run_blocks(0, samples, draw, words):
        for table, table_signs in zip(images, signs):
            yield subsetstate.SubsetState(n, k, table, table_signs)


@dataclass
class MomentExperiment:
    """Trace distances of a primary state ensemble and of an always-run
    oracle baseline from the maximally random moment, in one run."""

    n: int
    k: int
    t: int
    samples: int
    primary: str
    td_primary: float
    td_oracle: float
    params: dict


def run_moment_experiment(
    n: int,
    k: int,
    t: int,
    samples: int,
    master_seed: int,
    alpha_bit: float = 16.0,
    m_bit: int = 2,
    alpha_sign: float = 24.0,
    m_sign: int = 3,
    p_sign: int = 2,
    primary: str = "algorithm",
) -> MomentExperiment:
    """Empirical t-th-moment comparison at tiny scale.

    The algorithm ensemble (``moment_states``) evolves the initial subset
    table through the rows of a serial bit thermalizer followed by a
    sign thermalizer, a block of samples per kernel call; the oracle
    baseline samples uniform subsets with uniform signs directly and is
    always computed.  ``primary="oracle"`` swaps the measured ensemble
    for a second, independent oracle run (a null comparison).

    The sign conditions span m_sign >= 3 sites by default: 1- and 2-site
    sign conditions cannot cancel sign products over XOR-closed image
    quadruples, which a t = 2 moment is sensitive to.
    """
    if primary not in ("algorithm", "oracle"):
        raise ValueError("primary must be 'algorithm' or 'oracle'")
    subsetstate.check_moment_size(n, t, samples)
    haar = subsetstate.haar_moment(n, t)

    def oracle_states(tag: str):
        for i in range(samples):
            yield subsetstate.sample_oracle_state(n, k, stream(master_seed, tag, i))

    if primary == "algorithm":
        primary_states = moment_states(
            n, k, t, samples, master_seed, alpha_bit, m_bit, alpha_sign, m_sign, p_sign
        )
    else:
        primary_states = oracle_states("moment-primary-oracle")
    td_primary = subsetstate.trace_distance(subsetstate.empirical_moment(primary_states, t), haar)
    td_oracle = subsetstate.trace_distance(
        subsetstate.empirical_moment(oracle_states("moment-oracle"), t), haar
    )
    return MomentExperiment(
        n=n,
        k=k,
        t=t,
        samples=samples,
        primary=primary,
        td_primary=td_primary,
        td_oracle=td_oracle,
        params={
            "alpha_bit": alpha_bit,
            "m_bit": m_bit,
            "alpha_sign": alpha_sign,
            "m_sign": m_sign,
            "p_sign": p_sign,
        },
    )


def _mc_rank_span(span: tuple[int, int, float, int, int, int]) -> int:
    """Full-rank hits over trials lo .. hi-1, a block of trial streams at
    a time: ``_RANK_SPAN_TRIALS`` trials, or fewer where their words would
    pass ``64 * _BLOCK_CELLS``, at least one.

    Trial i's matrix is the first rows * cols words w of stream
    ("rank-mc", i), cut as (w >> 11) * 2^-53 < p, which is what
    ``stream(master_seed, "rank-mc", i).random((rows, cols)) < p`` reads
    (``rng`` docstring); w >> 11 is an integer, so that is exactly
    (w >> 11) < ceil(p * 2^53).  A rank is at most ``cols``, so a trial
    with more rows than columns is never full.
    """
    rows, cols, p, master_seed, lo, hi = span
    size = max(1, min(_RANK_SPAN_TRIALS, 64 * _BLOCK_CELLS // max(1, rows * cols)))
    cut = np.uint64(math.ceil(p * 2.0**53))
    hits = 0
    for a in range(lo, hi, size):
        b = min(hi, a + size)
        words = TrialStreams(master_seed, "rank-mc", a, b).words(rows * cols)
        words >>= np.uint64(11)
        bits = (words < cut).reshape(b - a, rows, cols)
        del words  # else it lives on while the next block's words are read
        hits += int((ranks(pack_bits(bits)) == rows).sum())
    return hits


def monte_carlo_full_rank_streamed(rows: int, cols: int, p: float, trials: int, master_seed: int) -> MonteCarloEstimate:
    """Full-rank frequency with one named stream per trial index.

    Spans of trials run on every core this process may use
    (``_map_spans``).  The per-trial streams make the result independent
    of how the trials split into spans, so any core count reproduces the
    single-process answer bit for bit.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must not be negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    hits = sum(_map_spans(_mc_rank_span, (rows, cols, p, master_seed), trials, _RANK_SPAN_TRIALS))
    return MonteCarloEstimate(hits / trials, wilson_interval(hits, trials), hits, trials)
