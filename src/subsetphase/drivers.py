"""Seeded experiment loops shared by the CLI and the test suites.

Every driver derives one independent stream per (master seed, purpose,
trial index), so trials are order-independent and each artifact can name
the exact stream that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from concurrent.futures import ProcessPoolExecutor

from . import subsetstate
from .circuit import ccx_ladder_count
from .copysim import (
    CopyEnsemble,
    apply_circuit,
    run_steps,
    sample_initial_copies,
    step_program,
    words_needed,
)
from .f2linalg import (
    BitMatrix,
    MonteCarloEstimate,
    is_full_row_rank,
    rank,
    sample_bernoulli_matrix,
    wilson_interval,
)
from .generators import (
    GenParams,
    ceil_rounds,
    depth_opt_thermalizer,
    gate_opt_program,
    gate_opt_thermalizer,
    sign_program,
    sign_thermalizer,
)
from .rng import derive_seed, stream


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


# Trials simulated together by the gate-opt battery and by the sign
# trials.  Results do not depend on them: every trial keeps its own named
# streams.  Sign row sets are padded to the longest of their block, so
# their smaller block keeps the padding's memory small.
_TRIAL_BLOCK = 256
_SIGN_BLOCK = 64


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

    Gate-opt trials run as packed round programs, a block of trials per
    ``copysim.run_steps`` call; depth-opt trials run their ``Circuit``.
    Every gate carries m controls, so a trial's CCX total is its gate
    count times the ladder cost.
    """
    if algorithm == "gate-opt":
        return _gate_opt_battery(n, k, t, m, alpha, trials, master_seed, diagnostics)
    if algorithm != "depth-opt":
        raise ValueError(f"unknown bit thermalizer {algorithm!r}")
    result = BitBatteryResult(ensembles=[])
    per_gate_ccx = ccx_ladder_count(m)
    for i in range(trials):
        circuit = depth_opt_thermalizer(
            GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=derive_seed(master_seed, "bit-circuit", i))
        )
        copies = sample_initial_copies(n, k, t, stream(master_seed, "bit-copies", i))
        final = apply_circuit(copies, circuit)
        result.ensembles.append(final)
        result.distinct.append(final.is_distinct())
        result.ccx_counts.append(circuit.gate_count * per_gate_ccx)
    return result


def _gate_opt_battery(
    n: int, k: int, t: int, m: int, alpha: float, trials: int, master_seed: int, diagnostics: bool
) -> BitBatteryResult:
    result = BitBatteryResult(ensembles=[])
    per_gate_ccx = ccx_ladder_count(m)
    base = GenParams(n=n, k=k, t=t, alpha=alpha, m=m)
    rounds = base.rounds
    for lo in range(0, trials, _TRIAL_BLOCK):
        block = range(lo, min(lo + _TRIAL_BLOCK, trials))
        masks, patterns, flips = (
            np.empty((len(block), 2 * rounds, words_needed(n)), dtype=np.uint64) for _ in range(3)
        )
        gates = []
        for b, i in enumerate(block):
            prog = gate_opt_program(replace(base, seed=derive_seed(master_seed, "bit-circuit", i)))
            masks[b], patterns[b], flips[b] = prog.masks, prog.patterns, prog.flips
            gates.append(int(prog.fired.sum()))
        initial = [sample_initial_copies(n, k, t, stream(master_seed, "bit-copies", i)) for i in block]
        copies = np.stack([e.copies for e in initial])
        # stage-1 rounds read only [1, k], which no stage-1 round writes:
        # their satisfaction is the condition matrix
        prog = step_program(masks, patterns, flips, record=range(rounds) if diagnostics else ())
        recorded = run_steps(prog, copies)
        for b, e in enumerate(initial):
            final = CopyEnsemble(n, copies[b], e.signs, check=False)
            if diagnostics:
                x = BitMatrix.from_dense(recorded[b])
                result.x_ranks.append(rank(x))
                result.x_full_rank.append(is_full_row_rank(x))
            result.ensembles.append(final)
            result.distinct.append(final.is_distinct())
            result.ccx_counts.append(gates[b] * per_gate_ccx)
    return result


@dataclass
class SignTrialResult:
    sign_vectors: list[np.ndarray]
    layer_count: int
    gate_counts: list[int]


def run_sign_trials(
    n: int, p: int, alpha: float, t: int, m: int, trials: int, master_seed: int
) -> SignTrialResult:
    """Sign-thermalizer sweeps: fresh circuit and fresh t distinct uniform
    copies of the full n-bit space per trial; collects final sign vectors.

    Each trial's fired slots are diagonal rows of its own row set, padded
    with inert rows to the longest set of its block; a block of trials
    runs through one ``copysim.run_steps`` call, as one step, since sign
    gates write no site.  No gate objects are built.
    """
    vectors: list[np.ndarray] = []
    gate_counts: list[int] = []
    layer_count = ceil_rounds(alpha * t / p)
    W = words_needed(n)
    for lo in range(0, trials, _SIGN_BLOCK):
        block = range(lo, min(lo + _SIGN_BLOCK, trials))
        masks, patterns = np.zeros((2, len(block), layer_count * p, W), dtype=np.uint64)
        diagonal = np.zeros((len(block), layer_count * p), dtype=bool)
        initial = []
        for b, i in enumerate(block):
            prog = sign_program(n, p, alpha, t, m, seed=derive_seed(master_seed, "sign-circuit", i))
            fired_masks, fired_patterns = prog.rows()
            fired = len(fired_masks)
            masks[b, :fired], patterns[b, :fired] = fired_masks, fired_patterns
            diagonal[b, :fired] = True
            gate_counts.append(fired)
            initial.append(sample_initial_copies(n, n, t, stream(master_seed, "sign-copies", i)))
        used = max(gate_counts[lo:])
        copies = np.stack([e.copies for e in initial])
        signs = np.stack([e.signs for e in initial])
        rows = step_program(
            masks[:, :used], patterns[:, :used], np.zeros((used, W), dtype=np.uint64), diagonal[:, :used]
        )
        run_steps(rows, copies, signs)
        vectors.extend(signs)
    return SignTrialResult(vectors, layer_count, gate_counts)


def oracle_bit_ensembles(n: int, t: int, trials: int, master_seed: int) -> list[CopyEnsemble]:
    """Direct sampler of the thermalized target: t distinct uniform
    n-bit strings per trial (no circuit involved)."""
    return [
        sample_initial_copies(n, n, t, stream(master_seed, "oracle-bits", i)) for i in range(trials)
    ]


def frozen_initial_ensembles(n: int, k: int, t: int, trials: int, master_seed: int) -> list[CopyEnsemble]:
    """Unevolved initial ensembles; the thermalization tests must fail on
    these."""
    return [
        sample_initial_copies(n, k, t, stream(master_seed, "frozen-bits", i))
        for i in range(trials)
    ]


def oracle_sign_vectors(t: int, trials: int, master_seed: int) -> list[np.ndarray]:
    """Uniform +-1 vectors, the target distribution of the sign tests."""
    out = []
    for i in range(trials):
        rng = stream(master_seed, "oracle-signs", i)
        out.append((1 - 2 * rng.integers(0, 2, size=t)).astype(np.int8))
    return out


def ensemble_subsets(ensembles: Sequence[CopyEnsemble]) -> list[tuple[int, ...]]:
    """Each ensemble's copies as a sorted tuple of basis-string ints."""
    return [tuple(sorted(e.to_ints())) for e in ensembles]


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

    The algorithm ensemble evolves the initial subset state through a
    serial bit thermalizer followed by a sign thermalizer; the oracle
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

    def alg_states():
        for i in range(samples):
            bit_circuit = gate_opt_thermalizer(
                GenParams(n=n, k=k, t=t, alpha=alpha_bit, m=m_bit,
                          seed=derive_seed(master_seed, "moment-bit", i))
            )
            sign_circuit = sign_thermalizer(
                n, p_sign, alpha_sign, t, m_sign, seed=derive_seed(master_seed, "moment-sign", i)
            )
            state = subsetstate.initial_subset_state(n, k)
            state = subsetstate.apply_circuit(state, bit_circuit)
            yield subsetstate.apply_circuit(state, sign_circuit)

    def oracle_states(tag: str):
        for i in range(samples):
            yield subsetstate.sample_oracle_state(n, k, stream(master_seed, tag, i))

    if primary == "algorithm":
        primary_states = alg_states()
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


def _mc_rank_chunk(args: tuple[int, int, float, int, int, int]) -> int:
    """Full-rank hits over one contiguous block of trial streams."""
    rows, cols, p, master_seed, lo, hi = args
    hits = 0
    for i in range(lo, hi):
        m = sample_bernoulli_matrix(rows, cols, p, stream(master_seed, "rank-mc", i))
        if is_full_row_rank(m):
            hits += 1
    return hits


def monte_carlo_full_rank_streamed(
    rows: int, cols: int, p: float, trials: int, master_seed: int, workers: int = 1
) -> MonteCarloEstimate:
    """Full-rank frequency with one named stream per trial index.

    The per-trial streams make the result independent of chunking, so any
    worker count reproduces the single-process answer bit for bit.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers <= 1:
        hits = _mc_rank_chunk((rows, cols, p, master_seed, 0, trials))
    else:
        chunk = max(64, -(-trials // workers))
        spans = [(rows, cols, p, master_seed, lo, min(lo + chunk, trials))
                 for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(_mc_rank_chunk, spans))
    return MonteCarloEstimate(hits / trials, wilson_interval(hits, trials), hits, trials)
