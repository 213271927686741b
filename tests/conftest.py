"""Shared test oracles."""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable

import numpy as np
import pytest

from subsetphase import cli, drivers, generators, subsetstate
from subsetphase.circuit import MCX, ControlTerm, Gate
from subsetphase.copysim import CopyEnsemble, _full_condition, sample_initial_copies
from subsetphase.generators import GenParams, gate_opt_thermalizer, sign_thermalizer, stage_table
from subsetphase.rng import derive_seed, stream
from subsetphase.subsetstate import to_statevector


def stage_blocks(
    rng: np.random.Generator, rounds: int, firing: int, coins: int, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One generator stage's three blocks, read from ``rng`` in layout
    order: (rounds, firing) fair bits, (rounds, coins) fair polarity
    coins, then a (rounds, window) float64 key matrix."""
    return (
        rng.integers(0, 2, size=(rounds, firing), dtype=np.uint8),
        rng.integers(0, 2, size=(rounds, coins), dtype=np.uint8),
        rng.random((rounds, window)),
    )


def key_order(keys: np.ndarray) -> list[int]:
    """Window offsets in ascending key order, by a plain Python sort."""
    return sorted(range(len(keys)), key=lambda i: float(keys[i]))


def rmc(
    n: int, x1: int, x2: int, m: int, rng: np.random.Generator, rounds: int = 1
) -> list[tuple[list[ControlTerm], np.ndarray]]:
    """Replay oracle of a shared-condition stage on the window [x1, x2].

    Reads the stage's blocks from ``rng`` (masks over the n - window
    candidate targets, m polarity coins, window keys per round), then
    walks them round by round: the m sites with the smallest keys are
    the controls, in ascending position, the j-th smallest taking the
    j-th coin.  Returns (controls, mask) per round.
    """
    if not (1 <= x1 < x2 <= n):
        raise ValueError("window must satisfy 1 <= x1 < x2 <= n")
    window = x2 - x1 + 1
    if not 1 <= m <= window:
        raise ValueError(f"m={m} exceeds window size {window}")
    masks, coins, keys = stage_blocks(rng, rounds, n - window, m, window)
    out = []
    for mask, coin, key in zip(masks, coins, keys):
        picks = sorted(key_order(key)[:m])
        out.append(([ControlTerm(x1 + i, int(v)) for i, v in zip(picks, coin)], mask))
    return out


def prmc(
    n: int, x1: int, x2: int, m: int, p: int, rng: np.random.Generator,
    rounds: int = 1, slots: int | None = None,
) -> list[tuple[list[list[ControlTerm]], np.ndarray]]:
    """Replay oracle of a parallel stage: per round, p disjoint m-site
    conditions on the window [x1, x2] and their apply bits.

    Reads the stage's blocks from ``rng`` (apply bits, polarity coins and
    window keys per round; bits and coins only for the first ``slots``
    groups, all p by default), then walks them round by round: the
    window sites in ascending key order, in chunks of m, are the groups,
    each in draw order.  Returns (the first ``slots`` groups, apply
    bits) per round.
    """
    if not (1 <= x1 < x2 <= n):
        raise ValueError("window must satisfy 1 <= x1 < x2 <= n")
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    window = x2 - x1 + 1
    if m * p > window:
        raise ValueError(f"m*p={m * p} exceeds window size {window}")
    slots = p if slots is None else slots
    applies, coins, keys = stage_blocks(rng, rounds, slots, slots * m, window)
    out = []
    for apply_bits, coin, key in zip(applies, coins, keys):
        order = key_order(key)
        groups = [
            [ControlTerm(x1 + order[x * m + j], int(coin[x * m + j])) for j in range(m)]
            for x in range(slots)
        ]
        out.append((groups, apply_bits))
    return out


def _pack_terms_words(terms: Iterable[ControlTerm], W: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    mask = [0] * W
    pat = [0] * W
    for c in terms:
        w, b = divmod(c.position - 1, 64)
        mask[w] |= 1 << b
        if c.required_value:
            pat[w] |= 1 << b
    return tuple(mask), tuple(pat)


def apply_gate(e: CopyEnsemble, g: Gate) -> CopyEnsemble:
    """Apply one gate to every copy: the per-gate reference the step
    kernel is tested against, one gate at a time.

    MCX flips the target bit of every copy matching all controls; the
    signed MCZ negates the sign of every copy matching all controls and
    holding ``target_value`` at the target site.
    """
    for c in g.controls:
        if not 1 <= c.position <= e.n:
            raise ValueError("gate sites must lie in [1, n]")
    if not 1 <= g.target <= e.n:
        raise ValueError("gate sites must lie in [1, n]")
    out = e.clone()
    W = out.copies.shape[1]
    if g.kind == MCX:
        mask, pat = _pack_terms_words(g.controls, W)
        sat = _satisfied_words(out.copies, mask, pat)
        w, b = divmod(g.target - 1, 64)
        out.copies[sat, w] ^= np.uint64(1 << b)
    else:
        mask, pat = _pack_terms_words(_full_condition(g), W)
        sat = _satisfied_words(out.copies, mask, pat)
        out.signs[sat] = -out.signs[sat]
    return out


def _satisfied_words(copies: np.ndarray, mask: tuple[int, ...], pat: tuple[int, ...]) -> np.ndarray:
    sat = np.ones(copies.shape[0], dtype=bool)
    for w, (mw, pw) in enumerate(zip(mask, pat)):
        if mw:
            sat &= (copies[:, w] & np.uint64(mw)) == np.uint64(pw)
    return sat


def depth_opt_stage_count(n: int, k: int, m: int) -> int:
    """Number of growth stages of the staged thermalizer (deterministic)."""
    return len(stage_table("depth-opt", n, k, 1, 1.0, m)) - 1


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


# The first generator stream layout: one stream per generator, drawn round
# by round.  A gate-opt round reads permutation(window)[:m] (its controls)
# and then one coin vector of m polarities and its target mask; a
# depth-opt or sign round partitions the window into p = window // m
# groups, reading permutation(window)[:m*p] (the groups of m in draw
# order) and then m*p polarities and p apply bits.
FIRST_LAYOUT_RNG_KIND = "philox4x64/sha256-derived-streams"


def first_layout_draw_stages(algorithm, table, m, seeds, firing_only=False):
    """``generators._draw_stages``'s per-stage blocks, each seed's read
    from the first layout's one stream of ``algorithm`` across all
    stages."""
    rngs = [stream(seed, "gen", algorithm) for seed in seeds]
    for row in table:
        groups = 1 if algorithm == "gate-opt" else row.window // m
        firing = row.firing if algorithm == "gate-opt" else groups
        offsets, coins = [], []
        for rng in rngs:
            for _ in range(row.rounds):
                offsets.append(rng.permutation(row.window)[: m * groups])
                coins.append(rng.integers(0, 2, size=m * groups + firing, dtype=np.uint8))
        offsets = np.array(offsets).reshape(len(rngs), row.rounds, -1)
        coins = np.array(coins).reshape(len(rngs), row.rounds, -1)
        bits = coins[:, :, m * groups : m * groups + row.firing]
        if firing_only:
            yield row, bits, None, None
            continue
        kept = m * row.groups
        shape = (len(rngs), row.rounds, row.groups, m)
        yield row, bits, coins[:, :, :kept].reshape(shape), row.first + offsets[:, :, :kept].reshape(shape)


@pytest.fixture
def pools(monkeypatch):
    """The size of every process pool that ``drivers._map_spans`` starts;
    the pools are real."""
    sizes = []
    real = drivers.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(drivers, "ProcessPoolExecutor", recording)
    return sizes


@pytest.fixture
def first_layout(monkeypatch):
    """Put the first stream layout back in place of the generators' one
    stage reader, and its ``RNG_KIND`` in place of the reports' one.
    Everything downstream of the draws runs as it is."""
    monkeypatch.setattr(generators, "_draw_stages", first_layout_draw_stages)
    monkeypatch.setattr(cli, "RNG_KIND", FIRST_LAYOUT_RNG_KIND)


def span_rank(rows: list[int]) -> int:
    """Brute-force GF(2) rank oracle: grow the row span as an explicit
    set of packed vectors; rank = log2 of the span size.

    Independent of the elimination under test (no pivoting, no row
    reduction), so the two can only agree by computing the same thing.
    """
    span = {0}
    for v in rows:
        if v not in span:
            span |= {x ^ v for x in span}
    return (len(span) - 1).bit_length()


def dense_empirical_moment(samples, t: int) -> np.ndarray:
    """Full-space 2^(nt) x 2^(nt) moment: the average of the ``kron``-built
    t-fold self outer products of the samples' statevectors."""
    vecs = []
    for s in samples:
        psi = to_statevector(s)
        vec = psi
        for _ in range(t - 1):
            vec = np.kron(vec, psi)
        vecs.append(vec)
    phi = np.stack(vecs)
    return phi.T @ phi / len(vecs)


def dense_haar_moment(n: int, t: int) -> np.ndarray:
    """Full-space maximally random moment: the symmetrizer (1/t!) sum over
    tensor-factor permutations, divided by its trace binom(2^n + t - 1, t)."""
    d = 1 << n
    dim = d**t
    acc = np.zeros((dim, dim))
    cols = np.arange(dim)
    digits = [(cols // d ** (t - 1 - j)) % d for j in range(t)]  # digit j = factor j's index
    for perm in permutations(range(t)):
        rows = np.zeros(dim, dtype=np.int64)
        for j in range(t):
            # factor j of the permuted state carries factor perm[j] of the input
            rows += digits[perm[j]] * d ** (t - 1 - j)
        acc[rows, cols] += 1.0
    acc /= math.factorial(t)
    return acc / np.trace(acc)


def dense_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of a - b."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def reference_moment_states(
    n, k, t, samples, master_seed, alpha_bit, m_bit, alpha_sign, m_sign, p_sign
):
    """Per-sample ``Circuit`` path of the moment experiment's algorithm
    ensemble: build each sample's gate-opt and sign circuits and walk the
    subset table through them, one sample at a time."""
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
