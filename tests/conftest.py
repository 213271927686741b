"""Shared test oracles."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from subsetphase import subsetstate
from subsetphase.circuit import ControlTerm
from subsetphase.generators import GenParams, _prmc_draw, _rmc_draw, gate_opt_thermalizer, sign_thermalizer
from subsetphase.rng import derive_seed
from subsetphase.subsetstate import to_statevector


def rmc(
    n: int, x1: int, x2: int, m: int, rng: np.random.Generator
) -> tuple[list[ControlTerm], np.ndarray]:
    """Replay oracle of one shared-condition round on the window [x1, x2].

    Draws m distinct control positions uniformly from the window, each
    with an independent fair-coin required value, plus a uniform mask
    over the n - (x2 - x1 + 1) candidate target sites.  Controls come
    back in ascending position, the j-th smallest taking the j-th coin.
    """
    if not (1 <= x1 < x2 <= n):
        raise ValueError("window must satisfy 1 <= x1 < x2 <= n")
    window = x2 - x1 + 1
    if not 1 <= m <= window:
        raise ValueError(f"m={m} exceeds window size {window}")
    picks, coins = _rmc_draw(n, window, m, rng)
    controls = [ControlTerm(x1 + int(p), int(v)) for p, v in zip(np.sort(picks), coins[:m])]
    return controls, coins[m:]


def prmc(
    n: int, x1: int, x2: int, m: int, p: int, rng: np.random.Generator
) -> tuple[list[list[ControlTerm]], np.ndarray]:
    """Replay oracle of one parallel round: p disjoint m-site conditions
    on the window [x1, x2] (each in draw order) plus p apply bits."""
    if not (1 <= x1 < x2 <= n):
        raise ValueError("window must satisfy 1 <= x1 < x2 <= n")
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    window = x2 - x1 + 1
    if m * p > window:
        raise ValueError(f"m*p={m * p} exceeds window size {window}")
    offsets, coins = _prmc_draw(window, m, p, rng)
    terms = [ControlTerm(x1 + int(o), int(v)) for o, v in zip(offsets, coins[: m * p])]
    return [terms[i * m : (i + 1) * m] for i in range(p)], coins[m * p :]


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
