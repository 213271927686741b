"""Shared test oracles."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from subsetphase import subsetstate
from subsetphase.generators import GenParams, gate_opt_thermalizer, sign_thermalizer
from subsetphase.rng import derive_seed
from subsetphase.subsetstate import to_statevector


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
