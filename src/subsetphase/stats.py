"""Statistical tests quantifying thermalization of bits, signs, subsets.

Each test folds a batch of trial outcomes into a ``TestReport`` with the
raw statistic, a p-value or total-variation value, and a pass/fail at
the configured threshold.  Defaults follow one policy: family-wise
significance 1e-3, Bonferroni-corrected across cells where a test scans
many cells.  Thresholds are recorded in the report so sweeps can be
re-decided offline.  All tests are pure folds over their inputs, so
outcomes are deterministic for seeded trial data.  The two bit folds,
``marginal_bias_test`` and ``pairwise_xor_test``, read a batch of copy
ensembles the same way: its shape checked once, its copies stacked once
and unpacked a chunk of trials at a time (``_bit_chunks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, sqrt
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.special import chdtrc, ndtr, ndtri, pdtr, pdtrc

from .copysim import CopyEnsemble, unpack_bits
from .rng import stream

DEFAULT_ALPHA = 1e-3
# Largest t-subset domain binom(2^n, t) the uniformity test enumerates
SUBSET_DOMAIN_MAX = 100_000
# Trials unpacked at a time by the bit folds; ``pairwise_xor_test`` folds
# each chunk in one float32 product, exact while a chunk holds under 2^24
_BIT_CHUNK = 256
_MIN_EXPECTED_FOR_CHI2 = 5.0


@dataclass
class TestReport:
    """Outcome of one statistical test."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    statistic: float
    samples: int
    passed: bool
    threshold: float
    p_value: float | None = None
    tv: float | None = None
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")
        if self.tv is not None and not 0.0 <= self.tv <= 1.0 + 1e-12:
            raise ValueError("tv must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "tv": self.tv,
            "samples": self.samples,
            "passed": bool(self.passed),
            "threshold": self.threshold,
            "seed": self.seed,
            "details": self.details,
        }


def _bit_chunks(ensembles: Sequence[CopyEnsemble]) -> Iterator[np.ndarray]:
    """The (N, t, n) uint8 bits of ``ensembles``, ``_BIT_CHUNK`` trials at
    a time, once every ensemble is checked to share the first one's
    (t, n).  The copies are stacked once and unpacked a chunk at a time,
    so the unpacked bits held stay bounded."""
    t, n = ensembles[0].t, ensembles[0].n
    if any(e.t != t or e.n != n for e in ensembles):
        raise ValueError("all ensembles must share (t, n)")
    copies = np.stack([e.copies for e in ensembles])
    for lo in range(0, len(copies), _BIT_CHUNK):
        yield unpack_bits(copies[lo : lo + _BIT_CHUNK], n)


def check_marginal_trials(n_trials: int) -> None:
    """Raise unless ``marginal_bias_test`` has enough trials to decide."""
    if n_trials < 1000:
        raise ValueError("marginal bias test needs at least 1000 trials")


def marginal_bias_test(
    ensembles: Sequence[CopyEnsemble],
    alpha: float = DEFAULT_ALPHA,
    seed: int | None = None,
) -> TestReport:
    """Per-(copy, site) frequency of bit = 1 against the fair value 1/2.

    Flags any cell whose z-score exceeds the two-sided threshold at
    family-wise level ``alpha`` Bonferroni-corrected over all t*n cells
    (never below 4 sigma).  Needs at least 10^3 trials.
    """
    n_trials = len(ensembles)
    check_marginal_trials(n_trials)
    counts = sum(bits.sum(axis=0, dtype=np.int64) for bits in _bit_chunks(ensembles))
    cells = counts.size
    sigma = 0.5 / sqrt(n_trials)
    z = (counts / n_trials - 0.5) / sigma
    z_crit = max(4.0, float(ndtri(1.0 - alpha / (2.0 * cells))))
    flagged = np.argwhere(np.abs(z) > z_crit)
    max_abs_z = float(np.abs(z).max())
    return TestReport(
        name="marginal_bias",
        statistic=max_abs_z,
        samples=n_trials,
        passed=flagged.size == 0,
        threshold=z_crit,
        p_value=float(min(1.0, cells * 2.0 * ndtr(-max_abs_z))),
        seed=seed,
        details={
            "cells": cells,
            "flagged": [
                {"copy": int(c) + 1, "site": int(s) + 1, "freq": counts[c, s] / n_trials}
                for c, s in flagged[:32]
            ],
            "flagged_count": int(flagged.shape[0]),
        },
    )


def check_pairwise_shape(n_trials: int, t: int) -> None:
    """Raise unless ``pairwise_xor_test`` can decide on ``n_trials``
    ensembles of t copies."""
    if n_trials < 1000:
        raise ValueError("pairwise xor test needs at least 1000 trials")
    if t < 2:
        raise ValueError("need at least two copies for pairwise tests")


def pairwise_xor_test(
    ensembles: Sequence[CopyEnsemble],
    alpha: float = DEFAULT_ALPHA,
    seed: int | None = None,
) -> TestReport:
    """Fairness of the XOR between every copy pair at every site.

    Independent uniform copies make each pairwise XOR a fair bit; copies
    sharing one flip variable make it constant.  Aggregates one
    chi-square over all pair*site cells.  Under the null the cells are
    pairwise uncorrelated (triples are mildly dependent, inflating the
    variance a little), so the chi-square reference is approximate; the
    1e-3 threshold leaves ample slack for that.
    """
    n_trials = len(ensembles)
    check_pairwise_shape(n_trials, ensembles[0].t if ensembles else 0)
    t, n = ensembles[0].t, ensembles[0].n
    # per-site co-occurrence counts c_pq (c_pp = c_p), summed over trial
    # chunks; float32 products of 0/1 bits stay integer-exact per chunk
    co = np.zeros((n, t, t), dtype=np.int64)
    for bits in _bit_chunks(ensembles):
        x = bits.transpose(2, 1, 0).astype(np.float32)
        co += np.matmul(x, x.transpose(0, 2, 1)).astype(np.int64)
    # XOR count of pair (p, q) at a site: c_p + c_q - 2 c_pq
    p, q = np.triu_indices(t, 1)
    ones = np.diagonal(co, axis1=1, axis2=2)
    counts = np.ascontiguousarray((ones[:, p] + ones[:, q] - 2 * co[:, p, q]).T)
    cells = p.size * n
    chi2 = float((((counts - n_trials / 2.0) ** 2) / (n_trials / 4.0)).sum())
    p_value = float(chdtrc(cells, chi2))
    return TestReport(
        name="pairwise_xor",
        statistic=chi2,
        samples=n_trials,
        passed=p_value > alpha,
        threshold=alpha,
        p_value=p_value,
        seed=seed,
        details={"cells": cells, "dof": cells},
    )


def _uniform_chi2_p(counts: np.ndarray, n_trials: int, seed: int | None) -> tuple[float, float]:
    """Chi-square p-value against the uniform distribution.

    Below 5 expected counts per cell the asymptotic reference is poor, so
    the tail is estimated from 4000 multinomial draws of the stream
    (seed, "uniform-chi2") (resolution ~2.5e-4, adequate around the 1e-3
    decision threshold).
    """
    bins = counts.shape[0]
    expected = n_trials / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    if expected >= _MIN_EXPECTED_FOR_CHI2:
        return chi2, float(chdtrc(bins - 1, chi2))
    rng = stream(0 if seed is None else seed, "uniform-chi2")
    probs = np.full(bins, 1.0 / bins)
    n_draws, chunk = 4000, 250
    exceed = 0
    for lo in range(0, n_draws, chunk):
        draws = rng.multinomial(n_trials, probs, size=min(chunk, n_draws - lo))
        sim = ((draws - expected) ** 2 / expected).sum(axis=1)
        exceed += int((sim >= chi2).sum())
    return chi2, exceed / n_draws


def check_sign_trials(n_trials: int) -> None:
    """Raise unless ``sign_vector_test`` has enough trials to decide."""
    if n_trials < 10_000:
        raise ValueError("sign vector test needs at least 10^4 trials")


def sign_vector_test(
    sign_vectors: Iterable[np.ndarray],
    t: int,
    alpha: float = DEFAULT_ALPHA,
    seed: int | None = None,
) -> TestReport:
    """Chi-square of the 2^t histogram of sign vectors against uniform.

    ``sign_vectors`` holds one +-1 vector per trial; only the first t
    entries of each are used (subsampling large ensembles is how wide
    sign registers stay testable).  Needs t <= 16 and >= 10^4 trials.
    """
    if t > 16:
        raise ValueError("sign vector test capped at t <= 16")
    firsts = [np.asarray(sv)[:t] for sv in sign_vectors]
    if any(len(v) < t for v in firsts):
        raise ValueError(f"sign vector shorter than t={t}")
    n_trials = len(firsts)
    check_sign_trials(n_trials)
    # a negative sign at entry i sets bit i of the vector's bin
    bins = (np.reshape(firsts, (n_trials, t)) < 0) @ (1 << np.arange(t, dtype=np.int64))
    counts = np.bincount(bins, minlength=1 << t)
    chi2, p_value = _uniform_chi2_p(counts, n_trials, seed)
    return TestReport(
        name="sign_vector",
        statistic=chi2,
        samples=n_trials,
        passed=p_value > alpha,
        threshold=alpha,
        p_value=p_value,
        seed=seed,
        details={"bins": 1 << t, "expected_per_bin": n_trials / (1 << t)},
    )


def expected_uniform_tv(bins: int, n_trials: int) -> float:
    """Sampling-noise scale of the TV of an n-trial empirical histogram
    against the uniform distribution on ``bins`` cells."""
    return 0.5 * sqrt(2.0 * bins / (np.pi * n_trials))


def subset_uniformity_test(
    subsets: Sequence[frozenset[int] | tuple[int, ...]],
    n: int,
    t: int,
    threshold: float | None = None,
    seed: int | None = None,
) -> TestReport:
    """TV of the empirical t-subset distribution against uniform.

    The domain is every t-element subset of {0,1}^n and must stay
    enumerable (at most 10^5 subsets).  The default threshold allows
    twice the expected sampling noise plus a small floor; pass explicit
    thresholds when a criterion pins one.
    """
    domain = comb(1 << n, t)
    if domain > SUBSET_DOMAIN_MAX:
        raise ValueError(f"{domain} possible subsets; domain capped at 10^5 (shrink n or t)")
    n_trials = len(subsets)
    if n_trials < 1:
        raise ValueError("need at least one sample")
    tally: dict[tuple[int, ...], int] = {}
    for s in subsets:
        key = tuple(sorted(s))
        if len(key) != t or len(set(key)) != t:
            raise ValueError("each sample must be a t-element subset")
        tally[key] = tally.get(key, 0) + 1
    u = 1.0 / domain
    seen_mass = 0.0
    for count in tally.values():
        seen_mass += abs(count / n_trials - u)
    tv = 0.5 * (seen_mass + (domain - len(tally)) * u)
    if threshold is None:
        threshold = min(0.9, 2.0 * expected_uniform_tv(domain, n_trials) + 0.02)
    return TestReport(
        name="subset_uniformity",
        statistic=tv,
        samples=n_trials,
        passed=tv <= threshold,
        threshold=threshold,
        tv=tv,
        seed=seed,
        details={"domain": domain, "distinct_observed": len(tally)},
    )


def poisson_tails(count: int, mean: float) -> tuple[float, float]:
    """P(X <= count) and P(X >= count) for X ~ Poisson(mean)."""
    # pdtrc(-1, mean) is nan, where P(X >= 0) is 1
    hi = float(pdtrc(count - 1, mean)) if count > 0 else 1.0
    return float(pdtr(count, mean)), hi


def subset_collision_test(
    subsets: Sequence[frozenset[int] | tuple[int, ...]],
    n: int,
    t: int,
    alpha: float = DEFAULT_ALPHA,
    seed: int | None = None,
) -> TestReport:
    """Collision-rate fallback when the subset domain is too large to
    enumerate: under uniformity two independent samples collide with
    probability 1/binom(2^n, t), so the pairwise collision count among N
    samples is approximately Poisson with mean binom(N, 2)/domain."""
    domain = comb(1 << n, t)
    n_trials = len(subsets)
    if n_trials < 2:
        raise ValueError("need at least two samples")
    tally: dict[tuple[int, ...], int] = {}
    for s in subsets:
        key = tuple(sorted(s))
        tally[key] = tally.get(key, 0) + 1
    collisions = sum(c * (c - 1) // 2 for c in tally.values())
    mean = comb(n_trials, 2) / domain
    # two-sided exact Poisson tail
    p_value = min(1.0, 2.0 * min(poisson_tails(collisions, mean)))
    return TestReport(
        name="subset_collision",
        statistic=float(collisions),
        samples=n_trials,
        passed=p_value > alpha,
        threshold=alpha,
        p_value=p_value,
        seed=seed,
        details={"expected_collisions": mean, "domain": domain},
    )
