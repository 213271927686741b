"""Bit-packed linear algebra over GF(2) and full-rank probability bounds.

Every GF(2) rank is one elimination, ``ranks``, vectorised over a batch
of matrices whose rows are packed into uint64 words (column j in bit
j % 64 of word j // 64, as ``copysim.pack_bits`` packs), so a block of
trials is ranked in one call.  ``BitMatrix`` holds one matrix as
Python-integer rows, for the single-matrix ``rank``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

_WILSON_Z = 1.959963984540054  # two-sided 95%


class BitMatrix:
    """Dense matrix over GF(2) with bit-packed rows.

    ``row_ints[i]`` holds row i with column j in bit j.  Instances are
    treated as values: operations that need to modify rows work on copies.
    """

    __slots__ = ("rows", "cols", "row_ints")

    def __init__(self, rows: int, cols: int, row_ints: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("rows and cols must be non-negative")
        if len(row_ints) != rows:
            raise ValueError(f"expected {rows} packed rows, got {len(row_ints)}")
        mask = (1 << cols) - 1
        for i, r in enumerate(row_ints):
            if r < 0 or r & ~mask:
                raise ValueError(f"row {i} has bits outside the {cols}-column range")
        self.rows = rows
        self.cols = cols
        self.row_ints = list(row_ints)

    @classmethod
    def from_dense(cls, array) -> "BitMatrix":
        a = np.asarray(array, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        packed = np.packbits(a, axis=1, bitorder="little")
        rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
        return cls(a.shape[0], a.shape[1], rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_ints == other.row_ints
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def ranks(rows: np.ndarray) -> np.ndarray:
    """GF(2) ranks of a batch of (..., r, W) uint64 packed rows, as a
    (...) int64 array; ``rows`` is not modified.

    Row i, once every earlier pivot row is XORed out of it, pivots on its
    lowest set bit, or is zero; it is then XORed into every later row
    that has that bit set.  The rank counts the nonzero pivot rows.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    *lead, r, W = rows.shape
    out = np.zeros(lead, dtype=np.int64)
    if r == 0 or W == 0 or out.size == 0:
        return out
    a = rows.reshape(-1, r, W).copy()
    batch = np.arange(len(a))
    flat = out.reshape(-1)
    for i in range(r):
        row = a[:, i]
        word = (row != 0).argmax(axis=1)
        bit = row[batch, word]
        bit &= ~bit + np.uint64(1)
        flat += bit != 0
        later = a[:, i + 1 :]
        hit = (later[batch, :, word] & bit[:, None]) != 0
        later ^= np.where(hit[..., None], row[:, None], np.uint64(0))
    return out


def rank(m: BitMatrix) -> int:
    """GF(2) row rank of one matrix, through ``ranks``."""
    W = -(-m.cols // 64)
    packed = b"".join(v.to_bytes(8 * W, "little") for v in m.row_ints)
    return int(ranks(np.frombuffer(packed, dtype="<u8").reshape(m.rows, W)))


def is_full_row_rank(m: BitMatrix) -> bool:
    """True iff rank equals the row count.

    More rows than columns cannot be full row rank; that case returns
    False rather than raising, so sweeps over odd shapes stay total.
    """
    return rank(m) == m.rows


@dataclass(frozen=True)
class RankBoundParams:
    """Parameters of the full-rank probability bound for an l x m
    Bernoulli(p) matrix over GF(2).

    Derived quantities: q = 1-p, p_hi = (1+epsilon)*p (the inflated row
    weight from the concentration step), q_hi = 1-p_hi, and the geometric
    ratio s = (p*q)**q_hi.
    """

    p: float
    l: int
    m: float
    epsilon: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise ValueError("p must lie in (0, 1/2]")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.l < 0:
            raise ValueError("l must be non-negative")
        if self.m < self.l:
            raise ValueError("m must be at least l")
        if (1.0 + self.epsilon) * self.p >= 1.0:
            raise ValueError("epsilon too large: (1+epsilon)*p must stay below 1")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def p_hi(self) -> float:
        return (1.0 + self.epsilon) * self.p

    @property
    def q_hi(self) -> float:
        return 1.0 - self.p_hi

    @property
    def s(self) -> float:
        return (self.p * self.q) ** self.q_hi


def full_rank_probability_bound(params: RankBoundParams) -> float:
    """Closed-form lower bound on the full-row-rank probability.

    Evaluates exp(-q^(m+1)(q^(-l)-1)/p - s*p^(q_hi*m+1)*q^(p_hi*m-1)/(1-s)^2).
    The closed form replaces a finite product by an exponential, so it is
    a lower bound only in the regime it was derived for (p <= 1/4, m >> l);
    outside that regime it is still evaluated as written.  l = 0 returns 1
    exactly (vacuous full rank).
    """
    p, l, m = params.p, params.l, params.m
    if l == 0:
        return 1.0
    q, s = params.q, params.s
    # q**(m+1-l) keeps the first term overflow-free: m >= l makes the
    # exponent positive, so the value stays in (0, q].
    term1 = (q ** (m + 1 - l) - q ** (m + 1)) / p
    term2 = s * p ** (params.q_hi * m + 1.0) * q ** (params.p_hi * m - 1.0) / (1.0 - s) ** 2
    return math.exp(-(term1 + term2))


class SequentialBound(NamedTuple):
    value: float
    valid: bool


def full_rank_probability_sequential(params: RankBoundParams) -> SequentialBound:
    """Pre-closure product form of the full-rank bound.

    Multiplies the per-row survival factors
    1 - q^(m-r) - r * p^(q_hi*(m-r)+1) * q^(p_hi*m+q_hi*r-1) for r = 0..l-1,
    clamping each factor to [0, 1].  A factor below zero means the
    parameters are outside the bound's validity regime; the result is then
    reported as 0 with ``valid=False`` so parameter sweeps stay total.
    """
    p, l, m = params.p, params.l, params.m
    if l == 0:
        return SequentialBound(1.0, True)
    q, p_hi, q_hi = params.q, params.p_hi, params.q_hi
    prod = 1.0
    for r in range(l):
        f = 1.0 - q ** (m - r) - r * p ** (q_hi * (m - r) + 1.0) * q ** (p_hi * m + q_hi * r - 1.0)
        if f < 0.0:
            return SequentialBound(0.0, False)
        prod *= min(f, 1.0)
    return SequentialBound(min(max(prod, 0.0), 1.0), True)


class WilsonInterval(NamedTuple):
    lo: float
    hi: float


class MonteCarloEstimate(NamedTuple):
    estimate: float
    ci95: WilsonInterval
    successes: int
    trials: int


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> WilsonInterval:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return WilsonInterval(max(0.0, center - half), min(1.0, center + half))
