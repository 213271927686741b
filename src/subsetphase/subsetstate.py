"""Exact subset phase states and small-scale moment comparisons.

A subset phase state on n sites with subset exponent k is the uniform
superposition over 2^k distinct basis strings with signs attached:
amplitude sign(b) * 2^(-k/2) at basis index image(b).  The table of
(image, sign) pairs evolves under MCX/MCZ circuits exactly like a batch
of single signed copies, so circuits permute the support and flip signs
and the representation stays exact.

Everything here is real-valued: the states only ever carry +-1 phases,
so moment matrices are real symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable

import numpy as np

from . import copysim
from .circuit import Circuit

STATEVECTOR_MAX_N = 24
MOMENT_MAX_CELLS = 1 << 24  # one 4096 x 4096 float64 array, 128 MiB
_SYRK_CHUNK = 512


@dataclass
class SubsetState:
    """Table form of a subset phase state.

    ``images[b]`` and ``signs[b]`` give the basis string and sign the
    input string b (an integer below 2^k) is carried to.  Images are
    pairwise distinct; circuits preserve that by bijectivity.
    """

    n: int
    k: int
    images: np.ndarray  # (2^k, W) uint64
    signs: np.ndarray  # (2^k,) int8

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError("k must satisfy 1 <= k <= n")
        expected = 1 << self.k
        if self.images.shape != (expected, copysim.words_needed(self.n)):
            raise ValueError("images must have shape (2^k, words_needed(n))")
        if self.signs.shape != (expected,):
            raise ValueError("signs must have one entry per table row")

    @property
    def size(self) -> int:
        return 1 << self.k

    def image_ints(self) -> list[int]:
        W = self.images.shape[1]
        return [
            sum(int(self.images[i, w]) << (64 * w) for w in range(W)) for i in range(self.size)
        ]

    def is_injective(self) -> bool:
        return bool(copysim.distinct(self.images))

    def clone(self) -> "SubsetState":
        return SubsetState(self.n, self.k, self.images.copy(), self.signs.copy())


def initial_subset_state(n: int, k: int) -> SubsetState:
    """Identity table: b maps to b (low k bits) with sign +1."""
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if k > 22:
        raise ValueError("table of 2^k entries is too large; use k <= 22")
    size = 1 << k
    images = np.zeros((size, copysim.words_needed(n)), dtype=np.uint64)
    images[:, 0] = np.arange(size, dtype=np.uint64)
    return SubsetState(n, k, images, np.ones(size, dtype=np.int8))


def apply_circuit(s: SubsetState, c: Circuit) -> SubsetState:
    """Evolve every table entry exactly as a single signed copy."""
    if c.n != s.n:
        raise ValueError(f"circuit acts on {c.n} sites, state has {s.n}")
    out = s.clone()
    prog = copysim.compile_circuit(c.layers, out.images.shape[1])
    copysim.run_steps(prog, out.images[None], out.signs[None])
    return out


def to_statevector(s: SubsetState) -> np.ndarray:
    """Dense amplitude vector: sign(b) * 2^(-k/2) at index image(b).

    Basis index of an n-bit string places site i in bit i-1.
    """
    if s.n > STATEVECTOR_MAX_N:
        raise ValueError(f"statevector export capped at n <= {STATEVECTOR_MAX_N}")
    if not s.is_injective():
        raise ValueError("table images are not distinct")
    vec = np.zeros(1 << s.n)
    amp = 2.0 ** (-s.k / 2.0)
    idx = s.images[:, 0].astype(np.int64)
    vec[idx] = amp * s.signs
    return vec


def sample_oracle_state(n: int, k: int, rng: np.random.Generator) -> SubsetState:
    """Directly sampled reference state: a uniform 2^k-subset of {0,1}^n
    with i.i.d. uniform signs.  This is the ensemble the circuit
    generators are trying to approximate, sampled without any circuit."""
    if k > 22:
        raise ValueError("table of 2^k entries is too large; use k <= 22")
    size = 1 << k
    ensemble = copysim.sample_initial_copies(n, n, size, rng)
    signs = (1 - 2 * rng.integers(0, 2, size=size)).astype(np.int8)
    return SubsetState(n, k, ensemble.copies, signs)


@dataclass(frozen=True)
class MomentMatrix:
    """A t-th moment restricted to the symmetric subspace Sym^t, in
    orthonormal multiset coordinates (``dim`` = d_sym = binom(2^n + t - 1, t)).

    ``form`` says what ``matrix`` holds:

    * ``"moment"``: the d_sym x d_sym moment itself (real symmetric,
      trace 1, PSD up to accumulation roundoff);
    * ``"gram"``: the N x N Gram (Psi Psi^T)^(o t) / N of N <= d_sym
      samples, which has the moment's nonzero spectrum;
    * ``"uniform"``: no matrix; the maximally random moment I / d_sym.
    """

    t: int
    matrix: np.ndarray | None
    form: str = "moment"
    dim: int = 0

    def __post_init__(self):
        if self.form not in ("moment", "gram", "uniform"):
            raise ValueError(f"unknown moment form {self.form!r}")
        m = self.matrix
        if self.form == "uniform":
            if m is not None or self.dim < 1:
                raise ValueError("a uniform moment has a positive dim and no matrix")
            return
        if m is None or m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("moment matrix must be square")
        if self.form == "moment":
            if self.dim == 0:
                object.__setattr__(self, "dim", m.shape[0])
            if self.dim != m.shape[0]:
                raise ValueError("a moment-form matrix is dim x dim")
        elif not 1 <= m.shape[0] <= self.dim:
            raise ValueError("a Gram-form matrix needs 1 <= N <= dim")


def sym_dim(n: int, t: int) -> int:
    """Dimension binom(2^n + t - 1, t) of the symmetric subspace Sym^t."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    return math.comb((1 << n) + t - 1, t)


def check_moment_size(n: int, t: int, samples: int) -> None:
    """Refuse shapes whose moment engine would hold an array of more than
    MOMENT_MAX_CELLS float64 cells: the min(N, d_sym)-sided matrix it
    eigensolves, or the N statevectors it keeps while N <= d_sym."""
    d_sym = sym_dim(n, t)
    side = min(samples, d_sym)
    cells = max(side * side, side << n)
    if cells > MOMENT_MAX_CELLS:
        raise ValueError(
            f"{samples} samples at n={n}, t={t} (d_sym = {d_sym}) need a "
            f"{cells}-cell moment array, over the cap of {MOMENT_MAX_CELLS}; "
            f"use fewer samples, or a smaller n or t"
        )


def _multiset_coordinates(d: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted index t-tuples of Sym^t's basis and their weights
    sqrt(t! / prod(multiplicity!)): psi^(x t) has coordinate
    weight * prod_j psi[idx[:, j]] on that basis."""
    idx = np.array(list(combinations_with_replacement(range(d), t)), dtype=np.int64)
    repeats = np.ones(len(idx))
    run = np.ones(len(idx))
    for j in range(1, t):
        run = np.where(idx[:, j] == idx[:, j - 1], run + 1, 1.0)
        repeats *= run
    return idx, np.sqrt(math.factorial(t) / repeats)


def empirical_moment(samples: Iterable[SubsetState], t: int) -> MomentMatrix:
    """Average of the t-fold self outer products of the sample states, on
    Sym^t.

    The N statevectors are held until N exceeds d_sym.  If it never does,
    the result is the N x N Gram (Psi Psi^T)^(o t) / N.  Otherwise their
    multiset coordinates are accumulated into the upper triangle of the
    d_sym x d_sym moment with ``dsyrk``, in blocks of ``_SYRK_CHUNK``
    samples, which keeps it PSD by construction up to float64 roundoff.  ``samples`` may
    be any iterable (it is consumed once); MOMENT_MAX_CELLS bounds what
    it holds as it goes.
    """
    if t < 1:
        raise ValueError("t must be positive")
    acc: np.ndarray | None = None
    n = -1
    d_sym = 0
    count = 0
    held: list[np.ndarray] = []
    idx = weights = None

    def flush(block: list[np.ndarray]):
        # rank-k update on the upper triangle only (phi.T is a free
        # F-contiguous view of the C-contiguous block); scipy.linalg loads
        # here, so only runs past d_sym pay for importing it
        from scipy.linalg.blas import dsyrk

        nonlocal acc
        psi = np.stack(block)
        phi = weights * psi[:, idx[:, 0]]
        for j in range(1, t):
            phi *= psi[:, idx[:, j]]
        acc = dsyrk(1.0, phi.T, beta=1.0, c=acc, trans=0, lower=0, overwrite_c=1)

    for s in samples:
        if count == 0:
            n = s.n
            d_sym = sym_dim(n, t)
        elif s.n != n:
            raise ValueError("all samples must share the same n")
        count += 1
        check_moment_size(n, t, count)
        held.append(to_statevector(s))
        if count > d_sym:
            if acc is None:
                idx, weights = _multiset_coordinates(1 << n, t)
                acc = np.zeros((d_sym, d_sym), order="F")
            while len(held) >= _SYRK_CHUNK:
                flush(held[:_SYRK_CHUNK])
                del held[:_SYRK_CHUNK]
    if count == 0:
        raise ValueError("need at least one sample")
    if acc is None:
        psi = np.stack(held)
        held.clear()
        gram = psi @ psi.T
        if t > 1:
            gram **= t
        return MomentMatrix(t, gram / count, "gram", d_sym)
    if held:
        flush(held)
    full = np.triu(acc) + np.triu(acc, 1).T
    return MomentMatrix(t, full / count)


def haar_moment(n: int, t: int) -> MomentMatrix:
    """t-th moment of the maximally random state ensemble.

    It is Pi_sym / d_sym, which in multiset coordinates is I / d_sym, so
    nothing is allocated."""
    return MomentMatrix(t, None, "uniform", sym_dim(n, t))


def trace_distance(a: MomentMatrix, b: MomentMatrix) -> float:
    """Half the sum of absolute eigenvalues of a - b.

    Against the uniform moment I / d_sym the spectrum of a - b is that of
    the matrix a holds, shifted by -1 / d_sym, plus d_sym - r copies of
    -1 / d_sym for a matrix of side r.  Two held matrices must both be
    moment-form.
    """
    if a.t != b.t or a.dim != b.dim:
        raise ValueError(f"moment mismatch: t={a.t}, dim {a.dim} vs t={b.t}, dim {b.dim}")
    if a.form == "uniform":
        a, b = b, a
    if a.form == "uniform":
        return 0.0
    if b.form == "uniform":
        inv = 1.0 / a.dim
        shifted = a.matrix.copy()
        shifted[np.diag_indices_from(shifted)] -= inv
        eig = np.linalg.eigvalsh(shifted)
        return float(0.5 * (np.abs(eig).sum() + (a.dim - len(eig)) * inv))
    if a.form == "gram" or b.form == "gram":
        raise ValueError("a Gram-form moment can only be compared with the uniform moment")
    eig = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(eig).sum())

