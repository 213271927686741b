"""Exact classical evolution of t distinct signed bitstrings.

Copies are bit-packed into uint64 words (site i lives in bit i-1 of word
(i-1)//64).  Every simulation runs through one kernel, ``run_steps``.  A
circuit compiles into rows ``(mask, pattern, flips, diagonal)`` in
circuit order: a copy satisfies a row when it equals the pattern on the
mask, and then XORs in the row's flips and, for a diagonal (signed MCZ)
row, negates its sign.  A probe is a row that changes nothing and whose
satisfaction is recorded.

Rows group into steps: a new step starts at a row whose mask meets a
site that an earlier row of the current step flips.  No row of a step
reads a site the step writes, so all its rows are evaluated against the
state at the step's start; XOR commutes and sign products commute, so
their flips and sign flips apply in any order.  Splitting a step further
is exact too, which lets the kernel evaluate bounded chunks of rows and
lets a batch of trials, each with its own rows, split on their union.
The rule is the same at every word count.  The tests check the kernel
against a per-gate reference, ``apply_gate`` in ``tests/conftest.py``.

Whether copies are pairwise distinct is decided in one place,
``distinct``, for a trial's copies, a block of trials or a subset table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import MCX, SIGNED_MCZ, Circuit, ControlTerm, Gate
from .f2linalg import BitMatrix
from .rng import TrialStreams


def words_needed(n: int) -> int:
    return (n + 63) // 64


def _word_masks(n: int) -> np.ndarray:
    """Per-word mask of the valid (low n) bits."""
    W = words_needed(n)
    masks = []
    for w in range(W):
        lo = 64 * w
        bits = min(64, max(0, n - lo))
        masks.append((1 << bits) - 1 if bits else 0)
    return np.array(masks, dtype=np.uint64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack (..., n) 0/1 values into (..., words_needed(n)) uint64 words,
    column j going to site j+1."""
    n = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (64 * words_needed(n),), dtype=np.uint8)
    padded[..., :n] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8").astype(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``pack_bits``: (..., W) uint64 to (..., n) uint8."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, bitorder="little")[..., :n]


def distinct(copies: np.ndarray) -> np.ndarray:
    """Whether the copies of each (t, W) set of (..., t, W) copies are
    pairwise distinct, as a (...) bool array.

    One sort along the copy axis puts equal copies side by side; past one
    word, a copy sorts and compares as one raw-bytes value.
    """
    copies = np.ascontiguousarray(copies, dtype=np.uint64)
    W = copies.shape[-1]
    keys = copies[..., 0] if W == 1 else copies.view(np.dtype((np.void, 8 * W)))[..., 0]
    ordered = np.sort(keys, axis=-1)
    return ~(ordered[..., 1:] == ordered[..., :-1]).any(axis=-1)


def _full_condition(g: Gate) -> list[ControlTerm]:
    """All sites a gate's action is conditioned on (mcz includes target)."""
    terms = list(g.controls)
    if g.kind == SIGNED_MCZ:
        terms.append(ControlTerm(g.target, g.target_value))
    return terms


class CopyEnsemble:
    """t pairwise-distinct n-bit strings, each carrying a sign in {+1,-1}.

    Value-like: public operations return new ensembles and trials can
    share instances read-only.  ``copies`` has shape (t, W) with W
    uint64 words per copy.
    """

    __slots__ = ("n", "copies", "signs")

    def __init__(self, n: int, copies: np.ndarray, signs: np.ndarray, *, check: bool = True):
        copies = np.ascontiguousarray(copies, dtype=np.uint64)
        signs = np.asarray(signs, dtype=np.int8)
        if copies.ndim != 2 or copies.shape[1] != words_needed(n):
            raise ValueError("copies must have shape (t, words_needed(n))")
        if signs.shape != (copies.shape[0],):
            raise ValueError("signs must have one entry per copy")
        if check:
            if not np.all((signs == 1) | (signs == -1)):
                raise ValueError("signs must be +1 or -1")
            if np.any(copies & ~_word_masks(n)):
                raise ValueError("copies have bits outside [1, n]")
            if not distinct(copies):
                raise ValueError("copies must be pairwise distinct")
        self.n = n
        self.copies = copies
        self.signs = signs

    @property
    def t(self) -> int:
        return self.copies.shape[0]

    @classmethod
    def from_ints(cls, n: int, values: Sequence[int], signs: Sequence[int] | None = None) -> "CopyEnsemble":
        W = words_needed(n)
        copies = np.zeros((len(values), W), dtype=np.uint64)
        for i, v in enumerate(values):
            for w in range(W):
                copies[i, w] = (int(v) >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
        if signs is None:
            signs = np.ones(len(values), dtype=np.int8)
        return cls(n, copies, np.asarray(signs, dtype=np.int8))

    def to_ints(self) -> list[int]:
        return [
            sum(int(self.copies[i, w]) << (64 * w) for w in range(self.copies.shape[1]))
            for i in range(self.t)
        ]

    def is_distinct(self) -> bool:
        return bool(distinct(self.copies))

    def bits(self) -> np.ndarray:
        """Unpacked view: (t, n) uint8 with column j holding site j+1."""
        return unpack_bits(self.copies, self.n)

    def clone(self) -> "CopyEnsemble":
        return CopyEnsemble(self.n, self.copies.copy(), self.signs.copy(), check=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CopyEnsemble)
            and self.n == other.n
            and np.array_equal(self.copies, other.copies)
            and np.array_equal(self.signs, other.signs)
        )

    def __repr__(self) -> str:
        return f"CopyEnsemble(n={self.n}, t={self.t})"


def _strings(words: np.ndarray, k: int, n: int) -> np.ndarray:
    """(B, c, words_needed(n)) elements of {0,1}^k x 0^(n-k) from (B, c ·
    words_needed(k)) raw words, each string the next words_needed(k) of
    its row: the words ``rng.bytes`` would read."""
    w = words_needed(k)
    out = np.zeros((len(words), words.shape[1] // w, words_needed(n)), dtype=np.uint64)
    out[..., :w] = words.reshape(len(words), -1, w) & _word_masks(k)[:w]
    return out


class _OneStream:
    """One ``Generator`` read as a block of one stream, as
    ``rng.TrialStreams`` is read: the Generator reads on past its words."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def __len__(self) -> int:
        return 1

    def words(self, count: int) -> np.ndarray:
        return self.rng.bit_generator.random_raw(count)[None]

    def __getitem__(self, b: int) -> np.random.Generator:
        return self.rng


def sample_initial_copies(n: int, k: int, t: int, rng: np.random.Generator) -> CopyEnsemble:
    """t distinct uniform elements of {0,1}^k x 0^(n-k), all signs +1:
    ``sample_initial_block`` for one stream."""
    copies = sample_initial_block(n, k, t, _OneStream(rng))[0]
    return CopyEnsemble(n, copies, np.ones(t, dtype=np.int8), check=False)


def _dense_domain(k: int, t: int) -> bool:
    """Whether t copies from a 2^k domain are drawn by permutation."""
    return k < 63 and (k <= 12 or t * 2 >= 1 << k)


def check_initial_shape(n: int, k: int, t: int) -> None:
    """Refuse the shapes ``sample_initial_block`` cannot draw."""
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if t < 1:
        raise ValueError("t must be positive")
    if k < 63 and t > (1 << k):
        raise ValueError(f"cannot draw {t} distinct strings from a 2^{k} domain")
    if _dense_domain(k, t) and k > 22:
        raise ValueError("dense sampling of a domain this large is not supported")


def _pool_size(t: int) -> int:
    return max(2 * t, 64)


def sample_initial_block(n: int, k: int, t: int, streams: TrialStreams | _OneStream) -> np.ndarray:
    """(B, t, W) copies: for each trial stream of ``streams``, t distinct
    uniform elements of {0,1}^k x 0^(n-k).

    Small domains (2^k up to ~4M, or t a large fraction of the domain)
    are sampled by slicing a random permutation of each trial's
    ``Generator``, which stays exact even at t = 2^k.  In a large sparse
    domain each trial draws a pool of max(2t, 64) strings and keeps its
    first t distinct ones, in draw order; the pools are one block read
    (``streams.words``).  One sort over the block (``distinct``) checks
    that each trial's first t draws are distinct; only a trial where they
    collide dedupes its pool, topping it up from its own ``Generator``,
    which reads on from where the pool ended (``_first_distinct``).
    """
    check_initial_shape(n, k, t)
    W = words_needed(n)
    if _dense_domain(k, t):
        domain = 1 << k
        copies = np.zeros((len(streams), t, W), dtype=np.uint64)
        for b in range(len(streams)):
            copies[b, :, 0] = streams[b].permutation(domain)[:t]
        return copies
    pools = _strings(streams.words(_pool_size(t) * words_needed(k)), k, n)
    copies = pools[:, :t].copy()
    # only the low words_needed(k) words vary
    for b in np.flatnonzero(~distinct(copies[..., : words_needed(k)])):
        copies[b] = _first_distinct(pools[b], streams[b], n, k, t)
    return copies


def _first_distinct(pool: np.ndarray, rng: np.random.Generator, n: int, k: int, t: int) -> np.ndarray:
    """The first t distinct rows of ``pool``, in draw order, topping it up
    from ``rng`` while it holds fewer."""
    row_bytes = np.dtype((np.void, 8 * pool.shape[1]))
    while True:
        _, first = np.unique(pool.view(row_bytes).ravel(), return_index=True)
        copies = pool[np.sort(first)[:t]]
        if len(copies) == t:
            return copies
        # rows kept so far are distinct and come first, so the first
        # occurrences keep them and append new rows in draw order
        top_up = rng.bit_generator.random_raw(_pool_size(t) * words_needed(k))
        pool = np.concatenate([copies, _strings(top_up[None], k, n)[0]])


# Largest temporary of the step kernel, in (trial, copy, row, word)
# cells: every step is evaluated in chunks of rows that stay below it.
_CHUNK_CELLS = 1 << 16


@functools.cache
def site_words(W: int) -> np.ndarray:
    """(64·W + 1, W) uint64: row i holds site i packed like a copy, and
    row 0, the padding site, holds nothing.  Indexing it with an array
    of sites packs each one."""
    table = np.zeros((64 * W + 1, W), dtype=np.uint64)
    offsets = np.arange(64 * W)
    table[offsets + 1, offsets >> 6] = np.uint64(1) << (offsets & 63).astype(np.uint64)
    table.flags.writeable = False
    return table


def pack_conditions(sites, values, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack conditions into (mask, pattern) words laid out like copies.

    ``sites`` (..., k) holds each condition's 1-based sites and
    ``values`` (..., k) the 0/1 value each must hold; the results are
    (..., W).  Site 0 sets no bit, so conditions of unequal size pad
    with it.
    """
    sites, values = np.asarray(sites), np.asarray(values)
    masks = np.zeros(sites.shape[:-1] + (W,), dtype=np.uint64)
    patterns = np.zeros_like(masks)
    for w, table in enumerate(site_words(W).T):
        words = table.take(sites)
        # one OR per member: a reduction along a short axis is far slower
        for j in range(sites.shape[-1]):
            masks[..., w] |= words[..., j]
            words[..., j] *= values[..., j]
            patterns[..., w] |= words[..., j]
    return masks, patterns


@dataclass(frozen=True)
class StepProgram:
    """Rows in circuit order, grouped into steps, ready for ``run_steps``.

    ``masks``, ``patterns`` and ``flips`` are (R, W) uint64 rows shared by
    every trial, or (B, R, W) with one row set per trial.  ``diagonal``,
    (R,) or (B, R), marks the rows whose satisfaction negates the sign.
    ``record`` lists the rows whose satisfaction ``run_steps`` returns,
    in column order, and ``starts`` the first row of every step.
    """

    masks: np.ndarray
    patterns: np.ndarray
    flips: np.ndarray
    diagonal: np.ndarray
    record: np.ndarray
    starts: tuple[int, ...]


def step_program(masks, patterns, flips, diagonal=None, record=()) -> StepProgram:
    """Group rows into steps.  Per-trial rows split where any trial's
    rows would, which is exact for every trial."""
    masks, patterns, flips = (np.asarray(a, dtype=np.uint64) for a in (masks, patterns, flips))
    rows = masks.shape[-2]
    reads, writes = (a if a.ndim == 2 else np.bitwise_or.reduce(a, axis=0) for a in (masks, flips))
    starts = []
    s = 0
    while s < rows:
        starts.append(s)
        # written[i]: every site flipped by rows s .. s+i
        written = np.bitwise_or.accumulate(writes[s:-1], axis=0)
        clash = np.any(reads[s + 1:] & written, axis=1)
        s = s + 1 + int(np.argmax(clash)) if clash.any() else rows
    if diagonal is None:
        diagonal = np.zeros(rows, dtype=bool)
    return StepProgram(
        masks, patterns, flips, np.asarray(diagonal, dtype=bool),
        np.asarray(record, dtype=np.intp), tuple(starts),
    )


def compile_circuit(
    layers: Sequence, W: int, probes: Sequence[tuple[int, Sequence[ControlTerm]]] = ()
) -> StepProgram:
    """Rows of ``layers`` for ``run_steps``, with one recorded row per probe.

    ``probes`` are (layer_index, condition) pairs; each condition is
    evaluated against the state just before that layer applies (an index
    equal to len(layers) probes the final state).  Columns come back in
    probe order.
    """
    at_layer: dict[int, list[int]] = {}
    for slot, (li, _) in enumerate(probes):
        if not 0 <= li <= len(layers):
            raise ValueError("probe layer index out of range")
        at_layer.setdefault(li, []).append(slot)
    conditions: list[Sequence[ControlTerm]] = []
    flip_sites: list[int] = []  # 0: the row flips nothing
    diagonal: list[bool] = []
    record = [0] * len(probes)
    for li in range(len(layers) + 1):
        for slot in at_layer.get(li, ()):
            record[slot] = len(conditions)
            conditions.append(probes[slot][1])
            flip_sites.append(0)
            diagonal.append(False)
        if li == len(layers):
            break
        for g in layers[li].gates:
            mcx = g.kind == MCX
            conditions.append(g.controls if mcx else _full_condition(g))
            flip_sites.append(g.target if mcx else 0)
            diagonal.append(not mcx)
    width = max(map(len, conditions), default=0)
    sites = np.array(
        [[c.position for c in terms] + [0] * (width - len(terms)) for terms in conditions],
        dtype=np.int64,
    ).reshape(len(conditions), width)
    values = np.array(
        [[c.required_value for c in terms] + [0] * (width - len(terms)) for terms in conditions],
        dtype=np.uint8,
    ).reshape(len(conditions), width)
    masks, patterns = pack_conditions(sites, values, W)
    return step_program(masks, patterns, site_words(W)[np.array(flip_sites, dtype=np.int64)], diagonal, record)


def run_steps(prog: StepProgram, copies: np.ndarray, signs: np.ndarray | None = None) -> np.ndarray:
    """Apply ``prog`` to (B, t, W) copies and (B, t) signs, in place.

    ``signs`` may be omitted when no row is diagonal.  Returns the
    (B, t, len(prog.record)) satisfaction of the recorded rows.
    """
    B, t, W = copies.shape
    rows = prog.masks.shape[-2]
    # rows first, (rows, B or 1, 1[, W]): per-row results then reduce over
    # the outer axis, which numpy does at full speed
    masks, patterns, flips, diagonal = (
        (a[:, None] if a.ndim == nd else np.swapaxes(a, 0, 1))[:, :, None]
        for a, nd in ((prog.masks, 2), (prog.patterns, 2), (prog.flips, 2), (prog.diagonal, 1))
    )
    writes = np.any(flips, axis=(1, 2, 3))
    recorded = np.empty((B, t, len(prog.record)), dtype=bool)
    chunk = max(1, _CHUNK_CELLS // (B * t * W))
    zero = np.uint64(0)
    for start, end in zip(prog.starts, prog.starts[1:] + (rows,)):
        for lo in range(start, end, chunk):
            hi = min(lo + chunk, end)
            sat = np.all((copies & masks[lo:hi]) == patterns[lo:hi], axis=3)
            if prog.record.size:
                here = (prog.record >= lo) & (prog.record < hi)
                recorded[:, :, here] = sat[prog.record[here] - lo].transpose(1, 2, 0)
            diag = diagonal[lo:hi]
            if diag.any():
                np.negative(signs, out=signs, where=np.bitwise_xor.reduce(sat & diag, axis=0))
            if writes[lo:hi].any():
                copies ^= np.bitwise_xor.reduce(np.where(sat[..., None], flips[lo:hi], zero), axis=0)
    return recorded


def apply_circuit(e: CopyEnsemble, c: Circuit) -> CopyEnsemble:
    """Apply all layers left to right; gate order within a layer is
    irrelevant because layer supports are disjoint."""
    return apply_circuit_recording(e, c, ())[0]


def apply_circuit_recording(
    e: CopyEnsemble,
    c: Circuit,
    probes: Sequence[tuple[int, Sequence[ControlTerm]]],
) -> tuple[CopyEnsemble, BitMatrix]:
    """Apply the circuit while recording a condition matrix.

    Column q of the result holds, for every copy, whether it satisfied
    probe q's condition at the moment just before the probe's layer
    applied.  This is the matrix whose full rank certifies that the
    copies received linearly independent flip variables.
    """
    if c.n != e.n:
        raise ValueError(f"circuit acts on {c.n} sites, ensemble has {e.n}")
    out = e.clone()
    prog = compile_circuit(c.layers, out.copies.shape[1], probes)
    recorded = run_steps(prog, out.copies[None], out.signs[None])
    return out, BitMatrix.from_dense(recorded[0])


def round_probes(c: Circuit, stage: int = 1) -> list[tuple[int, list[ControlTerm]]]:
    """Probes for a generator's recorded rounds (from circuit metadata).

    Each round contributes one probe at its first layer with the round's
    shared condition, so ``apply_circuit_recording`` reproduces the
    copies-by-rounds condition matrix for the requested stage.
    """
    rounds = c.extra.get("rounds")
    if rounds is None:
        raise ValueError("circuit metadata carries no recorded rounds")
    if not isinstance(rounds, list):
        raise ValueError("circuit metadata rounds must be a list")
    probes = []
    for i, r in enumerate(rounds):
        try:
            if r["stage"] == stage:
                terms = [ControlTerm(int(pos), int(val)) for pos, val in r["controls"]]
                for term in terms:
                    if term.position > c.n:
                        raise ValueError(f"control site {term.position} outside [1, {c.n}]")
                probes.append((int(r["layer"]), terms))
        except KeyError as e:
            raise ValueError(f"metadata round {i}: missing key {e.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"metadata round {i}: {e}") from None
    return probes
