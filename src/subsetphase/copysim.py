"""Exact classical evolution of t distinct signed bitstrings.

Copies are bit-packed into uint64 words (site i lives in bit i-1 of word
(i-1)//64), so a gate application is a masked compare plus a masked flip
over all t copies at once.  The circuit walker additionally fuses
consecutive MCX gates that share one condition (the hot pattern emitted
by the serial bit thermalizer: its round's gates differ only in target)
and batch-evaluates all sign gates of a layer, which is what makes
10^4-10^6 trial sweeps run at desk timescales.

Systems wider than 64 sites take a simple unfused per-gate path.

``run_rounds`` skips gate objects altogether: it applies packed
shared-condition rounds (``generators.gate_opt_program``) to a batch of
trials at once, one compare and one XOR per round.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .circuit import MCX, SIGNED_MCZ, Circuit, ControlTerm, Gate
from .f2linalg import BitMatrix


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
    """Pack (rows, n) 0/1 values into (rows, words_needed(n)) uint64 words,
    column j going to site j+1."""
    rows, n = bits.shape
    padded = np.zeros((rows, 64 * words_needed(n)), dtype=np.uint8)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``pack_bits``: (rows, W) uint64 to (rows, n) uint8."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n]


def _pack_terms_int(terms: Iterable[ControlTerm]) -> tuple[int, int]:
    """(mask, pattern) of a condition as plain ints (single-word systems)."""
    mask = 0
    pat = 0
    for c in terms:
        b = 1 << (c.position - 1)
        mask |= b
        if c.required_value:
            pat |= b
    return mask, pat


def _pack_terms_words(terms: Iterable[ControlTerm], W: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    mask = [0] * W
    pat = [0] * W
    for c in terms:
        w, b = divmod(c.position - 1, 64)
        mask[w] |= 1 << b
        if c.required_value:
            pat[w] |= 1 << b
    return tuple(mask), tuple(pat)


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
            if len({row.tobytes() for row in copies}) != copies.shape[0]:
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
        return len({row.tobytes() for row in self.copies}) == self.t

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


def random_bitstrings(rng: np.random.Generator, count: int, nbits: int, n: int) -> np.ndarray:
    """(count, words_needed(n)) uint64 with the low ``nbits`` bits uniform."""
    W = words_needed(n)
    out = np.zeros((count, W), dtype=np.uint64)
    w_rand = words_needed(nbits) if nbits else 0
    if w_rand:
        raw = np.frombuffer(rng.bytes(count * w_rand * 8), dtype=np.uint64).reshape(count, w_rand)
        out[:, :w_rand] = raw & _word_masks(nbits)[:w_rand]
    return out


def sample_initial_copies(n: int, k: int, t: int, rng: np.random.Generator) -> CopyEnsemble:
    """t distinct uniform elements of {0,1}^k x 0^(n-k), all signs +1.

    Small domains (2^k up to ~4M, or t a large fraction of the domain)
    are sampled by slicing a random permutation, which stays exact even
    at t = 2^k; large sparse domains use batched draws deduplicated in
    draw order.
    """
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if t < 1:
        raise ValueError("t must be positive")
    if k < 63 and t > (1 << k):
        raise ValueError(f"cannot draw {t} distinct strings from a 2^{k} domain")
    W = words_needed(n)
    domain = 1 << k if k < 63 else None
    if domain is not None and (domain <= 4096 or t * 2 >= domain):
        if domain > (1 << 22):
            raise ValueError("dense sampling of a domain this large is not supported")
        chosen = rng.permutation(domain)[:t]
        copies = np.zeros((t, W), dtype=np.uint64)
        copies[:, 0] = chosen.astype(np.uint64)
        return CopyEnsemble(n, copies, np.ones(t, dtype=np.int8), check=False)
    picked: dict[bytes, np.ndarray] = {}
    while len(picked) < t:
        batch = random_bitstrings(rng, max(2 * t, 64), k, n)
        for row in batch:
            key = row.tobytes()
            if key not in picked:
                picked[key] = row
                if len(picked) == t:
                    break
    copies = np.stack(list(picked.values()))
    return CopyEnsemble(n, copies, np.ones(t, dtype=np.int8), check=False)


def apply_gate(e: CopyEnsemble, g: Gate) -> CopyEnsemble:
    """Apply one gate to every copy (reference semantics, unfused).

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


def evolve_arrays(
    copies: np.ndarray,
    signs: np.ndarray,
    layers: Sequence,
    probes: Sequence[tuple[int, Sequence[ControlTerm]]] = (),
) -> list[np.ndarray]:
    """Run layers over (copies, signs) in place; shared kernel.

    ``probes`` are (layer_index, condition) pairs; each condition is
    evaluated against the state just before that layer applies (an index
    equal to len(layers) probes the final state).  Returns the per-probe
    satisfaction vectors in probe order.
    """
    # (layer, original slot, condition) ascending by layer, walked with a
    # single pointer so layers without probes only pay an int compare
    probe_list = sorted(
        (li, slot, terms) for slot, (li, terms) in enumerate(probes)
    )
    for li, _, _ in probe_list:
        if not 0 <= li <= len(layers):
            raise ValueError("probe layer index out of range")
    results: list[np.ndarray | None] = [None] * len(probes)
    if copies.shape[1] == 1:
        _run_layers_w1(copies, signs, layers, probe_list, results)
    else:
        _run_layers_wide(copies, signs, layers, probe_list, results)
    return results  # type: ignore[return-value]


def _run_layers_w1(copies, signs, layers, probe_list, results) -> None:
    """Single-word hot path with shared-condition fusion.

    Consecutive MCX gates carrying the same (mask, pattern) reuse one
    satisfaction vector and accumulate their target flips into one XOR
    word; the flips commit ("flush") before anything re-reads state: a
    differently-conditioned gate, any sign gate, a probe, or the end.
    Correct because a fused run's targets never intersect its own
    condition mask, so deferred flips cannot invalidate the cached
    satisfaction vector.
    """
    flat = copies[:, 0]
    t = flat.shape[0]
    pend_mask = pend_pat = None
    pend_sat = None
    pend_xor = 0
    packed_controls = None  # identity cache: rounds share one controls tuple
    packed_mp = (0, 0)

    def flush():
        nonlocal pend_mask, pend_pat, pend_sat, pend_xor
        if pend_sat is not None and pend_xor:
            flat[pend_sat] ^= np.uint64(pend_xor)
        pend_mask = pend_pat = pend_sat = None
        pend_xor = 0

    def evaluate_probes(li, pi):
        flush()
        while pi < len(probe_list) and probe_list[pi][0] == li:
            _, slot, terms = probe_list[pi]
            m, p = _pack_terms_int(terms)
            if m:
                results[slot] = np.asarray((flat & np.uint64(m)) == np.uint64(p))
            else:
                results[slot] = np.ones(t, dtype=bool)
            pi += 1
        return pi

    pi = 0
    next_probe = probe_list[0][0] if probe_list else -1
    mcz_masks: list[int] = []
    mcz_pats: list[int] = []
    for li, layer in enumerate(layers):
        if li == next_probe:
            pi = evaluate_probes(li, pi)
            next_probe = probe_list[pi][0] if pi < len(probe_list) else -1
        for g in layer.gates:
            if g.kind == MCX:
                if g.controls is not packed_controls:
                    packed_mp = _pack_terms_int(g.controls)
                    packed_controls = g.controls
                m, p = packed_mp
                if m != pend_mask or p != pend_pat:
                    flush()
                    pend_sat = (
                        (flat & np.uint64(m)) == np.uint64(p)
                        if m
                        else np.ones(t, dtype=bool)
                    )
                    pend_mask, pend_pat = m, p
                pend_xor ^= 1 << (g.target - 1)
            else:
                flush()
                m, p = _pack_terms_int(_full_condition(g))
                mcz_masks.append(m)
                mcz_pats.append(p)
        if mcz_masks:
            masks = np.array(mcz_masks, dtype=np.uint64)
            pats = np.array(mcz_pats, dtype=np.uint64)
            sat = (flat[None, :] & masks[:, None]) == pats[:, None]
            parity = np.bitwise_and(sat.sum(axis=0), 1)
            signs[parity == 1] *= -1
            mcz_masks.clear()
            mcz_pats.clear()
    flush()
    if pi < len(probe_list):
        evaluate_probes(len(layers), pi)


def _run_layers_wide(copies, signs, layers, probe_list, results) -> None:
    """Plain per-gate path for systems wider than one word."""
    W = copies.shape[1]

    def evaluate_probes(li, pi):
        while pi < len(probe_list) and probe_list[pi][0] == li:
            _, slot, terms = probe_list[pi]
            m, p = _pack_terms_words(terms, W)
            results[slot] = _satisfied_words(copies, m, p)
            pi += 1
        return pi

    pi = 0
    next_probe = probe_list[0][0] if probe_list else -1
    for li, layer in enumerate(layers):
        if li == next_probe:
            pi = evaluate_probes(li, pi)
            next_probe = probe_list[pi][0] if pi < len(probe_list) else -1
        for g in layer.gates:
            if g.kind == MCX:
                m, p = _pack_terms_words(g.controls, W)
                sat = _satisfied_words(copies, m, p)
                w, b = divmod(g.target - 1, 64)
                copies[sat, w] ^= np.uint64(1 << b)
            else:
                m, p = _pack_terms_words(_full_condition(g), W)
                sat = _satisfied_words(copies, m, p)
                signs[sat] = -signs[sat]
    if pi < len(probe_list):
        evaluate_probes(len(layers), pi)


def run_rounds(
    copies: np.ndarray,
    masks: np.ndarray,
    patterns: np.ndarray,
    flips: np.ndarray,
    record: int = 0,
) -> np.ndarray:
    """Apply shared-condition rounds to a batch of trials, in place.

    ``copies`` is (B, t, W); ``masks``, ``patterns`` and ``flips`` are
    (R, B, W), round r of trial b being ``[r, b]``.  A copy satisfies a
    round when it equals the pattern on the mask; the round then XORs
    its flips into that copy.  Exact only for rounds whose flips never
    meet their own mask, as in ``generators.gate_opt_program``.

    Returns the (B, t, record) satisfaction of the first ``record``
    rounds: the condition matrix ``round_probes`` records for them.
    """
    recorded = np.empty((record, copies.shape[0], copies.shape[1]), dtype=bool)
    zero = np.uint64(0)
    for r in range(masks.shape[0]):
        sat = np.all((copies & masks[r, :, None, :]) == patterns[r, :, None, :], axis=2)
        if r < record:
            recorded[r] = sat
        copies ^= np.where(sat[:, :, None], flips[r, :, None, :], zero)
    return recorded.transpose(1, 2, 0)


def apply_circuit(e: CopyEnsemble, c: Circuit) -> CopyEnsemble:
    """Apply all layers left to right; gate order within a layer is
    irrelevant because layer supports are disjoint."""
    if c.n != e.n:
        raise ValueError(f"circuit acts on {c.n} sites, ensemble has {e.n}")
    out = e.clone()
    evolve_arrays(out.copies, out.signs, c.layers)
    return out


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
    columns = evolve_arrays(out.copies, out.signs, c.layers, probes)
    return out, _columns_to_matrix(out.t, columns)


def condition_matrix(e: CopyEnsemble, conditions: Sequence[Sequence[ControlTerm]]) -> BitMatrix:
    """Condition matrix of a fixed ensemble: entry (p, q) is 1 iff copy p
    satisfies condition q.  A condition with no terms yields an all-ones
    column."""
    W = e.copies.shape[1]
    columns = []
    for terms in conditions:
        m, p = _pack_terms_words(terms, W)
        columns.append(_satisfied_words(e.copies, m, p))
    return _columns_to_matrix(e.t, columns)


def _columns_to_matrix(t: int, columns: Sequence[np.ndarray]) -> BitMatrix:
    if not columns:
        return BitMatrix.zeros(t, 0)
    return BitMatrix.from_dense(np.stack(columns, axis=1))


def round_probes(c: Circuit, stage: int = 1) -> list[tuple[int, list[ControlTerm]]]:
    """Probes for a generator's recorded rounds (from circuit metadata).

    Each round contributes one probe at its first layer with the round's
    shared condition, so ``apply_circuit_recording`` reproduces the
    copies-by-rounds condition matrix for the requested stage.
    """
    rounds = c.extra.get("rounds")
    if rounds is None:
        raise ValueError("circuit metadata carries no recorded rounds")
    probes = []
    for r in rounds:
        if r["stage"] == stage:
            terms = [ControlTerm(int(pos), int(val)) for pos, val in r["controls"]]
            probes.append((int(r["layer"]), terms))
    return probes
