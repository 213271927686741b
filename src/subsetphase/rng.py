"""Deterministic stream-splitting on top of a counter-based generator.

Every random draw in the package comes from a named stream derived from
(master seed, tag...) via SHA-256, feeding a Philox counter-based bit
generator.  Streams with distinct tags are independent, so Monte Carlo
trials can be evaluated in any order (or in parallel) and still
reproduce bit-for-bit.

The key a stream's Philox runs on is
``np.asarray(stream_key(...)).astype(np.uint64)``, the key that
``np.random.Philox(key=stream_key(...))`` takes, not always the two
SHA-256 words: ``np.asarray`` turns a pair with exactly one word at or
above 2^63 into float64, which rounds both words.  No ``SeedSequence``
is built; ``_Key`` hands Philox that key directly.

``stream`` wraps a stream in a ``Generator``.  The trial loops read a
block of streams at a time through one ``Philox`` per block, re-keyed
for each stream through its ``state`` to exactly a fresh one's state:
``stream_words`` reads the raw 64-bit words of the streams (seed,
tags...) of a block of seeds, and ``TrialStreams`` those of the streams
(master seed, tag, i) of a block of trials i.  Their keys, and the
seeds of ``block_seeds``, hash the shared (master seed, tag) prefix
once and extend a copy of that SHA-256 state per trial.

A ``Generator`` call reads those words as follows: uint8
``integers(0, 2)`` takes the top bit of each byte of the next uint32s,
a new uint32 per call; the uint32s are each word's low half, then its
high half, a high half left over by one call starting the next;
``random()`` takes the next whole word w, skipping a left-over half,
as (w >> 11) * 2^-53; ``bytes(8c)`` takes the next 2c uint32s, so the
next c words of a stream that holds no left-over half.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

import numpy as np

# Recorded in every output artifact so an independent run can tell whether
# its streams are bit-compatible with ours.  The suffix names the layout
# of the generator streams: one stream per (generator, stage), read as
# firing bits, polarity coins, then a (rounds, window) key matrix.
RNG_KIND = "philox4x64/sha256-derived-streams/gen-stage-blocks-v2"

_SEP = b"\x1f"


def _encode_tag(tag: object) -> bytes:
    if isinstance(tag, str):
        return b"s:" + tag.encode("utf-8")
    if isinstance(tag, bool):
        raise TypeError("boolean stream tags are ambiguous; use int or str")
    if isinstance(tag, (int, np.integer)):
        return b"i:%d" % int(tag)
    raise TypeError(f"unsupported stream tag type: {type(tag).__name__}")


def _suffix(tags: Sequence[object]) -> bytes:
    return b"".join([_SEP + _encode_tag(t) for t in tags])


def _hash_key(master_seed: int, suffix: bytes) -> tuple[int, int]:
    return struct.unpack_from("<QQ", hashlib.sha256(_encode_tag(int(master_seed)) + suffix).digest())


def stream_key(master_seed: int, *tags: object) -> tuple[int, int]:
    """Hash (master_seed, tags...) into a 128-bit Philox key (2 words)."""
    return _hash_key(master_seed, _suffix(tags))


class _Key(np.random.bit_generator.ISeedSequence):
    """Hands Philox the key ``np.random.Philox(key=key)`` runs on,
    ``np.asarray(key).astype(np.uint64)``, without a ``SeedSequence``."""

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.asarray(self.key).astype(np.uint64)


def stream(master_seed: int, *tags: object) -> np.random.Generator:
    """Independent generator for the stream named by (master_seed, tags...)."""
    return _keyed_stream(stream_key(master_seed, *tags))


def _keyed_stream(key: tuple[int, int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_Key(key)))


def _read_words(keys: Sequence[tuple[int, int]], count: int) -> np.ndarray:
    """(len(keys), count) uint64: the first ``count`` raw words of the
    stream of each key, through one ``Philox`` re-keyed per stream."""
    if len(keys) == 1:
        # no block copy: a one-seed stage of a cost sweep can hold megabytes
        return np.random.Philox(_Key(keys[0])).random_raw(count)[None]
    out = np.empty((len(keys), count), dtype=np.uint64)
    if len(keys):
        philox = np.random.Philox(_Key(keys[0]))
        # counter 0, an empty buffer (position 4) and no held uint32
        fresh = philox.state
        for b, key in enumerate(keys):
            # one pair at a time: a block of pairs converts as one array,
            # float64 if any pair is mixed, which would round them all
            fresh["state"]["key"] = np.asarray(key).astype(np.uint64)
            philox.state = fresh
            out[b] = philox.random_raw(count)
    return out


def stream_words(seeds: Sequence[int], *tags: object, count: int) -> np.ndarray:
    """(len(seeds), count) uint64: the first ``count`` raw words of the
    stream (seed, tags...) of each of ``seeds``, the words its
    ``Generator`` would read (module docstring)."""
    suffix = _suffix(tags)
    return _read_words([_hash_key(seed, suffix) for seed in seeds], count)


def _block_keys(master_seed: int, tag: object, lo: int, hi: int) -> list[tuple[int, int]]:
    """``stream_key(master_seed, tag, i)`` for i = lo .. hi-1, hashing
    their shared prefix once."""
    prefix = hashlib.sha256(_encode_tag(int(master_seed)) + _suffix((tag,)) + _SEP + b"i:")
    keys = []
    for i in range(lo, hi):
        digest = prefix.copy()
        digest.update(b"%d" % i)
        keys.append(struct.unpack_from("<QQ", digest.digest()))
    return keys


def block_seeds(master_seed: int, tag: object, lo: int, hi: int) -> list[int]:
    """``derive_seed(master_seed, tag, i)`` for i = lo .. hi-1."""
    return [key[0] for key in _block_keys(master_seed, tag, lo, hi)]


class TrialStreams:
    """The streams (master_seed, tag, i) of trials i = lo .. hi-1.

    ``words(count)`` reads the first ``count`` raw words of every stream
    as one (B, count) block; ``streams[b]`` is trial b's ``Generator``,
    reading on past the words ``words`` last read.
    """

    def __init__(self, master_seed: int, tag: object, lo: int, hi: int):
        self.keys = _block_keys(master_seed, tag, lo, hi)
        self._read = 0

    def __len__(self) -> int:
        return len(self.keys)

    def words(self, count: int) -> np.ndarray:
        self._read = count
        return _read_words(self.keys, count)

    def __getitem__(self, b: int) -> np.random.Generator:
        rng = _keyed_stream(self.keys[b])
        rng.bit_generator.random_raw(self._read)
        return rng


def derive_seed(master_seed: int, *tags: object) -> int:
    """64-bit sub-seed for handing to components that take a plain seed."""
    return stream_key(master_seed, *tags)[0]
