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

``stream`` wraps a stream in a ``Generator``; ``stream_words`` reads
the raw 64-bit words of a block of streams, one ``random_raw`` call
each.  A ``Generator`` call reads those words as follows: uint8
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
    return np.random.Generator(np.random.Philox(_Key(stream_key(master_seed, *tags))))


def stream_words(seeds: Sequence[int], *tags: object, count: int) -> np.ndarray:
    """(len(seeds), count) uint64: the first ``count`` raw words of the
    stream (seed, tags...) of each of ``seeds``, the words its
    ``Generator`` would read (module docstring)."""
    suffix = _suffix(tags)
    reads = [np.random.Philox(_Key(_hash_key(seed, suffix))).random_raw for seed in seeds]
    if len(reads) == 1:
        # no block copy: a one-seed stage of a cost sweep can hold megabytes
        return reads[0](count)[None]
    out = np.empty((len(reads), count), dtype=np.uint64)
    for b, read in enumerate(reads):
        out[b] = read(count)
    return out


def derive_seed(master_seed: int, *tags: object) -> int:
    """64-bit sub-seed for handing to components that take a plain seed."""
    return stream_key(master_seed, *tags)[0]
