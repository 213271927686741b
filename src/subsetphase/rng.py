"""Deterministic stream-splitting on top of a counter-based generator.

Every random draw in the package comes from a named stream derived from
(master seed, tag...) via SHA-256, feeding a Philox counter-based bit
generator.  Streams with distinct tags are independent, so Monte Carlo
trials can be evaluated in any order (or in parallel) and still
reproduce bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Recorded in every output artifact so an independent run can tell whether
# its streams are bit-compatible with ours.  The suffix names the layout
# of the generator streams: one stream per (generator, stage), read as
# firing bits, polarity coins, then a (rounds, window) key matrix.
RNG_KIND = "philox4x64/sha256-derived-streams/gen-stage-blocks-v2"

_SEP = b"\x1f"


def _encode_tag(tag: object) -> bytes:
    if isinstance(tag, bool):
        raise TypeError("boolean stream tags are ambiguous; use int or str")
    if isinstance(tag, (int, np.integer)):
        return b"i:" + str(int(tag)).encode("ascii")
    if isinstance(tag, str):
        return b"s:" + tag.encode("utf-8")
    raise TypeError(f"unsupported stream tag type: {type(tag).__name__}")


def stream_key(master_seed: int, *tags: object) -> tuple[int, int]:
    """Hash (master_seed, tags...) into a 128-bit Philox key (2 words)."""
    payload = _SEP.join([_encode_tag(int(master_seed))] + [_encode_tag(t) for t in tags])
    digest = hashlib.sha256(payload).digest()
    return tuple(int.from_bytes(digest[8 * i : 8 * (i + 1)], "little") for i in range(2))


def stream(master_seed: int, *tags: object) -> np.random.Generator:
    """Independent generator for the stream named by (master_seed, tags...)."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *tags)))


def derive_seed(master_seed: int, *tags: object) -> int:
    """64-bit sub-seed for handing to components that take a plain seed."""
    return stream_key(master_seed, *tags)[0]
