"""Deterministic counter-based random streams.

Every stochastic quantity in the package is drawn from a Philox generator
keyed by a stable hash of ``(seed, *tags)``.  Streams with distinct tags are
statistically independent, and a stream's output never depends on how many
draws other streams have made, so per-sample generation is order-independent
and safe to run concurrently.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

def _derive_key(seed: int, tags: tuple) -> np.ndarray:
    h = hashlib.sha256()
    h.update(struct.pack("<q", int(seed)))
    for tag in tags:
        if isinstance(tag, str):
            h.update(b"s")
            h.update(tag.encode("utf-8"))
        elif isinstance(tag, (bool, np.bool_)):
            raise TypeError("bool stream tags are ambiguous; use int or str")
        elif isinstance(tag, (int, np.integer)):
            h.update(b"i")
            h.update(struct.pack("<q", int(tag)))
        elif isinstance(tag, (float, np.floating)):
            h.update(b"f")
            h.update(struct.pack("<d", float(tag)))
        else:
            raise TypeError(f"unsupported stream tag type: {type(tag)!r}")
    return np.frombuffer(h.digest()[:16], dtype=np.uint64)


def stream(seed: int, *tags: int | float | str) -> np.random.Generator:
    """Return an independent generator for (seed, *tags).

    Equal arguments always yield the same stream; any change to the seed or
    to one tag yields an unrelated stream.  Tags are hashed by value and
    type, so the float 2.0 and the int 2 name different streams.
    """
    return np.random.Generator(np.random.Philox(key=_derive_key(seed, tags)))


class ReusableStream:
    """One Philox/generator pair re-keyed in place, for tight loops.

    ``rekey`` makes the generator produce exactly the sequence that
    ``stream`` would with the same arguments, but ~30x faster than building
    fresh objects.  All draws for one key must finish before the next rekey;
    generators handed out earlier are invalidated by it.
    """

    def __init__(self) -> None:
        self._bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self.generator = np.random.Generator(self._bit_generator)

    def rekey(self, seed: int, *tags: int | float | str) -> np.random.Generator:
        self._bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": _derive_key(seed, tags),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.generator
