"""Seeded substreams: all randomness flows from one root seed.

Named substreams keep components reproducible independently of each other
(drawing more schedule jitter must not shift the sampling stream, etc.).
Stream names are folded into the seed material via crc32, which is stable
across processes and platforms.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(root_seed: int, *names) -> np.random.Generator:
    """Generator for the (root_seed, *names) substream."""
    entropy = [int(root_seed)]
    for name in names:
        entropy.append(name if isinstance(name, int) else zlib.crc32(str(name).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))
