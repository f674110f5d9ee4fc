"""Deterministic RNG streams.

Every stochastic entry point takes an integer seed and derives independent
substreams through a counter-based Philox generator keyed by SeedSequence.
Each start of a multi-start search draws from its own stream, so it gets
the same numbers whatever worker count `multi_start` is given.  A
Monte-Carlo run draws all its trials from one stream, in trial order.
"""
from __future__ import annotations

import numpy as np

__all__ = ["rng_for", "complex_normal"]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for (seed, stream...) with scheduling-independent output.

    Each int is split into little-endian 32-bit words, as SeedSequence
    splits the ints of a list, and all words enter as one uint32 array:
    the stream of SeedSequence([seed, *stream]), without its per-int cost."""
    words = []
    for value in (seed, *stream):
        value = int(value)
        if value < 0:
            raise ValueError(f"seeds must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.Philox(seq))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussians of `shape`, real parts drawn before imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
