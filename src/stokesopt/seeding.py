"""Deterministic RNG streams.

Every stochastic entry point takes an integer seed and derives independent
substreams through a counter-based Philox generator keyed by SeedSequence.
Each start of a multi-start search draws from its own stream, so it gets
the same numbers whatever worker count `multi_start` is given.  A
Monte-Carlo run draws all its trials from one stream, in trial order.
"""
from __future__ import annotations

import numpy as np

__all__ = ["rng_for"]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for (seed, stream...) with scheduling-independent output."""
    seq = np.random.SeedSequence([int(seed), *[int(s) for s in stream]])
    return np.random.Generator(np.random.Philox(seq))
