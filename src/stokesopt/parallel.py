"""Process-pool fan-out for multi-start search.

Callers pass an explicit worker count; `None` falls back to the
STOKES_OPT_THREADS environment variable, and to serial execution when that
is unset.  Each start draws its randomness from its own rng_for substream,
so results do not depend on the worker count.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError

__all__ = ["resolve_workers", "pool_map"]


def resolve_workers(workers: int | None, default: int = 1) -> int:
    """`workers`; when it is None, STOKES_OPT_THREADS, else `default`."""
    if workers is not None:
        return int(workers)
    raw = os.environ.get("STOKES_OPT_THREADS")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"STOKES_OPT_THREADS must be an integer, got {raw!r}") from None


def pool_map(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], over up to `workers` processes.

    Runs in this process when workers <= 1 or there is only one job.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))
