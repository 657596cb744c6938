"""The one process pool: map a function over independent jobs.

Results come back in job order, and each job draws its randomness from
`job_seed`, so a caller that is deterministic per job is deterministic for
any worker count.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Sequence, TypeVar

from .errors import DomainError

J = TypeVar("J")
R = TypeVar("R")


def check_threads(threads: int) -> None:
    """Refuse a worker count below 1; callers that build costly jobs check
    before building them."""
    if threads < 1:
        raise DomainError("threads must be >= 1")


def parallel_map(fn: Callable[[J], R], jobs: Sequence[J], threads: int) -> list[R]:
    """[fn(job) for job in jobs] over min(threads, len(jobs), cpu count)
    worker processes, or inline when that minimum is 1."""
    check_threads(threads)
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers start from a fresh import: forking a process that may
    # hold numpy's threads is unsafe
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        return list(pool.map(fn, jobs))


def job_seed(*parts: object) -> int:
    """64-bit seed of one job: blake2b of its parts joined by ':'."""
    text = ":".join(map(str, parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
