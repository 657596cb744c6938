"""Minimizing monochromatic pattern counts over colorings of K_n.

Two engines:

* ``exhaustive_min`` -- exact minimum.  Raw enumeration of all 2^C(n,2)
  colorings up to n = 6; at n = 7 the search streams one representative per
  graph-isomorphism class (generated by vertex augmentation with canonical
  relabeling), which is sound because the count is relabeling-invariant.
* ``anneal_min`` -- simulated annealing with single-edge-flip moves and
  restarts, exact=False.  Deterministic for a fixed config: restart i uses
  a seed derived from (config.seed, i) with a stable hash.

Witness tie-break everywhere: the serialized form that is lexicographically
least among optimal colorings found.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from random import Random

import numpy as np

from .coloring import EdgeColoring, pair_count, pair_index
from .counting import Pattern, copy_edge_masks, count_mono
from .errors import CapabilityError, DomainError
from .formulas import r_cycle, r_path

EXHAUSTIVE_MAX_N = 7
RAW_ENUM_MAX_N = 6
_NUMPY_MAX_BITS = 63


@dataclass(frozen=True)
class SearchConfig:
    """Annealing schedule.  The seed has no default: runs must be reproducible
    on purpose, not by accident."""

    seed: int
    restarts: int = 8
    steps_per_restart: int = 4000
    initial_temperature: float = 2.0
    cooling_rate: float = 0.995
    move: str = "single-edge-flip"

    def validate(self) -> None:
        if self.restarts < 1 or self.steps_per_restart < 0:
            raise DomainError("restarts must be >= 1 and steps nonnegative")
        if self.initial_temperature <= 0:
            raise DomainError("initial temperature must be positive")
        if not 0 < self.cooling_rate < 1:
            raise DomainError("cooling rate must lie in (0, 1)")
        if self.move != "single-edge-flip":
            raise DomainError(f"unsupported move kind {self.move!r}")


@dataclass(frozen=True)
class MinimizationResult:
    pattern: Pattern
    n: int
    best_count: int
    witness: EdgeColoring
    exact: bool
    explored: int
    method: str


def _restart_seed(seed: int, i: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class _CopyCounter:
    """Monochromatic-copy counting driven by explicit copy masks.

    Per-edge mask subarrays make a single-flip delta cost proportional to
    the number of copies through that edge.  numpy uint64 fast path when
    C(n,2) <= 63, plain Python ints otherwise.
    """

    def __init__(self, pattern: Pattern, n: int):
        self.pattern = pattern
        self.n = n
        self.nbits = pair_count(n)
        masks = copy_edge_masks(pattern, n)
        self.total_copies = len(masks)
        self.vectorized = self.nbits <= _NUMPY_MAX_BITS
        if self.vectorized:
            self.all = np.array(masks, dtype=np.uint64)
            self.per_edge = [
                self.all[(self.all >> np.uint64(e)) & np.uint64(1) == 1]
                for e in range(self.nbits)
            ]
        else:
            self.all_py = masks
            self.per_edge_py = [
                [m for m in masks if m >> e & 1] for e in range(self.nbits)
            ]

    def count(self, red_bits: int) -> int:
        if self.vectorized:
            if not len(self.all):
                return 0
            r = np.uint64(red_bits)
            hit = self.all & r
            return int(np.count_nonzero(hit == self.all) + np.count_nonzero(hit == 0))
        total = 0
        for m in self.all_py:
            hit = m & red_bits
            if hit == m or hit == 0:
                total += 1
        return total

    def delta(self, red_bits: int, e: int) -> int:
        flipped = red_bits ^ (1 << e)
        if self.vectorized:
            arr = self.per_edge[e]
            if not len(arr):
                return 0
            old = arr & np.uint64(red_bits)
            new = arr & np.uint64(flipped)
            mono_old = np.count_nonzero(old == arr) + np.count_nonzero(old == 0)
            mono_new = np.count_nonzero(new == arr) + np.count_nonzero(new == 0)
            return int(mono_new - mono_old)
        d = 0
        for m in self.per_edge_py[e]:
            ho = m & red_bits
            hn = m & flipped
            d += (1 if (hn == m or hn == 0) else 0) - (1 if (ho == m or ho == 0) else 0)
        return d


# ---------------------------------------------------------------------------
# exhaustive minimization
# ---------------------------------------------------------------------------

def _raw_minimum(pattern: Pattern, n: int) -> tuple[int, int, int]:
    """(best_count, best_bits, explored) by enumerating every coloring."""
    nbits = pair_count(n)
    masks = copy_edge_masks(pattern, n)
    total_states = 1 << nbits
    if not masks:
        return 0, 0, total_states
    arr = np.array(masks, dtype=np.uint64)
    best = None
    best_key = None
    best_bits = 0
    chunk = 1 << 12
    for start in range(0, total_states, chunk):
        states = np.arange(start, min(start + chunk, total_states), dtype=np.uint64)
        hit = states[:, None] & arr[None, :]
        counts = (hit == arr[None, :]).sum(axis=1) + (hit == 0).sum(axis=1)
        cmin = int(counts.min())
        if best is None or cmin <= best:
            if best is None or cmin < best:
                best = cmin
                best_key = None
            for idx in np.nonzero(counts == cmin)[0]:
                bits = start + int(idx)
                key = EdgeColoring(n, bits).serialize()
                if best_key is None or key < best_key:
                    best_key = key
                    best_bits = bits
    return best, best_bits, total_states


def _apply_perm(adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    n = len(adj)
    out = []
    for p in range(n):
        a = adj[perm[p]]
        m = 0
        for q in range(n):
            if a >> perm[q] & 1:
                m |= 1 << q
        out.append(m)
    return tuple(out)


def canonical_graph_reps(n: int) -> list[tuple[int, ...]]:
    """One canonically labeled representative per graph-isomorphism class.

    Built level by level: every class on m vertices arises by attaching a
    new vertex to a representative on m-1 vertices, then canonicalizing.
    """
    from .coloring import _min_relabeling

    reps: dict[tuple[int, ...], None] = {(0,): None}
    for m in range(2, n + 1):
        nxt: dict[tuple[int, ...], None] = {}
        for adj in reps:
            base = list(adj)
            for ext in range(1 << (m - 1)):
                adj2 = [
                    base[i] | (((ext >> i) & 1) << (m - 1)) for i in range(m - 1)
                ]
                adj2.append(ext)
                perm = _min_relabeling(adj2, m)
                nxt[_apply_perm(tuple(adj2), perm)] = None
        reps = nxt
    return sorted(reps) if n >= 1 else [()]


def _bits_from_adj(adj: tuple[int, ...]) -> int:
    n = len(adj)
    bits = 0
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i] >> j & 1:
                bits |= 1 << pair_index(n, i, j)
    return bits


def _streamed_minimum(pattern: Pattern, n: int) -> tuple[int, int, int]:
    """(best_count, best_bits, classes) over graph-class representatives."""
    masks = copy_edge_masks(pattern, n)
    reps = canonical_graph_reps(n)
    best = None
    best_key = None
    best_bits = 0
    for adj in reps:
        bits = _bits_from_adj(adj)
        cnt = 0
        for m in masks:
            hit = m & bits
            if hit == m or hit == 0:
                cnt += 1
        if best is None or cnt < best:
            best = cnt
            best_bits = bits
            best_key = EdgeColoring(n, bits).serialize()
        elif cnt == best:
            key = EdgeColoring(n, bits).serialize()
            if key < best_key:
                best_key = key
                best_bits = bits
    return best, best_bits, len(reps)


def exhaustive_min(pattern: Pattern, n: int) -> MinimizationResult:
    """Exact minimum of count_mono over all colorings of K_n (n <= 7).

    Counts are invariant under vertex relabeling, so at n = 7 only one
    coloring per red-graph isomorphism class is examined; below that the raw
    state space is small enough to sweep directly.  The reported witness is
    re-verified with the independent DP counter before returning.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > EXHAUSTIVE_MAX_N:
        raise CapabilityError(
            f"exhaustive search limited to n <= {EXHAUSTIVE_MAX_N} (got n={n}); "
            "use anneal_min for larger hosts"
        )
    if n <= RAW_ENUM_MAX_N:
        best, bits, explored = _raw_minimum(pattern, n)
        method = "exhaustive-raw"
    else:
        best, bits, explored = _streamed_minimum(pattern, n)
        method = "exhaustive-canonical"
    witness = EdgeColoring(n, bits)
    check = count_mono(witness, pattern)
    if check != best:
        raise AssertionError(
            f"witness recount mismatch: enumeration said {best}, DP says {check}"
        )
    return MinimizationResult(pattern, n, best, witness, True, explored, method)


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

def _anneal_restart(
    pattern: Pattern,
    n: int,
    seed_i: int,
    steps: int,
    t0: float,
    cooling: float,
    initial_bits: int | None,
    counter: _CopyCounter | None = None,
) -> tuple[int, int]:
    if counter is None:
        counter = _CopyCounter(pattern, n)
    rng = Random(seed_i)
    nbits = counter.nbits
    bits = rng.getrandbits(nbits) if initial_bits is None and nbits else (initial_bits or 0)
    cur = counter.count(bits)
    best, best_bits = cur, bits
    temp = t0
    for _ in range(steps if nbits else 0):
        e = rng.randrange(nbits)
        d = counter.delta(bits, e)
        if d <= 0 or rng.random() < math.exp(-d / temp):
            bits ^= 1 << e
            cur += d
            if cur < best:
                best, best_bits = cur, bits
        temp *= cooling
    return best, best_bits


def anneal_min(
    pattern: Pattern,
    n: int,
    config: SearchConfig,
    initial: EdgeColoring | None = None,
    threads: int = 1,
) -> MinimizationResult:
    """Simulated-annealing upper bound on the minimum monochromatic count.

    Single-edge-flip proposals with Metropolis acceptance and geometric
    cooling; restart i runs from an independent random start (or from
    ``initial`` if given) under seed derived from (config.seed, i).  The
    returned best_count is re-verified against the DP counter.
    """
    config.validate()
    if initial is not None and initial.n != n:
        raise DomainError("initial coloring has the wrong vertex count")
    if threads < 1:
        raise DomainError("threads must be >= 1")
    init_bits = initial.red_bits if initial is not None else None
    jobs = [
        (
            pattern,
            n,
            _restart_seed(config.seed, i),
            config.steps_per_restart,
            config.initial_temperature,
            config.cooling_rate,
            init_bits,
        )
        for i in range(config.restarts)
    ]
    if threads == 1:
        counter = _CopyCounter(pattern, n)
        outcomes = [_anneal_restart(*job, counter=counter) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_anneal_restart_job, jobs))
    best, best_bits = None, 0
    best_key = None
    for cnt, bits in outcomes:
        key = EdgeColoring(n, bits).serialize()
        if best is None or cnt < best or (cnt == best and key < best_key):
            best, best_bits, best_key = cnt, bits, key
    witness = EdgeColoring(n, best_bits)
    check = count_mono(witness, pattern)
    if check != best:
        raise AssertionError(
            f"witness recount mismatch: annealer said {best}, DP says {check}"
        )
    return MinimizationResult(
        pattern,
        n,
        best,
        witness,
        False,
        config.restarts * config.steps_per_restart,
        "anneal",
    )


def _anneal_restart_job(job: tuple) -> tuple[int, int]:
    return _anneal_restart(*job)


# ---------------------------------------------------------------------------
# Ramsey numbers and threshold multiplicities by search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchRamseyResult:
    """Outcome of locating r(H) computationally.

    ``value`` is set when consecutive certificates pin the number exactly:
    an exhaustive zero at value-1 (or value-1 below the pattern size) and an
    exhaustive positive minimum at value.  Otherwise only ``lower`` is
    certified (a coloring with zero monochromatic copies exists at lower-1)
    and ``value`` is None.
    """

    pattern: Pattern
    lower: int
    value: int | None
    provenance: str = "search"

    @property
    def determined(self) -> bool:
        return self.value is not None


def ramsey_via_search(
    pattern: Pattern, n_max: int, config: SearchConfig | None = None
) -> SearchRamseyResult:
    """Locate r(H) by certified search up to n_max.

    Exhaustive minimization decides each n <= 7 outright.  Beyond that, only
    zero-count witnesses can certify r(H) > n; the sweep tries split
    colorings chi(a, b) and, when a config is supplied, annealing.  A
    positive heuristic minimum certifies nothing, so the scan stops there
    with an interval answer.
    """
    from .coloring import split_coloring

    vc = pattern.vertex_count
    lower = vc  # r(H) >= vertex count: smaller hosts carry no copy at all
    for n in range(vc, n_max + 1):
        if n <= EXHAUSTIVE_MAX_N:
            res = exhaustive_min(pattern, n)
            if res.best_count > 0:
                return SearchRamseyResult(pattern, n, n)
            lower = n + 1
            continue
        found_zero = False
        for a in range(n + 1):
            if count_mono(split_coloring(a, n - a), pattern) == 0:
                found_zero = True
                break
        if not found_zero and config is not None:
            if anneal_min(pattern, n, config).best_count == 0:
                found_zero = True
        if not found_zero:
            return SearchRamseyResult(pattern, lower, None)
        lower = n + 1
    return SearchRamseyResult(pattern, lower, None)


@dataclass(frozen=True)
class ThresholdMultiplicity:
    pattern: Pattern
    ramsey_n: int
    value: int
    exact: bool
    method: str


def threshold_multiplicity(
    pattern: Pattern, config: SearchConfig | None = None
) -> ThresholdMultiplicity:
    """Minimum monochromatic count at n = r(H).

    r comes from the closed forms for paths and cycles and from certified
    search otherwise.  The count is exact when r <= 7; beyond that annealing
    gives an upper bound and requires an explicit config.
    """
    if pattern.kind == "path":
        r = r_path(pattern.k).value
    elif pattern.kind == "cycle":
        r = r_cycle(pattern.k).value
    else:
        located = ramsey_via_search(pattern, EXHAUSTIVE_MAX_N)
        if not located.determined:
            raise CapabilityError(
                f"cannot certify r({pattern.label}) within the exhaustive range"
            )
        r = located.value
    if r <= EXHAUSTIVE_MAX_N:
        res = exhaustive_min(pattern, r)
        return ThresholdMultiplicity(pattern, r, res.best_count, True, res.method)
    if config is None:
        raise CapabilityError(
            f"r({pattern.label}) = {r} > {EXHAUSTIVE_MAX_N}: supply a SearchConfig "
            "to compute an annealed upper bound"
        )
    res = anneal_min(pattern, r, config)
    return ThresholdMultiplicity(pattern, r, res.best_count, False, res.method)
