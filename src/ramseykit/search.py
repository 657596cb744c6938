"""Minimizing monochromatic pattern counts over colorings of K_n.

One copy-incidence engine counts for every search.  It lists each copy of
the pattern in K_n once (``copy_edge_masks``), keeps for every edge the
indices of the copies through it, and keeps a red-edge count per copy: a
copy with s edges is monochromatic when its count is 0 or s, and an
edgeless copy is both, so it counts once in each color.  Colorings are
Python integers, so no host size is capped by a machine word.

* ``exhaustive_min`` -- exact minimum by vertex extension.  It takes one
  representative per graph-isomorphism class on n-1 vertices (generated by
  vertex augmentation with canonical relabeling) and every red
  neighbourhood of the last vertex: one engine pass over the classes and a
  subset-sum transform count all those extensions at once.  This is sound
  because the count is relabeling-invariant.
* ``anneal_min`` -- simulated annealing with single-edge-flip moves and
  restarts, exact=False.  Deterministic for a fixed config: restart i uses
  a seed derived from (config.seed, i) with a stable hash.

Witness tie-break everywhere: the serialized form that is lexicographically
least among optimal colorings found.  numpy is imported by the engine, not
by the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Sequence

from .coloring import EdgeColoring, pair_count, pair_index
from .counting import Pattern, copy_edge_masks, count_mono
from .errors import CapabilityError, DomainError
from .formulas import r_cycle, r_path
from .parallel import check_threads, job_seed, parallel_map

EXHAUSTIVE_MAX_N = 7
# nothing in the package branches on this since every n sweeps by vertex
# extension; perfbench/workloads.py names its exhaustive spans by it
RAW_ENUM_MAX_N = 6
_CHUNK = 4096  # copies handled per numpy pass
# per-edge rows up to this many copies are tallied by bytes.count, which
# costs less than a numpy call there (P_6/8 has 1,800, P_7/9 has 15,120)
_BYTES_TALLY_MAX = 4096


@dataclass(frozen=True)
class SearchConfig:
    """Annealing schedule.  The seed has no default: runs must be reproducible
    on purpose, not by accident."""

    seed: int
    restarts: int = 8
    steps_per_restart: int = 4000
    initial_temperature: float = 2.0
    cooling_rate: float = 0.995

    def validate(self) -> None:
        if self.restarts < 1 or self.steps_per_restart < 0:
            raise DomainError("restarts must be >= 1 and steps nonnegative")
        if self.initial_temperature <= 0:
            raise DomainError("initial temperature must be positive")
        if not 0 < self.cooling_rate < 1:
            raise DomainError("cooling rate must lie in (0, 1)")


@dataclass(frozen=True)
class MinimizationResult:
    pattern: Pattern
    n: int
    best_count: int
    witness: EdgeColoring
    exact: bool
    explored: int
    method: str


def _bit_matrix(values: Sequence[int], nbits: int):
    """(len(values), nbits) uint8 array: bit e of values[r] at [r, e]."""
    import numpy as np

    width = (nbits + 7) // 8
    raw = b"".join(v.to_bytes(width, "little") for v in values)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), width)
    return np.unpackbits(rows, axis=1, count=nbits, bitorder="little")


class _CopyEngine:
    """Copy-edge incidence of a pattern in K_n, with a red-edge count per copy.

    ``edges[c]`` lists the s edges of copy c.  K_n is edge-transitive, so
    every edge lies in the same number c_e of copies: ``rows[e]`` lists the
    copies through edge e, and the rows are those of one rectangular
    (C(n,2), c_e) array.  ``_red_counts`` counts a batch of colorings through
    ``edges``; ``start``, ``delta`` and ``flip`` walk one coloring an edge at
    a time through ``rows``, each step costing O(c_e).
    """

    def __init__(self, pattern: Pattern, n: int):
        import numpy as np

        masks = copy_edge_masks(pattern, n)
        self.nbits = nbits = pair_count(n)
        self.copies = len(masks)
        self.size = bin(masks[0]).count("1") if masks else 0
        width = self.copies * self.size // max(nbits, 1)
        self.edges = np.empty((self.copies, self.size), dtype=np.min_scalar_type(nbits))
        inc = np.empty((nbits, width), dtype=np.intp)
        # a chunk of masks at a time, so no temporary outgrows inc, and each
        # chunk is freed once copied, so masks and inc do not peak together
        filled = [0] * nbits
        for lo in range(0, self.copies, _CHUNK):
            bits = _bit_matrix(masks[:_CHUNK], nbits)
            del masks[:_CHUNK]
            self.edges[lo:lo + len(bits)] = bits.nonzero()[1].reshape(len(bits), self.size)
            for e in range(nbits):
                hit = np.flatnonzero(bits[:, e])
                inc[e, filled[e]:filled[e] + len(hit)] = hit + lo
                filled[e] += len(hit)
        if filled != [width] * nbits:
            raise AssertionError("copies are not spread evenly over the edges")
        self.rows = list(inc)
        self._count = np.count_nonzero  # numpy is not a module global here
        self._bytes_tally = 0 < width <= _BYTES_TALLY_MAX and self.size < 256
        self.bits = 0
        self.red = np.zeros(self.copies, dtype=np.min_scalar_type(self.size))
        self._edge, self._gathered = -1, None

    def _red_counts(self, states: Sequence[int]):
        """(copies, len(states)) red-edge counts, a column per coloring."""
        import numpy as np

        bits = np.ascontiguousarray(_bit_matrix(states, self.nbits).T)
        red = np.zeros((self.copies, len(states)), dtype=self.red.dtype)
        for column in self.edges.T:  # the j-th edge of every copy
            red += bits.take(column, axis=0)
        return red

    def start(self, bits: int) -> int:
        """Make ``bits`` the current coloring; returns its monochromatic count."""
        self.bits = bits
        self.red = self._red_counts([bits])[:, 0]
        self._edge = -1
        return int(self._count(self.red == 0) + self._count(self.red == self.size))

    def delta(self, e: int) -> int:
        """Change in the count if edge e flipped color."""
        g = self._gathered = self.red.take(self.rows[e])
        self._edge = e
        # red -> blue: copies at 1 turn blue, copies at s stop being red
        gain, loss = (1, self.size) if self.bits >> e & 1 else (self.size - 1, 0)
        if self._bytes_tally:  # on short rows bytes.count beats a numpy call
            b = g.tobytes()
            return b.count(gain) - b.count(loss)
        return int(self._count(g == gain) - self._count(g == loss))

    def flip(self, e: int) -> None:
        """Flip edge e, reusing the copy counts the last ``delta(e)`` gathered."""
        g = self._gathered if self._edge == e else self.red.take(self.rows[e])
        if self.bits >> e & 1:
            g -= 1
        else:
            g += 1
        self.red[self.rows[e]] = g
        self.bits ^= 1 << e
        self._edge = -1


def _least_witness(n: int, candidates) -> int:
    """The red bits whose serialized coloring is lexicographically least."""
    return min(candidates, key=lambda bits: EdgeColoring(n, bits).serialize())


# ---------------------------------------------------------------------------
# exhaustive minimization
# ---------------------------------------------------------------------------

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


def _bits_from_adj(adj: tuple[int, ...], n: int) -> int:
    """Red bits of K_n whose red graph on vertices 0..len(adj)-1 is adj and
    whose other edges are all blue."""
    bits = 0
    for i in range(len(adj)):
        for j in range(i + 1, len(adj)):
            if adj[i] >> j & 1:
                bits |= 1 << pair_index(n, i, j)
    return bits


def exhaustive_min(pattern: Pattern, n: int) -> MinimizationResult:
    """Exact minimum of count_mono over all colorings of K_n (n <= 7).

    Sweeps by vertex extension.  Counts are invariant under relabeling, and
    every coloring of K_n restricted to vertices 0..n-2 is isomorphic to a
    representative r of ``canonical_graph_reps(n - 1)``, so it suffices to
    try each r with each red neighbourhood N of the last vertex v = n-1.
    One engine pass over the r, with every edge at v blue, gives each copy's
    red-edge count, and then

        count(r, N) = inner(r) + zeta(R_r)[N] + zeta(B_r)[~N]

    inner(r) counts the monochromatic copies with no edge at v.  R_r[S]
    (B_r[S]) counts the copies whose edges at v go to S and whose other
    edges are all red (all blue); zeta sums over the subsets of N.
    ``explored`` is the number of (r, N) pairs, classes(n-1) * 2^(n-1).
    The witness is the least serialized coloring among the tied pairs,
    re-verified with the independent DP counter before returning.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > EXHAUSTIVE_MAX_N:
        raise CapabilityError(
            f"exhaustive search limited to n <= {EXHAUSTIVE_MAX_N} (got n={n}); "
            "use anneal_min for larger hosts"
        )
    method = "exhaustive-canonical"
    if n == 0:  # one coloring, and no pattern fits in an empty host
        return MinimizationResult(pattern, 0, 0, EdgeColoring(0), True, 1, method)
    import numpy as np

    engine = _CopyEngine(pattern, n)
    v = n - 1
    states = [_bits_from_adj(adj, n) for adj in canonical_graph_reps(v)]
    spoke = [pair_index(n, i, v) for i in range(v)]
    at_v = np.zeros(engine.nbits, dtype=np.intp)
    at_v[spoke] = 1 << np.arange(v)
    at = at_v[engine.edges]
    hood = at.sum(axis=1)  # the neighbours of v in each copy, as a bitmask
    red = engine._red_counts(states)
    fixed = red[hood == 0]  # copies with no edge at v: r alone sets their colors
    inner = np.count_nonzero(fixed == 0, axis=0) + np.count_nonzero(fixed == engine.size, axis=0)
    through = hood > 0
    red, others = red[through], engine.size - np.count_nonzero(at[through], axis=1)
    cell = hood[through, None] * len(states) + np.arange(len(states))

    def zeta(mono):
        """Row N, column r: the copies counted by mono with S a subset of N."""
        table = np.bincount(cell[mono], minlength=len(states) << v).reshape(1 << v, -1)
        for i in range(v):
            half = table.reshape(-1, 2, 1 << i, len(states))
            half[:, 1] += half[:, 0]
        return table

    counts = inner + zeta(red == others[:, None]) + zeta(red == 0)[::-1]
    best = int(counts.min())
    hoods, reps = (counts == best).nonzero()
    witness = EdgeColoring(n, _least_witness(n, (
        states[r] | sum(1 << spoke[i] for i in range(v) if h >> i & 1)
        for h, r in zip(hoods.tolist(), reps.tolist())
    )))
    check = count_mono(witness, pattern)
    if check != best:
        raise AssertionError(
            f"witness recount mismatch: enumeration said {best}, DP says {check}"
        )
    return MinimizationResult(pattern, n, best, witness, True, counts.size, method)


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

def _anneal_restart(job: tuple) -> tuple[int, int]:
    engine, seed_i, steps, t0, cooling, initial_bits = job
    rng = Random(seed_i)
    nbits = engine.nbits
    bits = rng.getrandbits(nbits) if initial_bits is None and nbits else (initial_bits or 0)
    cur = engine.start(bits)
    best, best_bits = cur, bits
    temp = t0
    for _ in range(steps if nbits else 0):
        e = rng.randrange(nbits)
        d = engine.delta(e)
        if d <= 0 or rng.random() < math.exp(-d / temp):
            engine.flip(e)
            cur += d
            if cur < best:
                best, best_bits = cur, engine.bits
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
    engine is built once and handed to every restart, in process or in a
    worker.  The returned best_count is re-verified against the DP counter.
    """
    config.validate()
    if initial is not None and initial.n != n:
        raise DomainError("initial coloring has the wrong vertex count")
    check_threads(threads)
    engine = _CopyEngine(pattern, n)
    init_bits = initial.red_bits if initial is not None else None
    jobs = [
        (
            engine,
            job_seed(config.seed, i),
            config.steps_per_restart,
            config.initial_temperature,
            config.cooling_rate,
            init_bits,
        )
        for i in range(config.restarts)
    ]
    outcomes = parallel_map(_anneal_restart, jobs, threads)
    best = min(cnt for cnt, _ in outcomes)
    witness = EdgeColoring(n, _least_witness(n, (b for cnt, b in outcomes if cnt == best)))
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
