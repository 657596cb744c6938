"""Minimizing monochromatic pattern counts over colorings of K_n.

One copy-incidence engine counts for every search.  It lists each copy of
the pattern in K_n once (``copy_edge_masks``), keeps for every edge the
indices of the copies through it, and keeps a red-edge count per copy: a
copy with s edges is monochromatic when its count is 0 or s, and an
edgeless copy is both, so it counts once in each color.  Colorings are
Python integers, so no host size is capped by a machine word.

* ``exhaustive_min`` -- exact minimum by vertex extension.  It takes one
  representative per graph-isomorphism class on n-1 vertices and every red
  neighbourhood of the last vertex: one engine pass over the classes and a
  subset-sum transform count all those extensions at once.  This is sound
  because the count is relabeling-invariant.
* ``canonical_graph_reps`` -- the class representatives, by orderly
  generation.  A representative is the labeling with the least
  column-major adjacency string, and that form has a prefix property: its
  first m-1 rows are the representative of the graph they induce.  So each
  level extends every representative on m-1 vertices by every last row and
  keeps the extensions that are already canonical; nothing is relabeled or
  deduplicated.
* ``anneal_min`` -- simulated annealing with single-edge-flip moves and
  restarts, exact=False.  The restarts run one after another on one engine.
  Deterministic for a fixed config: restart i uses a seed derived from
  (config.seed, i) with a stable hash.  On hosts with
  long per-edge rows the engine keeps, per edge, a histogram of the red
  counts of the copies through it: a proposal's delta is O(1), and an
  accepted flip costs O(c_e * s) for c_e copies per edge of s edges each.

Witness tie-break everywhere: the serialized form that is lexicographically
least among optimal colorings found.  numpy is imported by the engine, not
by the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterable, Sequence

from .coloring import (
    EdgeColoring,
    _bits_from_adj,
    _least_labeling,
    job_seed,
    pair_count,
    pair_index,
)
from .counting import Pattern, copy_edge_masks, count_mono, total_copies_in_complete
from .errors import CapabilityError, DomainError
from .formulas import r_cycle, r_path

EXHAUSTIVE_MAX_N = 7
# nothing in the package branches on this since every n sweeps by vertex
# extension; perfbench/workloads.py names its exhaustive spans by it
RAW_ENUM_MAX_N = 6
# n = 8 (12,346 classes from 133,632 canonicity tests) takes 9.5-10.6 s on a
# shared two-core host, Python 3.11; n = 9 would run about 3.2 M tests
CLASS_REPS_MAX_N = 8
_CHUNK = 4096  # copies handled per numpy pass
# engine build cost, measured on a shared two-core host (Python 3.11): about
# 3 us per copy listed by copy_edge_masks plus 12 ns per (copy, edge of K_n)
# cell of the incidence scan.  P_7/9 (90,720 copies, 3.3 M cells) builds in
# 0.29 s at 40 MB max RSS, P_8/10 (907,200 copies, 41 M cells) in 3.0 s at
# 116 MB, K4/40 (91,390 copies, 71 M cells) in 1.2 s, and S_3/60 (1.95 M
# copies, 3.5 G cells) in 41 s at 423 MB; so a build within both budgets
# stays near 4 s and 120 MB
ENGINE_COPY_BUDGET = 1_000_000
ENGINE_CELL_BUDGET = 100_000_000
# per-edge rows up to this many copies are gathered and tallied by
# bytes.count; longer rows keep a histogram, whose update on an accepted
# flip costs more than a gather where many proposals are accepted (K3/12
# has 10 copies per edge, C_4/12 90, P_7/9 15,120)
_GATHER_MAX = 64


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
        for name in ("seed", "restarts", "steps_per_restart"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an int, not {value!r}")
        if self.restarts < 1 or self.steps_per_restart < 0:
            raise DomainError("restarts must be >= 1 and steps nonnegative")
        # an infinite temperature accepts every proposal: a random walk
        if not 0 < self.initial_temperature < math.inf:
            raise DomainError("initial temperature must be positive and finite")
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
    a time.  On short rows ``delta`` gathers the counts of the copies through
    e and ``flip`` writes them back, each O(c_e).  On long rows ``hist[e, r]``
    counts the copies through e with r red edges, so ``delta`` reads two
    cells, O(1), and ``flip`` moves each edge of every copy through e one
    cell, O(c_e * s), paid only on accepted moves.  A host whose estimated
    build exceeds ENGINE_COPY_BUDGET copies or ENGINE_CELL_BUDGET cells is
    refused before any copy is listed.
    """

    def __init__(self, pattern: Pattern, n: int):
        copies = total_copies_in_complete(n, pattern)
        cells = copies * pair_count(n)
        if copies > ENGINE_COPY_BUDGET or cells > ENGINE_CELL_BUDGET:
            raise CapabilityError(
                f"copy engine too large: estimated {copies:,} copies of {pattern.label} "
                f"in K_{n} ({cells:,} copy-edge cells), budget {ENGINE_COPY_BUDGET:,} "
                f"copies and {ENGINE_CELL_BUDGET:,} cells"
            )
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
        # bytes.count tallies only counts below 256
        self._gather = width <= _GATHER_MAX and self.size < 256
        self._cell_dtype = np.min_scalar_type(nbits * (self.size + 1))
        # (gain, loss) red counts for a blue and for a red edge e: blue -> red
        # makes copies at s - 1 all red and those at 0 no longer all blue;
        # red -> blue makes copies at 1 all blue and those at s no longer all
        # red.  An edgeless pattern (s = 0) has no copy through any edge.
        self._gain_loss = ((max(self.size - 1, 0), 0), (1, self.size))
        self.bits = 0
        self.red = np.zeros(self.copies, dtype=np.min_scalar_type(self.size))
        self.hist = None
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
        import numpy as np

        self.bits = bits
        red = self.red = self._red_counts([bits])[:, 0]
        self._edge = -1
        if not self._gather:  # row by row, so no (copies, s) temporary
            self.hist = np.stack([
                np.bincount(red.take(row), minlength=self.size + 1) for row in self.rows
            ])
        return int(np.count_nonzero(red == 0) + np.count_nonzero(red == self.size))

    def delta(self, e: int) -> int:
        """Change in the count if edge e flipped color."""
        gain, loss = self._gain_loss[self.bits >> e & 1]
        if not self._gather:
            return self.hist.item(e, gain) - self.hist.item(e, loss)
        g = self._gathered = self.red.take(self.rows[e])
        self._edge = e
        b = g.tobytes()
        return b.count(gain) - b.count(loss)

    def flip(self, e: int) -> None:
        """Flip edge e, reusing the copy counts the last ``delta(e)`` gathered."""
        row = self.rows[e]
        g = self._gathered if self._edge == e else self.red.take(row)
        down = self.bits >> e & 1  # red -> blue: every count through e drops
        if not self._gather:
            import numpy as np

            # each edge of each copy through e leaves cell r for r -/+ 1,
            # within its own block of s + 1 cells since 0 < r (or r < s)
            s1 = self.size + 1
            cells = self.edges.take(row, axis=0).astype(self._cell_dtype)
            cells *= s1
            cells += g[:, None]
            moved = np.bincount(cells.ravel(), minlength=self.nbits * s1)
            hist = self.hist.reshape(-1)
            hist -= moved
            if down:
                hist[:-1] += moved[1:]
            else:
                hist[1:] += moved[:-1]
        if down:
            g -= 1
        else:
            g += 1
        self.red[row] = g
        self.bits ^= 1 << e
        self._edge = -1


def _finish(
    pattern: Pattern,
    n: int,
    best: int,
    candidates: Iterable[int],
    exact: bool,
    explored: int,
    method: str,
) -> MinimizationResult:
    """The result whose witness is the least serialized of the tied
    ``candidates`` (red bits), once the DP counter has recounted it."""
    witness = min((EdgeColoring(n, bits) for bits in candidates), key=EdgeColoring.serialize)
    check = count_mono(witness, pattern)
    if check != best:
        raise AssertionError(f"witness recount mismatch: {method} said {best}, DP says {check}")
    return MinimizationResult(pattern, n, best, witness, exact, explored, method)


# ---------------------------------------------------------------------------
# exhaustive minimization
# ---------------------------------------------------------------------------

def canonical_graph_reps(n: int) -> list[tuple[int, ...]]:
    """One canonically labeled representative per graph-isomorphism class on
    n vertices, as adjacency masks, in sorted order.

    The canonical labeling is the one with the least column-major adjacency
    string (``coloring._least_labeling``).  Its first m-1 rows are the
    canonical form of the graph they induce: a smaller prefix would give a
    smaller string with the last vertex kept last.  So every class on m
    vertices is a representative on m-1 vertices plus one last row, and the
    levels are generated orderly (Read, 1978): each representative is
    extended by every row, and an extension is kept only if it is already
    canonical: ``_least_labeling(adj, m, own=True)`` finds no smaller row
    than adj's own.  Each class arises once, with no relabeling and no
    deduplication.  Guarded to n <= CLASS_REPS_MAX_N before any level is
    built.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > CLASS_REPS_MAX_N:
        raise CapabilityError(f"canonical_graph_reps limited to n <= {CLASS_REPS_MAX_N} (got {n})")
    reps: list[tuple[int, ...]] = [()]
    for m in range(1, n + 1):
        level = []
        for adj in reps:
            for ext in range(1 << (m - 1)):  # ext: the last vertex's neighbours
                adj2 = tuple(a | (ext >> i & 1) << (m - 1) for i, a in enumerate(adj)) + (ext,)
                if _least_labeling(adj2, m, own=True) is not None:
                    level.append(adj2)
        reps = level
    return sorted(reps)


@lru_cache(maxsize=None)
def _extension_states(n: int) -> tuple[int, ...]:
    """Red bits of each class representative on n-1 vertices, embedded in
    K_n with every edge at vertex n-1 blue; built once per process."""
    return tuple(_bits_from_adj(adj, n) for adj in canonical_graph_reps(n - 1))


def exhaustive_min(pattern: Pattern, n: int) -> MinimizationResult:
    """Exact minimum of count_mono over all colorings of K_n (n <= 7).

    Sweeps by vertex extension.  Counts are invariant under relabeling, and
    every coloring of K_n restricted to vertices 0..n-2 is isomorphic to a
    representative r of ``canonical_graph_reps(n - 1)`` (built once per n
    and process), so it suffices to try each r with each red neighbourhood
    N of the last vertex v = n-1.
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
        return _finish(pattern, 0, 0, [0], True, 1, method)
    import numpy as np

    engine = _CopyEngine(pattern, n)
    v = n - 1
    states = _extension_states(n)
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
    tied = (
        states[r] | sum(1 << spoke[i] for i in range(v) if h >> i & 1)
        for h, r in zip(hoods.tolist(), reps.tolist())
    )
    return _finish(pattern, n, best, tied, True, counts.size, method)


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

def _anneal_restart(
    engine: _CopyEngine, seed: int, config: SearchConfig, initial_bits: int | None
) -> tuple[int, int]:
    rng = Random(seed)
    nbits = engine.nbits
    bits = rng.getrandbits(nbits) if initial_bits is None and nbits else (initial_bits or 0)
    cur = engine.start(bits)
    best, best_bits = cur, bits
    temp = config.initial_temperature
    for _ in range(config.steps_per_restart if nbits else 0):
        e = rng.randrange(nbits)
        d = engine.delta(e)
        if d <= 0 or rng.random() < math.exp(-d / temp):
            engine.flip(e)
            cur += d
            if cur < best:
                best, best_bits = cur, engine.bits
        temp *= config.cooling_rate
    return best, best_bits


def anneal_min(
    pattern: Pattern,
    n: int,
    config: SearchConfig,
    initial: EdgeColoring | None = None,
) -> MinimizationResult:
    """Simulated-annealing upper bound on the minimum monochromatic count.

    Single-edge-flip proposals with Metropolis acceptance and geometric
    cooling; restart i runs from an independent random start (or from
    ``initial`` if given) under seed derived from (config.seed, i).  The
    engine is built once and every restart runs on it in turn.  The
    returned best_count is re-verified against the DP counter.
    """
    config.validate()
    if initial is not None and initial.n != n:
        raise DomainError("initial coloring has the wrong vertex count")
    engine = _CopyEngine(pattern, n)
    init_bits = initial.red_bits if initial is not None else None
    outcomes = [
        _anneal_restart(engine, job_seed(config.seed, i), config, init_bits)
        for i in range(config.restarts)
    ]
    best = min(cnt for cnt, _ in outcomes)
    tied = (bits for cnt, bits in outcomes if cnt == best)
    return _finish(
        pattern, n, best, tied, False, config.restarts * config.steps_per_restart, "anneal"
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
