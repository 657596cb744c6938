"""Minimizing monochromatic pattern counts over colorings of K_n.

Both searches count from one copy list: ``_copy_edges`` lists the edges of
each copy of the pattern in K_n once, by vertex extension, and
``_red_counts`` gives each copy's red-edge count in a batch of colorings.
A copy with s edges is monochromatic when its count is 0 or s, and an
edgeless copy is both, so it counts once in each color.  Colorings are
Python integers, so no host size is capped by a machine word.

* ``exhaustive_min`` -- exact minimum by vertex extension.  It takes one
  representative per graph-isomorphism class on n-1 vertices and every red
  neighbourhood N of the last vertex: one ``_red_counts`` pass over the copy
  list and two subset-sum tables, red read at N and blue at ~N, count every
  copy in all those extensions at once; the count is relabeling-invariant.
* ``canonical_graph_reps`` -- the class representatives, by orderly
  generation.  A representative is the labeling with the least
  column-major adjacency string, and that form has a prefix property: its
  first m-1 rows are the representative of the graph they induce.  So each
  level extends every representative on m-1 vertices by a last row and
  keeps the extensions that are already canonical; nothing is relabeled or
  deduplicated.  A last row that an automorphism of the representative
  makes smaller, or whose first p bits are below the representative's row
  p, cannot be canonical and is dropped before the canonicity test.
* ``anneal_min`` -- simulated annealing with single-edge-flip moves and
  restarts, exact=False, run in turn on one ``_CopyEngine``, which also
  lists the copies through each edge.  Deterministic for a fixed config:
  restart i uses a seed derived from (config.seed, i) with a stable hash.
  A proposal reads one delta that the engine keeps, O(1) on every host; an
  accepted flip costs O(c_e * s) for c_e copies per edge of s edges each.

Witness tie-break everywhere: the serialized form that is lexicographically
least among optimal colorings found.  numpy is imported by the searches,
not by the package.
"""

from __future__ import annotations

import math
import numbers
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
    split_coloring,
)
from .counting import Pattern, count_mono, total_copies_in_complete
from .errors import CapabilityError, DomainError
from .formulas import RamseyValue, r_cycle, r_path
from .structure import _bit_matrix

EXHAUSTIVE_MAX_N = 7
# nothing in the package branches on this since every n sweeps by vertex
# extension; perfbench/workloads.py names its exhaustive spans by it
RAW_ENUM_MAX_N = 6
# n = 8 (12,346 classes from 17,637 canonicity tests) takes 1.7-1.8 s on a
# shared two-core host, Python 3.11; n = 9 would run at least 274,668, one per class
CLASS_REPS_MAX_N = 8
# ENGINE_CELL_BUDGET caps copies * s copy-edge cells (edges, the sort keys that
# become inc, the cell blocks) plus nbits * (s + 1) histogram cells.  Build and
# first start add to numpy's 34 MB 12 bytes a cell on P_8/11 (23 M cells: 1.9 s,
# 314 MB max RSS) and 17-18 on P_2/4000 and S_1/3500 (24 M: 448 and 485 MB), so
# an engine stays near 0.5 GB.  Below 2**32, 32 bits of a sort key hold a cell.
ENGINE_CELL_BUDGET = 25_000_000
# an accepted flip on rows of c_e copies of s edges makes c_e * s updates to
# each delta array: up to _LIST_FLIP_MAX in Python lists, more by numpy.  ms a
# restart, numpy vs lists: K3/12 (c_e * s = 30) 12-15 vs 5.6-5.8, C_4/10 (224)
# 4.7-5.2 vs 7.7-8.9, C_4/12 (360) 2.2-3.4 vs 3.1-3.3, C_5/9 (1,050) 4.2-4.7 vs
# 18-20.  The lists take about 80 bytes a cell by tracemalloc (P_2/500: 374 k
# cells, 28 MB), so they serve s >= 2 only, where c_e grows with n and list
# rows end by K3/44 (43,516 cells).
# Past _SKIP_FLIP_MIN, with s >= 5, numpy first drops the copies whose move
# changes no delta; its extra calls cost about 5 us a flip, which shorter
# rows do not win back (K4/14: 10 us a flip without, 15 us with; P_7/9:
# 380 us without, 190 us with).  All measured on a shared two-core host.
_LIST_FLIP_MAX = 128
_SKIP_FLIP_MIN = 4096


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
        for name in ("initial_temperature", "cooling_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a real number, not {value!r}")
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


def _copy_edges(pattern: Pattern, n: int):
    """(copies, s) array: the edges of each copy of the pattern in K_n,
    ascending in each row, the copies in ``copy_edge_masks`` order.

    Copies are sequences of distinct vertices, extended a position at a time
    in lexicographic order.  ``table`` gives each position i >= 1 the earlier
    positions it joins and those it must exceed, so each copy comes once: a
    path from its smaller end, a cycle from its least vertex towards its
    smaller neighbour, a star's leaves ascending, a clique ascending."""
    import numpy as np

    kind, last = pattern.kind, pattern.vertex_count - 1
    if kind == "path":
        table = [([i - 1], [0] if i == last else []) for i in range(1, last + 1)]
    elif kind == "cycle":
        table = [([i - 1], [0]) for i in range(1, last)] + [([0, last - 1], [1])]
    elif kind == "star":
        table = [([0], [i - 1] if i > 1 else []) for i in range(1, last + 1)]
    else:
        table = [(list(range(i)), [i - 1]) for i in range(1, last + 1)]
    grid = np.arange(n, dtype=np.min_scalar_type(n))
    verts = grid[:, None]
    for _, above in table:
        free = np.ones((len(verts), n), dtype=bool)
        free[np.arange(len(verts))[:, None], verts] = False  # no vertex twice
        for j in above:
            free &= grid > verts[:, j, None]
        w = np.broadcast_to(grid, free.shape)[free]  # row-major: sequences stay in order
        verts = np.column_stack((verts.repeat(free.sum(axis=1), axis=0), w))
    pairs = np.zeros((n, n), np.min_scalar_type(pair_count(n)))
    u, w = np.triu_indices(n, 1)  # every pair {u < w}, in pair_index order
    pairs[u, w] = pairs[w, u] = np.arange(len(u))
    ends = [(j, i) for i, (joins, _) in enumerate(table, 1) for j in joins]
    # take keeps (copies, s) row-major: the flip kernel gathers whole rows
    edges = pairs[verts.take([a for a, _ in ends], 1), verts.take([b for _, b in ends], 1)]
    edges.sort(axis=1)
    return edges


def _red_counts(edges, nbits: int, states: Sequence[int]):
    """(copies, len(states)) red-edge counts of ``edges``, a column per
    coloring, from the states' red bits read by ``_bit_matrix``."""
    import numpy as np

    bits = np.ascontiguousarray(_bit_matrix(states, nbits).T)  # bit e of states[j] at [e, j]
    red = np.zeros((len(edges), len(states)), dtype=np.min_scalar_type(edges.shape[1]))
    for column in edges.T:  # the j-th edge of every copy
        red += bits.take(column, axis=0)
    return red


class _CopyEngine:
    """Annealing walker over the copy-edge incidence of a pattern in K_n.

    ``edges[c]`` lists the s edges of copy c.  K_n is edge-transitive, so
    every edge lies in the same number c_e of copies, listed in row e of the
    (C(n,2), c_e) array ``inc``.  ``start`` and ``flip`` walk one coloring an
    edge at a time.

    The walk keeps the delta of every move: ``rise[e]`` is the change in the
    count if edge e turns red, ``fall[e]`` if it turns blue.  A copy with r
    red edges adds UP[r] = [r = s - 1] - [r = 0] to ``rise`` and
    DOWN[r] = [r = 1] - [r = s] to ``fall`` at each of its edges, so a
    proposal reads one value.  ``start`` projects a transient histogram of
    the copies through each edge by red count onto (UP, DOWN).  An accepted
    flip moves each copy through e one red count up or down, which changes
    both terms at each of its edges by a row of ``_change``, by one of two
    kernels: rows with c_e * s <= _LIST_FLIP_MAX and s >= 2 in Python lists,
    others by one numpy ``bincount`` of the moves by (edge, red count)
    times that table.  On rows with c_e * s > _SKIP_FLIP_MIN and s >= 5 the
    numpy kernel first drops the moves that change no delta.  A host whose
    copy-edge and histogram cells exceed ENGINE_CELL_BUDGET is refused
    before any copy is listed.
    """

    def __init__(self, pattern: Pattern, n: int):
        s, nbits = pattern.edge_count, pair_count(n)
        copies = total_copies_in_complete(n, pattern)
        cells = copies * s + nbits * (s + 1)
        if cells > ENGINE_CELL_BUDGET:
            raise CapabilityError(
                f"copy engine too large: estimated {copies:,} copies of {pattern.label} "
                f"in K_{n} ({copies * s:,} copy-edge cells and {nbits * (s + 1):,} "
                f"histogram cells), budget {ENGINE_CELL_BUDGET:,} cells"
            )
        import numpy as np

        self.edges = _copy_edges(pattern, n)
        self.copies, self.size, self.nbits = copies, s, nbits
        width = copies * s // max(nbits, 1)
        # one key per copy-edge cell, edge << 32 | its index in edges.ravel(),
        # built a column at a time: the keys are distinct, so sorting them in
        # place lists every edge's copies in increasing order, at 8 bytes a cell
        key = np.arange(copies * s, dtype=np.uint64).reshape(copies, s)
        for j, column in enumerate(self.edges.T):
            key[:, j] |= np.left_shift(column, 32, dtype=np.uint64)
        key = key.ravel()
        key.sort()
        key &= 0xFFFFFFFF
        key //= max(s, 1)
        self.inc = key.view(np.intp).reshape(nbits, width)
        self.lists = s >= 2 and width * s <= _LIST_FLIP_MAX
        self.skip = s >= 5 and width * s > _SKIP_FLIP_MIN
        # each copy's edges as cell blocks of the (edge, red count) histogram
        self._base = self.edges.astype(np.min_scalar_type(nbits * (s + 1)))
        self._base *= s + 1
        # UP[r] and DOWN[r] by red count r, and the change a copy at r makes
        # to them moving down (_change[0]) or up (_change[1]); the padding
        # gives the moves no copy makes, below 0 and above s, no change
        r = np.arange(s + 1)
        terms = self._terms = np.stack(((r == s - 1) * 1 - (r == 0), (r == 1) * 1 - (r == s)))
        pad = np.pad(terms, ((0, 0), (1, 1)), mode="edge")
        self._change = np.stack((pad[:, :-2], pad[:, 2:])) - terms
        self._rows = None  # the list kernel's inc, edges and changes, built by its first start

    def start(self, bits: int) -> int:
        """Make ``bits`` the current coloring; returns its monochromatic count."""
        import numpy as np

        s1 = self.size + 1
        if self.lists and self._rows is None:
            changes = [change.T.tolist() for change in self._change]
            self._rows = self.inc.tolist(), self.edges.tolist(), changes
        self.bits = bits
        red = self.red = _red_counts(self.edges, self.nbits, [bits])[:, 0]
        # an edge of the copies at a time, so no (copies, s) temporary
        hist = np.zeros(self.nbits * s1, dtype=np.intp)
        for column in self._base.T:
            hist += np.bincount(column + red, minlength=len(hist))
        delta = self._terms @ hist.reshape(self.nbits, s1).T  # rows rise and fall
        if self.lists:
            self.red = red.tolist()
            self.rise, self.fall = delta.tolist()
        else:
            # the numpy kernel adds to delta in place; memoryviews read it as ints
            self.delta = delta
            self.rise, self.fall = map(memoryview, delta)
        return int(np.count_nonzero(red == 0) + np.count_nonzero(red == self.size))

    def flip(self, e: int) -> None:
        """Flip edge e: every copy through it gains (or loses) a red edge."""
        up = ~self.bits >> e & 1  # 1 if e turns red, an index into _change
        self.bits ^= 1 << e
        s, red = self.size, self.red
        if self.lists:
            rows, edges, change = self._rows
            rise, fall, change, step = self.rise, self.fall, change[up], 1 if up else -1
            for c in rows[e]:
                r = red[c]
                red[c] = r + step
                du, dd = change[r]
                for f in edges[c]:
                    rise[f] += du
                    fall[f] += dd
            return
        import numpy as np

        row = self.inc[e]
        g = red.take(row)
        red[row] = g + 1 if up else g - 1
        if self.skip:
            # keep the moves that change a delta: r in {0, 1, s - 2, s - 1}
            # going up, r in {1, 2, s - 1, s} going down
            low, high = (1, s - 2) if up else (2, s - 1)
            kept = np.flatnonzero((g <= low) | (g >= high))
            row, g = row.take(kept), g.take(kept)
        cells = self._base.take(row, axis=0)
        cells += g.astype(cells.dtype)[:, None]
        moved = np.bincount(cells.ravel(), minlength=self.nbits * (s + 1))
        self.delta += self._change[up] @ moved.reshape(self.nbits, s + 1).T


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

def _bit_table(bits: Sequence[int]) -> list[int]:
    """table[x]: the OR of bits[b] over the set bits b of x."""
    table = [0]
    for bit in bits:
        table += [t | bit for t in table]
    return table


def canonical_graph_reps(n: int) -> list[tuple[int, ...]]:
    """One canonically labeled representative per graph-isomorphism class on
    n vertices, as adjacency masks, in sorted order.

    The canonical labeling is the one with the least column-major adjacency
    string (``coloring._least_labeling``).  Its first m-1 rows are the
    canonical form of the graph they induce: a smaller prefix would give a
    smaller string with the last vertex kept last.  So every class on m
    vertices is a representative on m-1 vertices plus one last row, and the
    levels are generated orderly (Read, 1978): each representative is
    extended by a row, and an extension is kept only if it is already
    canonical: ``_least_labeling(adj, m, own=True)`` finds no smaller row
    than adj's own.  Each class arises once, with no relabeling and no
    deduplication.  Guarded to n <= CLASS_REPS_MAX_N before any level is
    built.

    Two rules drop, by table reads and with no descent, extensions that the
    test would reject; each exhibits a labeling with a smaller string.

    * Orbit rule (McKay, 1998): each representative keeps the generators of
      its automorphism group that its own canonicity test returned.  A
      generator maps the representative to itself, so if it moves the new
      vertex's row r to a smaller row, relabeling by it keeps the first m-1
      rows and makes the last one smaller.
    * Identity-path rule: if the first p bits of r (the new vertex's edges
      to positions 0..p-1) are below the representative's row p, placing
      the new vertex at position p keeps rows 0..p-1 and makes row p
      smaller.  So only rows r >= row_p << (m-1-p) for every p are tried.

    Only the automorphism property of the generators matters for
    correctness; a generating set only makes the orbit rule drop more.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > CLASS_REPS_MAX_N:
        raise CapabilityError(f"canonical_graph_reps limited to n <= {CLASS_REPS_MAX_N} (got {n})")
    # each representative with its own rows and generators of its group
    level: list[tuple[tuple[int, ...], tuple[int, ...], list[list[int]]]] = [((), (), [])]
    for k in range(n):  # extend representatives on k vertices by vertex k
        # row r holds the edge to position q at bit k-1-q; rev[r] is its mask
        rev = _bit_table([1 << (k - 1 - q) for q in range(k)])
        nxt = []
        for adj, rows, gens in level:
            # the row after a generator moves position v to g[v]
            images = [_bit_table([1 << (k - 1 - g[k - 1 - b]) for b in range(k)]) for g in gens]
            lo = max((row << (k - p) for p, row in enumerate(rows)), default=0)
            for r in range(lo, 1 << k):
                if any(img[r] < r for img in images):
                    continue
                ext = rev[r]
                adj2 = tuple(a | (ext >> i & 1) << k for i, a in enumerate(adj)) + (ext,)
                gens2 = _least_labeling(adj2, k + 1, own=True)
                if gens2 is not None:
                    nxt.append((adj2, rows + (r,), gens2))
        level = nxt
    return sorted(adj for adj, _, _ in level)


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
    One ``_red_counts`` pass over the r, with every edge at v blue, gives each
    copy's red-edge count, and then

        count(r, N) = zeta(R_r)[N] + zeta(B_r)[~N]

    R_r[S] (B_r[S]) counts the copies whose edges at v go to S and whose
    other edges are all red (all blue); zeta sums over the subsets of N.  A
    copy with no edge at v has S empty, inside every N and every ~N.
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

    edges, s, nbits = _copy_edges(pattern, n), pattern.edge_count, pair_count(n)
    v, states = n - 1, _extension_states(n)
    spoke = [pair_index(n, i, v) for i in range(v)]
    at_v = np.zeros(nbits, dtype=np.intp)
    at_v[spoke] = 1 << np.arange(v)
    at = at_v[edges]
    hood = at.sum(axis=1)  # the neighbours of v in each copy, as a bitmask
    red = _red_counts(edges, nbits, states)
    others = s - np.count_nonzero(at, axis=1)  # the edges of each copy off v

    def zeta(mono):
        """Row N, column r: the copies counted by mono with S a subset of N."""
        c, r = np.divmod(np.flatnonzero(mono), len(states))
        table = np.bincount(hood[c] * len(states) + r, minlength=len(states) << v)
        table = table.reshape(1 << v, -1)
        for i in range(v):
            half = table.reshape(-1, 2, 1 << i, len(states))
            half[:, 1] += half[:, 0]
        return table

    counts = zeta(red == others[:, None]) + zeta(red == 0)[::-1]
    best = int(counts.min())
    tied = (
        states[r] | sum(1 << spoke[i] for i in range(v) if h >> i & 1)
        for h, r in np.argwhere(counts == best).tolist()
    )
    return _finish(pattern, n, best, tied, True, counts.size, method)


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

def _anneal_restart(
    engine: _CopyEngine, seed: int, config: SearchConfig, initial_bits: int | None
) -> tuple[int, int]:
    rng = Random(seed)
    nbits, s = engine.nbits, engine.size
    bits = rng.getrandbits(nbits) if initial_bits is None and nbits else (initial_bits or 0)
    cur = engine.start(bits)
    best, best_bits = cur, bits
    temp, cooling = config.initial_temperature, config.cooling_rate
    rise, fall, flip, exp = engine.rise, engine.fall, engine.flip, math.exp
    getrandbits, random = rng.getrandbits, rng.random
    k = nbits.bit_length()
    # a copy of at most one edge is always monochromatic: with no copy of two
    # or more edges every delta is 0, so no step can improve the start
    for _ in range(config.steps_per_restart if engine.copies and s >= 2 else 0):
        # rng.randrange(nbits), drawn as Random._randbelow_with_getrandbits does
        e = getrandbits(k)
        while e >= nbits:
            e = getrandbits(k)
        d = fall[e] if bits >> e & 1 else rise[e]
        # a temperature that underflowed to 0.0 takes no uphill move, but each
        # still draws its random(), so the stream stays the same
        if d <= 0 or random() < (exp(-d / temp) if temp else 0.0):
            flip(e)
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

def _locate(
    pattern: Pattern, n_max: int, config: SearchConfig | None
) -> tuple[RamseyValue, MinimizationResult | None]:
    """`ramsey_via_search`'s answer, with the exhaustive result at n = r(H)
    when that search decided r(H)."""
    vc = pattern.vertex_count
    lower = vc  # r(H) >= vertex count: smaller hosts carry no copy at all
    for n in range(vc, n_max + 1):
        if n <= EXHAUSTIVE_MAX_N:
            res = exhaustive_min(pattern, n)
            if res.best_count > 0:
                return RamseyValue(pattern, n, n, "search"), res
            lower = n + 1
            continue
        found_zero = any(count_mono(split_coloring(a, n - a), pattern) == 0 for a in range(n + 1))
        if not found_zero and config is not None:
            found_zero = anneal_min(pattern, n, config).best_count == 0
        if not found_zero:
            return RamseyValue(pattern, lower, None, "search"), None
        lower = n + 1
    return RamseyValue(pattern, lower, None, "search"), None


def ramsey_via_search(
    pattern: Pattern, n_max: int, config: SearchConfig | None = None
) -> RamseyValue:
    """Locate r(H) by certified search up to n_max.

    Exhaustive minimization decides each n <= 7 outright.  Beyond that, only
    zero-count witnesses can certify r(H) > n; the sweep tries split
    colorings chi(a, b) and, when a config is supplied, annealing.  A
    positive heuristic minimum certifies nothing, so the scan stops there
    with ``value`` None and only ``lower`` certified.  ``value`` is set when
    an exhaustive zero at value - 1 (or value - 1 below the pattern size)
    and a positive exhaustive minimum at value pin it.
    """
    return _locate(pattern, n_max, config)[0]


def threshold_multiplicity(
    pattern: Pattern, config: SearchConfig | None = None
) -> MinimizationResult:
    """The search result at n = r(H), whose ``best_count`` is the threshold
    Ramsey multiplicity and whose witness attains it.

    r comes from the closed forms for paths with k >= 2 and cycles and from
    certified search otherwise, whose sweep ends with the result at n = r,
    returned as it is.  ``exhaustive_min`` is exact for r <= 7; above that
    ``anneal_min`` with the caller's config gives an upper bound
    (exact=False), and no config is a CapabilityError.
    """
    if pattern.kind == "path" and pattern.k >= 2:
        r = r_path(pattern.k).value
    elif pattern.kind == "cycle":
        r = r_cycle(pattern.k).value
    else:
        # the search decides r only within the exhaustive range
        deciding = _locate(pattern, EXHAUSTIVE_MAX_N, None)[1]
        if deciding is None:
            raise CapabilityError(
                f"cannot certify r({pattern.label}) within the exhaustive range"
            )
        return deciding
    if r <= EXHAUSTIVE_MAX_N:
        return exhaustive_min(pattern, r)
    if config is None:
        raise CapabilityError(
            f"r({pattern.label}) = {r} > {EXHAUSTIVE_MAX_N}: supply a SearchConfig "
            "to compute an annealed upper bound"
        )
    return anneal_min(pattern, r, config)
