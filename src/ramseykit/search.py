"""Minimizing monochromatic pattern counts over colorings of K_n.

Both searches list the copies of the pattern in K_n once, by vertex
extension from one per-kind table (``_extension_table``): ``_copy_edges``
as a numpy array of each copy's edges for annealing, ``_walk_copies`` as a
stream of Python ints for the exhaustive sweep.  A copy with s edges is
monochromatic when its red-edge count is 0 or s, and an edgeless copy is
both, so it counts once in each color.  Colorings are Python integers, so
no host size is capped by a machine word.

* ``exhaustive_min`` -- exact minimum by vertex extension, for
  n <= EXHAUSTIVE_MAX_N = 9, one past the class table.  It takes one
  representative per graph-isomorphism class on n-1 vertices and every red
  neighbourhood N of the last vertex, and counts all of those extensions at
  once in Python ints bit-sliced over the classes, bit j for class j: each
  copy's all-red and all-blue class sets go into a counter for its hood
  (its neighbours of that vertex), one int per count bit, and subset sums
  over the hoods read red at N and blue at ~N.  All the classes of one n
  fit in one int, so there are no batches, and the sweep loads no numpy;
  the count is relabeling-invariant.  The class table (``_class_table``) is
  in witness order, bit j the j-th least serialized class, so each N at the
  best count hands ``_finish`` one candidate, its lowest tied class joined
  to N.
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
  Deltas depend only on the coloring, so a flip back to a coloring the
  restart has already been in costs O(c_e): it moves the red counts and
  restores that coloring's deltas, kept on hosts where their 2 * C(n,2)
  cells are no more than the c_e * s a flip updates.

Witness tie-break everywhere: the serialized form that is lexicographically
least among optimal colorings found.  Annealing loads numpy through
``graph._numpy`` on its first call, with one BLAS thread unless the
caller set a thread variable or imported numpy first; importing the package
and the exhaustive sweep load none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Sequence

from .coloring import (
    EdgeColoring,
    _bits_from_adj,
    _least_labeling,
    job_seed,
    pair_count,
    pair_index,
    payload_bytes,
    split_coloring,
)
from .counting import Pattern, count_mono, total_copies_in_complete
from .errors import CapabilityError, DomainError
from .graph import _bit_matrix, _numpy

# nothing in the package branches on this since every n sweeps by vertex
# extension; perfbench/workloads.py names its exhaustive spans by it
RAW_ENUM_MAX_N = 6
# n = 8 (12,346 classes from 17,637 canonicity tests) takes 1.7-1.8 s on a
# shared two-core host, Python 3.11; n = 9 would run at least 274,668, one per class
CLASS_REPS_MAX_N = 8
# the sweep on K_n extends the classes on n - 1 vertices, all of them in one
# int per count bit, so only the class table limits it
EXHAUSTIVE_MAX_N = CLASS_REPS_MAX_N + 1
# ENGINE_CELL_BUDGET caps copies * s copy-edge cells (edges, the sort keys that
# become inc, the cell blocks) plus nbits * (s + 1) histogram cells; a walk's
# memo of the deltas of colorings seen, 2 * nbits cells each, clears before its
# cells and these pass the budget.  Build and
# first start add to numpy's 34 MB 12 bytes a cell on P_8/11 (23 M cells: 1.9 s,
# 314 MB max RSS) and 17-18 on P_2/4000 and S_1/3500 (24 M: 448 and 485 MB), so
# an engine stays near 0.5 GB.  Below 2**32, 32 bits of a sort key hold a cell.
# It bounds the annealing engine only: the exhaustive sweep holds no copy list.
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


def _extension_table(pattern: Pattern) -> list[tuple[list[int], int | None]]:
    """How copies are listed.  Copies are sequences of distinct vertices,
    extended a position at a time in lexicographic order; entry i - 1 gives
    position i >= 1 the earlier positions it joins and the one it must
    exceed (None: none), so each copy comes once: a path from its smaller
    end, a cycle from its least vertex towards its smaller neighbour, a
    star's leaves ascending, a clique ascending."""
    kind, last = pattern.kind, pattern.vertex_count - 1
    if kind == "path":
        return [([i - 1], 0 if i == last else None) for i in range(1, last + 1)]
    if kind == "cycle":
        return [([i - 1], 0) for i in range(1, last)] + [([0, last - 1], 1)]
    if kind == "star":
        return [([0], i - 1 if i > 1 else None) for i in range(1, last + 1)]
    return [(list(range(i)), i - 1) for i in range(1, last + 1)]


def _copy_edges(pattern: Pattern, n: int):
    """(copies, s) array: the edges of each copy of the pattern in K_n,
    ascending in each row, the copies in ``copy_edge_masks`` order, listed
    by ``_extension_table`` a position at a time for every copy at once."""
    np = _numpy()

    table = _extension_table(pattern)
    grid = np.arange(n, dtype=np.min_scalar_type(n))
    verts = grid[:, None]
    for _, above in table:
        free = np.ones((len(verts), n), dtype=bool)
        free[np.arange(len(verts))[:, None], verts] = False  # no vertex twice
        if above is not None:
            free &= grid > verts[:, above, None]
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


def _extend(nodes, joins: list[int], above: int | None, free: list[list[int]], row):
    """One position of ``_walk_copies``: each partial copy (vertices, used
    mask, OR so far) extended by every vertex the table allows, in order."""
    for verts, used, acc in nodes:
        lo = -1 if above is None else verts[above]
        for w in free[used]:
            if w > lo:
                a = acc
                for j in joins:
                    a |= row[verts[j]][w]
                yield verts + (w,), used | 1 << w, a


def _walk_copies(pattern: Pattern, n: int, weight: Sequence[int]) -> Iterator[int]:
    """The OR of ``weight[e]`` over the edges e of each copy of the pattern
    in K_n, copy by copy in ``_copy_edges`` order: with weight[e] = 1 << e,
    each copy's edge mask.

    The same extension by ``_extension_table`` as ``_copy_edges``, depth
    first, so a partial copy's OR is taken once for all its extensions and
    no copy list is held.  ``row[u][w]`` is the weight of edge {u, w} and
    ``free[used]`` the vertices outside the mask ``used``, ascending: 2^n
    lists, built for the sweep's n <= EXHAUSTIVE_MAX_N."""
    row = [[weight[pair_index(n, u, w)] if u != w else 0 for w in range(n)] for u in range(n)]
    free = [[w for w in range(n) if not used >> w & 1] for used in range(1 << n)]
    nodes = (((w,), 1 << w, 0) for w in range(n))
    for joins, above in _extension_table(pattern):
        nodes = _extend(nodes, joins, above, free, row)
    return (acc for _, _, acc in nodes)


def _red_counts(edges, nbits: int, bits: int):
    """Red-edge count of each copy of ``edges`` in the coloring ``bits``."""
    np = _numpy()

    bit = _bit_matrix([bits], nbits)[0]  # bit e of bits at [e]
    red = np.zeros(len(edges), dtype=np.min_scalar_type(edges.shape[1]))
    for column in edges.T:  # the j-th edge of every copy
        red += bit.take(column)
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
    others by numpy.  On rows with c_e * s > _SKIP_FLIP_MIN and s >= 5 the
    numpy kernel first drops the moves that change no delta.  It then adds
    each moved copy's change at its own edges when the moved copy-edge
    cells are fewer than the C(n,2) edges, and otherwise projects one
    ``bincount`` of the moves by (edge, red count) through that table.

    The deltas are a function of the coloring, so where restoring them is
    no more work than a flip (2 * C(n,2) <= c_e * s, ``memo``), each walk
    keeps a snapshot of the deltas of every coloring it reaches by a flip.
    A flip back to one of them moves the red counts and copies the
    snapshot in place of the kernel; ``start`` empties the memo, and it
    clears before its cells and the engine's pass ENGINE_CELL_BUDGET.  A
    host whose copy-edge and histogram cells exceed the budget is refused
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
        np = self._np = _numpy()  # start and flip read it here, not by a call

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
        # the memo's entries, 2 * nbits cells each, share the engine's budget
        self._seen_max = (ENGINE_CELL_BUDGET - cells) // max(2 * nbits, 1)
        self.memo = 0 < 2 * nbits <= width * s and self._seen_max > 0
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
        np = self._np

        s1 = self.size + 1
        if self.lists and self._rows is None:
            changes = [change.T.tolist() for change in self._change]
            self._rows = self.inc.tolist(), self.edges.tolist(), changes
        self.bits = bits
        self._seen = {} if self.memo else None  # coloring bits -> its deltas
        red = self.red = _red_counts(self.edges, self.nbits, bits)
        # an edge of the copies at a time, so no (copies, s) temporary
        hist = np.zeros(self.nbits * s1, dtype=np.intp)
        for column in self._base.T:
            hist += np.bincount(column + red, minlength=len(hist))
        delta = self._terms @ hist.reshape(self.nbits, s1).T  # rows rise and fall
        if self.lists:
            self.red = red.tolist()
            self.rise, self.fall = delta.tolist()
        else:
            # the numpy kernel adds to delta in place; memoryviews read it as
            # ints, and its raw bytes are what the memo keeps and restores
            self.delta = delta
            self.rise, self.fall = map(memoryview, delta)
            self._raw = memoryview(delta.reshape(-1).view(np.uint8))
        return int(np.count_nonzero(red == 0) + np.count_nonzero(red == self.size))

    def flip(self, e: int) -> None:
        """Flip edge e: every copy through it gains (or loses) a red edge."""
        up = ~self.bits >> e & 1  # 1 if e turns red, an index into _change
        bits = self.bits = self.bits ^ 1 << e
        s, red, seen = self.size, self.red, self._seen
        # a coloring this walk has been in has the deltas it had then
        known = seen.get(bits) if seen is not None else None
        if self.lists:
            rows, edges, change = self._rows
            rise, fall, change, step = self.rise, self.fall, change[up], 1 if up else -1
            if known is not None:
                for c in rows[e]:
                    red[c] += step
                rise[:], fall[:] = known
                return
            for c in rows[e]:
                r = red[c]
                red[c] = r + step
                du, dd = change[r]
                for f in edges[c]:
                    rise[f] += du
                    fall[f] += dd
            if seen is not None:
                if len(seen) >= self._seen_max:  # one more would pass the budget
                    seen.clear()
                seen[bits] = tuple(rise), tuple(fall)
            return
        np = self._np
        row = self.inc[e]
        g = red.take(row)
        red[row] = g + 1 if up else g - 1
        if known is not None:
            self._raw[:] = known
            return
        if self.skip:
            # keep the moves that change a delta: r in {0, 1, s - 2, s - 1}
            # going up, r in {1, 2, s - 1, s} going down
            low, high = (1, s - 2) if up else (2, s - 1)
            kept = np.flatnonzero((g <= low) | (g >= high))
            row, g = row.take(kept), g.take(kept)
        if len(row) * s < self.nbits:
            # fewer moved cells than edges: add each moved copy's change at
            # its own edges.  A moved cell costs add.at more than a histogram
            # cell costs the projection; us a flip, projection vs add.at:
            # K4/14 (396 moved cells, 91 edges) 12.0 vs 13.6, K4/20 (918, 190)
            # 9.8 vs 10.8, K3/60 (174, 1,770) 18.1 vs 6.8, K3/200 (594,
            # 19,900) 156 vs 12.1, on a shared two-core host
            at = self.edges.take(row, axis=0).ravel().astype(np.intp)  # add.at's fast path
            du, dd = self._change[up].take(g, axis=1).repeat(s, axis=1)
            np.add.at(self.delta[0], at, du)
            np.add.at(self.delta[1], at, dd)
        else:
            cells = self._base.take(row, axis=0)
            cells += g.astype(cells.dtype)[:, None]
            moved = np.bincount(cells.ravel(), minlength=self.nbits * (s + 1))
            self.delta += self._change[up] @ moved.reshape(self.nbits, s + 1).T
        if seen is not None:
            if len(seen) >= self._seen_max:  # one more would pass the budget
                seen.clear()
            seen[bits] = bytes(self._raw)


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
    ``candidates`` (red bits), once the DP counter has recounted it.  The
    least is found by payload bytes, so only the winner is built."""
    witness = EdgeColoring(n, min(candidates, key=payload_bytes(n)))
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
def _class_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The classes the sweep on K_n extends, built once per process: the
    red bits of each class representative on n-1 vertices, embedded in K_n
    with every edge at vertex n-1 blue, in increasing serialized order, and
    for each edge e of K_n the int of the classes in which e is red, bit j
    for class j.  So bit j of a class set is the j-th least serialized."""
    nbits = pair_count(n)
    reps = (_bits_from_adj(adj, n) for adj in canonical_graph_reps(n - 1))
    states = sorted(reps, key=payload_bytes(n))
    # each state's bits as a string from edge 0 up (the top bit pads the
    # width); a column of these strings, read from class 0 up, is a plane
    rows = [format(bits | 1 << nbits, "b")[:0:-1] for bits in states]
    return tuple(states), tuple(int("".join(column)[::-1], 2) for column in zip(*rows))


def _sliced_add(a: list[int], b: list[int]) -> list[int]:
    """The sum of two bit-sliced counters, whose plane i holds bit i of the
    count of every class, with no zero top plane."""
    if len(a) < len(b):
        a, b = b, a
    out, carry = [], 0
    for i, x in enumerate(a):
        if i >= len(b) and not carry:  # the rest of a as it is
            out += a[i:]
            break
        y = b[i] if i < len(b) else 0
        out.append(x ^ y ^ carry)
        carry = x & y | (x ^ y) & carry
    out.append(carry)
    while out and not out[-1]:
        out.pop()
    return out


def _extension_counts(pattern: Pattern, n: int) -> Iterator[list[int]]:
    """count(r, N) for every class r of ``_class_table(n)``, as
    bit-sliced counters over the classes, one for each red neighbourhood N
    of v = n-1 in turn, N = 0 .. 2^(n-1) - 1.

    A copy of hood S (its neighbours of v) is red in the extension (r, N)
    when its edges off v are all red in r and S is inside N, and blue when
    they are all blue in r and S is inside ~N.  So each copy's all-red and
    all-blue class sets go into the counter of its hood, red in the low m
    bits of a plane and blue in the high m for m classes, and

        count(r, N) = zeta(red)[N] + zeta(blue)[~N]

    where zeta sums over the subsets of N, both halves in one pass.  A copy
    with no edge at v has S empty, inside every N and every ~N.  The copies
    stream from ``_walk_copies``, which ORs each copy's edge weights: an
    edge off v blue in class j bars the copy from all-red in j (bit j), a
    red one from all-blue (bit m + j), above the v bits where an edge at v
    sets the bit of its other end."""
    states, planes = _class_table(n)
    v, m = n - 1, len(states)
    every, both, hoods = (1 << m) - 1, (1 << 2 * m) - 1, (1 << v) - 1
    weight = [(every ^ red | red << m) << v for red in planes]
    for u in range(v):
        weight[pair_index(n, u, v)] = 1 << u
    counters: list[list[int]] = [[] for _ in range(1 << v)]
    for x in _walk_copies(pattern, n, weight):
        counter = counters[x & hoods]
        x = x >> v ^ both  # the classes where the copy is all red, all blue
        for i, p in enumerate(counter):  # add 1 at each of them, with carries
            counter[i] = p ^ x
            x &= p
            if not x:
                break
        else:
            if x:
                counter.append(x)
    for i in range(v):  # in place: counters[N] comes to count the hoods inside N
        for nbhd in range(1 << i, 1 << v):
            if nbhd >> i & 1 and counters[nbhd ^ 1 << i]:
                counters[nbhd] = _sliced_add(counters[nbhd], counters[nbhd ^ 1 << i])
    for nbhd in range(1 << v):
        red, blue = counters[nbhd], counters[hoods ^ nbhd]
        yield _sliced_add([p & every for p in red], [p >> m for p in blue])


def exhaustive_min(pattern: Pattern, n: int) -> MinimizationResult:
    """Exact minimum of count_mono over all colorings of K_n (n <= 9).

    Sweeps by vertex extension.  Counts are invariant under relabeling, and
    every coloring of K_n restricted to vertices 0..n-2 is isomorphic to a
    representative r of ``canonical_graph_reps(n - 1)`` (built once per n
    and process), so it suffices to try each r with each red neighbourhood
    N of the last vertex v = n-1.  ``_extension_counts`` gives the counts
    of every r at one N as bit planes in Python ints, with no numpy and no
    batches; read from the top plane down, they give the least count at N
    and the classes that have it.  ``explored`` is the number of (r, N)
    pairs, classes(n-1) * 2^(n-1).  The witness is the least serialized
    coloring among the tied pairs, re-verified with the independent DP
    counter before returning.  The tied pairs at one N share their edges at
    v, which no class touches, and the class table is in serialized order,
    so N's least tie is its lowest tied class: ``_finish`` gets one
    candidate per tied N, at most 2^(n-1).  A host past EXHAUSTIVE_MAX_N,
    whose classes on n-1 vertices the class table does not build, is
    refused before any copy or class is listed.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > EXHAUSTIVE_MAX_N:
        raise CapabilityError(
            f"exhaustive search limited to n <= {EXHAUSTIVE_MAX_N}, one past the graph "
            f"classes built (n <= {CLASS_REPS_MAX_N}) (got n={n}); use anneal_min for larger hosts"
        )
    method = "exhaustive-canonical"
    if n == 0:  # one coloring, and no pattern fits in an empty host
        return _finish(pattern, 0, 0, [0], True, 1, method)
    v, states = n - 1, _class_table(n)[0]
    at_v = _bit_table([1 << pair_index(n, i, v) for i in range(v)])  # N's red edges at v
    best, tied = math.inf, []
    for nbhd, planes in enumerate(_extension_counts(pattern, n)):
        # the least count at N a bit at a time from the top, and its classes
        low, classes = 0, (1 << len(states)) - 1
        for i in reversed(range(len(planes))):
            clear = classes & ~planes[i]  # those whose count has bit i clear
            if clear:
                classes = clear
            else:
                low |= 1 << i
        if low < best:
            best, tied = low, []
        if low == best:  # N's least serialized tie: its lowest tied class
            tied.append(states[(classes & -classes).bit_length() - 1] | at_v[nbhd])
    return _finish(pattern, n, best, tied, True, len(states) << v, method)


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
    from .formulas import RamseyValue

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

    Exhaustive minimization decides each n <= 9 outright.  Beyond that, only
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
    returned as it is.  ``exhaustive_min`` is exact for r <= 9; above that
    ``anneal_min`` with the caller's config gives an upper bound
    (exact=False), and no config is a CapabilityError.
    """
    from .formulas import r_cycle, r_path

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
