"""Exact counting of paths, cycles, stars and small cliques in graphs.

Every counter takes a `SimpleGraph`; a coloring's color class is one, built
by ``coloring.view(color)``, and `count_mono` adds the counts of both.

Counts are unlabeled copies: subgraphs, not embeddings.  A path or cycle on
a fixed vertex set is one copy regardless of traversal direction; a star is
a (center, leaf set) pair; a clique is a vertex subset.

Paths and cycles are counted by one walk kernel, `count_walks`: a dynamic
program over (vertex subset, last vertex) states layered by subset size,
holding only the layer it reads and the one it builds.  It counts simple
directed paths from given start vertices; path and cycle counts, and the
exact counts of the bound checkers in :mod:`ramseykit.regularity`, are
calls to it.  One estimate bounds the states of each layer a walk stores.
A walk over at most DENSE_MAX_VERTICES vertices whose layers sum to
DENSE_MIN_STATES or more, so a long walk on few vertices as well as a wide
one, keeps its layers in dense numpy arrays, one entry per (subset, vertex)
pair, and numpy is imported for those only; once numpy is loaded, walks
from DENSE_LOADED_MIN_STATES run dense too.  A dense layer is one matrix
product and one masked move per block of rows, exact in float64 or int64.
Other walks keep the states they reach in a dict.  Both kernels build
layers up to `edges` - 2 steps and count the last two steps from there,
not store them: the dense kernel with one more small product per block,
which counts each middle vertex's free neighbours, and the dict kernel
state by state.  That needs `adj` loop-free, and the dict kernel's degree
form needs it symmetric, as every caller's is.  The DP is exact for any
graph but exponential in its length, so the dict kernel refuses instances
whose largest layer is estimated above DP_STATE_BUDGET before allocating.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb, factorial, perm
from typing import Sequence

from .coloring import BLUE, RED, EdgeColoring, pair_index
from .errors import CapabilityError, DomainError
from .structure import SimpleGraph, _bit_matrix, _bits, _numpy

# states in the largest stored layer of one dict kernel call.  Peak memory,
# with the next layer being built, measured about 270 bytes per state of the
# largest layer (n=20 P_10: 769,582 states after 7 steps, +196 MB, 3.7 s,
# best of three fresh processes on a shared two-core host, Python 3.11), so
# the budget caps a call near 0.5 GB.  The estimate it is compared with is an
# upper bound on that layer (1,511,640 for that walk).
DP_STATE_BUDGET = 2_000_000

# The dense kernel runs from DENSE_MIN_STATES estimated states summed over a
# walk's layers, its total work, or from DENSE_LOADED_MIN_STATES once numpy
# is loaded.  The 494 walks of `exact_count_ops(1, 6)` under the vertex cap
# with no layer of 10,000, replayed through both kernels in three runs
# (shared two-core host, Python 3.11, numpy 2.4, best of three calls), took
# 1.9-2.1 times as long on dense as on dict at totals of 363-724 (4.0-4.3
# below), 0.93-1.07 at 725-1,023, 1.5-1.6 at 1,024-1,448, 0.78-0.90 at
# 1,449-2,047, 0.42-0.47 at 2,048-4,095, 0.25-0.28 at 4,096-8,191 and
# 0.14-0.16 at 8,192-16,383: the crossover is near 1,500, and the replay
# took 98-124 ms with the gate anywhere from 724 to 2,896, against
# 169-215 ms at 10,000.  Below 10,000 the
# gate also asks that numpy be loaded already, as its one-time import
# (through `structure._numpy`, with one BLAS thread: 45-50 ms in 12 fresh
# interpreters on that host, against 86-143 ms with OpenBLAS's default
# threads) costs more than the dense layers save on smaller walks, so
# runs whose walks are all smaller, such as `verify --suite bounds`
# (largest total 9,217 within the vertex cap: one start, 5 steps on 16
# vertices) or a small `count`, never import it.  The dense universe of m
# vertices is capped by DENSE_MAX_VERTICES: the subset table takes
# 4 * 2**m bytes (and as much again for smaller m), 8 MB at m = 20, while
# m = 24 P_4 took 84 ms and +129 MB against 2 ms on dict.  Dense layers
# are float64 or int64, and a call measured about 20 bytes per entry of
# its largest layer, subset table included (m = 20 P_10 on a random color
# class, best of three fresh processes: 2.5 M entries, 0.07-0.08 s and
# +50-51 MB, against 0.10-0.14 s and +68 MB when the kernel also built the
# 3.4 M-entry layer of `edges` - 1 steps, and 3.7 s and +196 MB on dict),
# so every dense call under the cap stays well inside the dict kernel's
# memory and needs no budget of its own.  A block of DENSE_BLOCK_ROWS rows
# keeps the product a small share of the layer: one of the full width took
# +7 MB at the peak of P_9 on 18 vertices.  DENSE_BLOCK_MACS keeps every BLAS call under
# OpenBLAS's threshold for threading it (65,536 * 4 multiply-adds), whose
# threads made the kernel two to three times slower while another process
# held the second core.  numpy loaded through `structure._numpy` has one
# BLAS thread, but a caller who set a thread variable or imported numpy
# first keeps a threaded BLAS, so the cap stays.
DENSE_MIN_STATES = 10_000
DENSE_LOADED_MIN_STATES = 1_500
DENSE_MAX_VERTICES = 20
DENSE_BLOCK_ROWS = 4
DENSE_BLOCK_MACS = 1 << 18

_PATTERN_RE = re.compile(r"^([PCS])_(\d+)$|^K_?(\d+)$")


@dataclass(frozen=True)
class Pattern:
    """A target subgraph: P_k, C_k, S_k (star with k leaves) or K_k."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind == "path":
            if self.k < 1:
                raise DomainError("paths need k >= 1 vertices")
        elif self.kind == "cycle":
            if self.k < 3:
                raise DomainError("cycles need k >= 3 vertices")
        elif self.kind == "star":
            if self.k < 1:
                raise DomainError("stars need k >= 1 leaves")
        elif self.kind == "clique":
            if not 2 <= self.k <= 5:
                raise DomainError("cliques are supported for 2 <= k <= 5")
        else:
            raise DomainError(f"unknown pattern kind {self.kind!r}")

    @property
    def vertex_count(self) -> int:
        if self.kind == "star":
            return self.k + 1
        return self.k

    @property
    def edge_count(self) -> int:
        return {"path": self.k - 1, "clique": self.k * (self.k - 1) // 2}.get(self.kind, self.k)

    @property
    def label(self) -> str:
        if self.kind == "clique":
            return f"K{self.k}"
        return f"{self.kind[0].upper()}_{self.k}"

    @staticmethod
    def path(k: int) -> "Pattern":
        return Pattern("path", k)

    @staticmethod
    def cycle(k: int) -> "Pattern":
        return Pattern("cycle", k)

    @staticmethod
    def star(k: int) -> "Pattern":
        return Pattern("star", k)

    @staticmethod
    def triangle() -> "Pattern":
        return Pattern("clique", 3)

    @staticmethod
    def clique(k: int) -> "Pattern":
        return Pattern("clique", k)


def parse_pattern(text: str) -> Pattern:
    """Parse CLI pattern syntax: P_k, C_k, S_k, K3 (K_3 also accepted)."""
    m = _PATTERN_RE.match(text.strip())
    if not m:
        raise DomainError(f"cannot parse pattern {text!r}")
    if m.group(3) is not None:
        return Pattern("clique", int(m.group(3)))
    kind = {"P": "path", "C": "cycle", "S": "star"}[m.group(1)]
    return Pattern(kind, int(m.group(2)))


def _layer_states(adj: Sequence[int], nstarts: int, edges: int, inner: int) -> list[int]:
    """Upper bounds on the states of each layer `count_walks` stores.

    Layer t holds (subset, last vertex) states: a start, t vertices from the
    `a` allowed ones and a last vertex among those t, and no more than there
    are (t+1)-subsets of the n vertices with a marked member.  Their sum
    estimates the work of a call, their max its memory.  Both kernels count
    their last two steps without storing the layer of `edges` - 1 steps
    listed last here, so for both the estimate is conservative by one layer.
    """
    n = len(adj)
    a = (inner & ((1 << n) - 1)).bit_count()
    return [
        min(nstarts * comb(a, t) * max(t, 1), comb(n, t + 1) * (t + 1))
        for t in range(edges)
    ]


def count_walks(
    adj: Sequence[int], starts: Sequence[int], edges: int, inner: int = -1, end: int = -1
) -> int:
    """Simple directed paths taking `edges` steps from a vertex in `starts`.

    Vertices after the start lie in the bitmask `inner`, and the last one
    also in `end`.  Paths are vertex sequences: a path is counted once for
    each of its ends it may start from, and a repeated start once.  `adj`
    must be symmetric and loop-free.  Both kernels count the last two steps,
    not store them, so the largest layer either kernel builds holds paths
    of `edges` - 2 steps; an instance whose estimate of its largest layer
    exceeds DP_STATE_BUDGET raises CapabilityError before any layer is
    built, and a negative `edges` raises DomainError.

    Instances whose layers are estimated at DENSE_MIN_STATES or more in
    sum, or at DENSE_LOADED_MIN_STATES or more when numpy is already
    loaded, over at most DENSE_MAX_VERTICES vertices of ``inner`` and the
    starts, run in dense numpy layers (`_dense_walks`); the rest keep
    (subset, last vertex) states in a dict (`_dict_walks`), and only those
    are held to the budget.  Both give the same exact count, whichever
    number type the dense layers take.
    """
    if edges < 0:
        raise DomainError("walks need edges >= 0")
    starts = set(starts)
    if edges == 0:
        return len(starts)
    layers = _layer_states(adj, len(starts), edges, inner)
    work = sum(layers)
    if work >= DENSE_MIN_STATES or (work >= DENSE_LOADED_MIN_STATES and "numpy" in sys.modules):
        universe = (inner & ((1 << len(adj)) - 1)) | sum(1 << v for v in starts)
        if universe.bit_count() <= DENSE_MAX_VERTICES:
            return _dense_walks(adj, starts, edges, inner, end)
    est = max(layers)
    if est > DP_STATE_BUDGET:
        raise CapabilityError(
            f"subset DP too large: estimated {est:,} states in its largest "
            f"layer, budget {DP_STATE_BUDGET:,}"
        )
    return _dict_walks(adj, starts, edges, inner, end)


def _dict_walks(adj: Sequence[int], starts: Sequence[int], edges: int, inner: int, end: int) -> int:
    """`count_walks` for edges >= 1, one dict of (subset, last vertex) states a layer.

    Layers are built up to `edges` - 2 steps; the last two steps x -> w -> y
    of each state (mask, x) are counted, not stored.  With F = step[x] - mask
    and close[w] = step[w] & end, the state closes sum over w in F of
    |close[w] - mask| walks, taken directly (one popcount per w) when
    |F| <= edges, and otherwise by degrees, at about one term per vertex of
    the mask, which holds `edges` - 1: two[x] = sum over w in step[x] of
    deg[w] = |close[w]|, less deg[a] for each a in mask & step[x], less
    |adj[a] & F| for each a in mask & inner & end, which counts the w in F
    stepping to a because `adj` is symmetric.  As `adj` has no loops, no
    row of `step` or `close` holds its own vertex.
    """
    step = [m & inner for m in adj]
    layer: dict[tuple[int, int], int] = {(1 << v, v): 1 for v in starts}
    if edges == 1:
        return sum((step[v] & end & ~mask).bit_count() for mask, v in layer)
    for _ in range(edges - 2):
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (mask, last), cnt in layer.items():
            nbrs = step[last] & ~mask
            while nbrs:
                b = nbrs & -nbrs
                nbrs ^= b
                key = (mask | b, b.bit_length() - 1)
                nxt[key] = get(key, 0) + cnt
        layer = nxt
    close = [m & end for m in step]
    deg = [c.bit_count() for c in close]
    two: dict[int, int] = {}
    hits = inner & end
    total = 0
    for (mask, x), cnt in layer.items():
        free = step[x] & ~mask
        if free.bit_count() <= edges:
            ways = 0
            while free:
                b = free & -free
                free ^= b
                ways += (close[b.bit_length() - 1] & ~mask).bit_count()
        else:
            ways = two.get(x)
            if ways is None:
                ways = two[x] = sum(deg[w] for w in _bits(step[x]))
            used = step[x] & mask
            while used:
                b = used & -used
                used ^= b
                ways -= deg[b.bit_length() - 1]
            used = mask & hits
            while used:
                b = used & -used
                used ^= b
                ways -= (adj[b.bit_length() - 1] & free).bit_count()
        total += cnt * ways
    return total


@cache
def _subsets_by_size(m: int):
    """The subsets of range(m) as uint32 masks, one read-only array per size.

    Each array is in numeric order, which among masks of one size is colex
    order: the masks of range(m - 1), then those masks of one fewer member
    with m - 1 added.  So deleting member b from the masks of size s + 1
    that contain it gives, in order, the masks of size s that lack it.
    """
    np = _numpy()

    if m == 0:
        return (np.zeros(1, np.uint32),)
    prev = _subsets_by_size(m - 1)
    top = np.uint32(1 << (m - 1))
    out = [prev[0]]
    for s in range(1, m + 1):
        out.append(np.concatenate((prev[s] if s < m else prev[0][:0], prev[s - 1] | top)))
    for a in out:
        a.setflags(write=False)
    return tuple(out)


def _dense_walks(adj: Sequence[int], starts: Sequence[int], edges: int, inner: int, end: int) -> int:
    """`count_walks` for edges >= 1 in dense numpy layers.

    The walks run through the universe of ``inner`` and the starts.  A single
    start takes its first step here, which keeps it out of the universe.  A
    walk never leaves the component of its first vertex, so each component
    holding one is counted on its own by `_dense_component`; a walk left
    with one step is a popcount per seed.
    """
    n = len(adj)
    inner &= (1 << n) - 1
    starts = set(starts)
    if len(starts) == 1:
        (v,) = starts
        universe = inner & ~(1 << v)
        seeds = adj[v] & universe
        edges -= 1
        if edges == 0:
            return (seeds & end).bit_count()
    else:
        seeds = sum(1 << v for v in starts)
        universe = inner | seeds
    if edges == 1:
        return sum((adj[v] & inner & universe & end).bit_count() for v in _bits(seeds))
    total = 0
    while seeds:
        comp, front = 0, seeds & -seeds
        while front:
            comp |= front
            reach = 0
            while front:
                w = (front & -front).bit_length() - 1
                front &= front - 1
                reach |= adj[w] & (universe if inner >> w & 1 else inner)
            front = reach & universe & ~comp
        total += _dense_component(adj, seeds & comp, comp, edges, inner, end)
        seeds &= ~comp
    return total


def _dense_component(adj: Sequence[int], seeds: int, universe: int, edges: int, inner: int,
                     end: int) -> int:
    """Walks of `edges` >= 2 steps from the vertices in `seeds`, in layers over `universe`.

    With m = |universe|, relabelled 0..m-1, layer s is an (m, C(m, s)) array:
    entry [b, j] counts the walks that visit exactly the j-th s-subset M
    (in `_subsets_by_size` order) and end at b.  A walk reaches (M, b) only
    from M - b, so with ``step[b, c]`` = 1 when c may step to b, row b of
    ``pre = step @ cur`` holds the next layer's row b in the columns lacking
    b, and one masked assignment, ``nxt[holds] = pre[lacks]``, moves it to
    the columns holding b: boolean indexing visits the rows in order, and
    within a row the colex order lines the two column sets up.

    Layers are built up to `edges` - 2 steps, sets of `edges` - 1 vertices;
    the last two steps x -> w -> y are counted, not stored, as `_dict_walks`
    does.  ``pre[w, M]`` counts the walks extended to a w outside M, and
    each closes in |close[w] - M| ways, with close[w] = adj[w] & inner &
    end in the universe, which holds no w as `adj` has no loops.  Those
    sizes are one more product, ``close @ outside`` with ``outside`` the
    layer's `lacks` as 0/1 float32, exact as no sum passes m <= 20, and
    the count sums ``pre * ways`` over the (w, M) with w outside M.

    Every product runs DENSE_BLOCK_ROWS rows at a time, so it is a small
    share of the layer, and each BLAS call takes at most DENSE_BLOCK_MACS
    multiply-adds, below OpenBLAS's threshold for threading it.  numpy
    loaded through ``structure._numpy`` has one BLAS thread anyway; the cap
    is for callers who set a thread variable or imported numpy first, whose
    BLAS keeps its threads.  Every
    entry and partial sum is a nonnegative integer at most
    seeds * perm(m - 1, edges), so below 2**53 the layers are float64 and
    the products are exact; above it they are int64, which holds the bound as
    distinct seeds make it at most m! <= 20! < 2**63 (DENSE_MAX_VERTICES).
    """
    np = _numpy()

    verts = [v for v in range(len(adj)) if universe >> v & 1]
    m = len(verts)
    if edges >= m:
        return 0
    dtype = np.float64 if seeds.bit_count() * perm(m - 1, edges) < 1 << 53 else np.int64
    # zero rows pad step to whole blocks: a one-row block would be a BLAS
    # matrix-vector call, which OpenBLAS threads from 9,216 entries
    step = np.zeros((-(-m // DENSE_BLOCK_ROWS) * DENSE_BLOCK_ROWS, m), dtype)
    step[:m] = _bit_matrix([adj[u] & inner for u in verts], len(adj))[:, verts].T
    blocks = [slice(b, b + DENSE_BLOCK_ROWS) for b in range(0, m, DENSE_BLOCK_ROWS)]
    width = DENSE_BLOCK_MACS // (DENSE_BLOCK_ROWS * m)

    def product(left, block, right, out):
        """Rows `block` of left @ right, in `out`, `width` columns a call."""
        for j in range(0, right.shape[1], width):
            np.matmul(left[block], right[:, j:j + width], out=out[:, j:j + width])
        return out[:m - block.start]

    subsets = _subsets_by_size(m)
    bits = np.uint32(1) << np.arange(m, dtype=np.uint32)[:, None]
    first = [i for i, w in enumerate(verts) if seeds >> w & 1]
    cur = np.zeros((m, m), dtype)
    cur[first, first] = 1
    lacks = ~np.eye(m, dtype=bool)
    for s in range(2, edges):
        nxt = np.zeros((m, len(subsets[s])), dtype)
        holds = np.empty(nxt.shape, bool)
        pre = np.empty((DENSE_BLOCK_ROWS, cur.shape[1]), dtype)
        for block in blocks:
            np.not_equal(subsets[s] & bits[block], 0, out=holds[block])
            nxt[block][holds[block]] = product(step, block, cur, pre)[lacks[block]]
        cur = nxt
        lacks = np.logical_not(holds, out=holds)
    # the last two steps, from the layer of edges - 2 steps
    close = _bit_matrix(
        [adj[u] & inner & end for u in verts] + [0] * (len(step) - m), len(adj)
    )[:, verts].astype(np.float32)
    outside = lacks.astype(np.float32)
    pre = np.empty((DENSE_BLOCK_ROWS, cur.shape[1]), dtype)
    free = np.empty(pre.shape, np.float32)
    ways = np.empty(pre.shape, dtype)
    total = 0
    for block in blocks:
        if close[block].any():
            # free counts are at most m, so int64 ways take them exactly
            closes = np.multiply(product(close, block, outside, free), lacks[block],
                                 out=ways[:m - block.start], casting="unsafe")
            total += int(np.vdot(product(step, block, cur, pre), closes))
    return total


# ---------------------------------------------------------------------------
# counts in one graph
# ---------------------------------------------------------------------------

def count_paths(g: SimpleGraph, k: int) -> int:
    """Number of k-vertex paths in g."""
    n = g.n
    if k < 1:
        raise DomainError("k must be at least 1")
    if k == 1:
        return n
    if k > n:
        return 0
    # every path is walked from both ends
    return count_walks(g.adj, range(n), k - 1) // 2


def count_cycles(g: SimpleGraph, k: int) -> int:
    """Number of k-vertex cycles in g."""
    n = g.n
    if k < 3:
        raise DomainError("cycles need k >= 3")
    if k > n:
        return 0
    adj = g.adj
    # anchor each cycle at its minimum vertex a, walk above a and close at a;
    # each cycle arises in both traversal directions
    return sum(
        count_walks(adj, (a,), k - 1, inner=-1 << (a + 1), end=adj[a])
        for a in range(n - k + 1)
    ) // 2


def count_stars(g: SimpleGraph, k: int) -> int:
    """Number of (center, k-leaf set) stars in g."""
    if k < 1:
        raise DomainError("stars need k >= 1 leaves")
    return sum(comb(g.degree(u), k) for u in range(g.n))


def count_cliques(g: SimpleGraph, k: int) -> int:
    """Number of k-vertex cliques in g (2 <= k <= 5).

    Each clique is grown in increasing vertex order from the common
    neighbours above its last vertex; the last vertex is not chosen but
    counted, one ``bit_count`` per clique on k - 1 vertices.
    """
    if not 2 <= k <= 5:
        raise DomainError("cliques are supported for 2 <= k <= 5")
    adj = g.adj

    def rec(cand: int, depth: int) -> int:
        total = 0
        while cand:
            b = cand & -cand
            cand ^= b
            above = cand & adj[b.bit_length() - 1]
            total += above.bit_count() if depth == 2 else rec(above, depth - 1)
        return total

    return rec((1 << g.n) - 1, k)


def count_in_view(g: SimpleGraph, pattern: Pattern) -> int:
    """Copies of the pattern in g, typically one color class of a coloring."""
    if pattern.kind == "path":
        return count_paths(g, pattern.k)
    if pattern.kind == "cycle":
        return count_cycles(g, pattern.k)
    if pattern.kind == "star":
        return count_stars(g, pattern.k)
    return count_cliques(g, pattern.k)  # Pattern.__post_init__ admits no other kind


def count_mono(coloring: EdgeColoring, pattern: Pattern) -> int:
    """Monochromatic copies of the pattern: red count plus blue count."""
    return count_in_view(coloring.view(RED), pattern) + count_in_view(
        coloring.view(BLUE), pattern
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def formula_split_paths(a: int, b: int, k: int) -> int:
    """Monochromatic P_k count in chi(a, b) in closed form.

    Blue lives in the cliques: ((a)_k + (b)_k)/2.  Red lives in K_{a,b}:
    (a)_{k/2} (b)_{k/2} for even k, and the symmetrized half-sum of the
    ceil/floor split for odd k.  For k = 1 each vertex is a copy in both
    views, giving 2(a+b).
    """
    if a < 0 or b < 0 or k < 0:
        raise DomainError("a, b, k must be nonnegative")
    if k == 0:
        return 0
    if k == 1:
        return 2 * (a + b)
    blue = (perm(a, k) + perm(b, k)) // 2
    if k % 2 == 0:
        red = perm(a, k // 2) * perm(b, k // 2)
    else:
        h = (k + 1) // 2
        red = (perm(a, h) * perm(b, k // 2) + perm(b, h) * perm(a, k // 2)) // 2
    return blue + red


def total_copies_in_complete(n: int, pattern: Pattern) -> int:
    """Copies of the pattern in K_n, both colors together: the ceiling for
    complementarity checks.  A copy is a sequence of distinct vertices up to
    the pattern's automorphisms, so there are perm(n, v) / |Aut|: |Aut| is 2
    for a path (1 for P_1), 2k for a cycle and k! for a clique or a star's
    leaves (its centre is distinguished).  ``search._copy_edges`` lists one
    canonical sequence per copy."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    k = pattern.k
    aut = {"path": min(k, 2), "cycle": 2 * k}.get(pattern.kind) or factorial(k)
    return perm(n, pattern.vertex_count) // aut


# ---------------------------------------------------------------------------
# explicit copy enumeration (edge bitmasks), independent of the DP
# ---------------------------------------------------------------------------

def copy_edge_masks(pattern: Pattern, n: int) -> list[int]:
    """Edge bitmask of every copy of the pattern in K_n.

    Enumerated directly from the pattern's structure, so it doubles as an
    independent realization of the counts: a copy is monochromatic in a
    coloring exactly when its mask lands entirely inside one color class.
    No package code calls it: it is the independent recount that the tests
    and the benchmark hold the DP and the search engine's own copy list to.
    """
    k = pattern.k
    if pattern.kind == "path" and k == 1:
        return [0] * n
    if pattern.vertex_count > n:
        return []
    # bit[u][w]: the bit of edge {u, w}, looked up once per n
    bit = [[0 if u == w else 1 << pair_index(n, u, w) for w in range(n)] for u in range(n)]
    masks: list[int] = []
    if pattern.kind == "path":
        def extend(first: int, last: int, depth: int, used: int, mask: int) -> None:
            row = bit[last]
            if depth == k - 1:  # each path once, from its smaller end
                masks.extend(mask | row[w] for w in range(first + 1, n) if not used >> w & 1)
                return
            for w in range(n):
                if not used >> w & 1:
                    extend(first, w, depth + 1, used | 1 << w, mask | row[w])

        for v in range(n):
            extend(v, v, 1, 1 << v, 0)
    elif pattern.kind == "cycle":
        def extend_cycle(first: int, second: int, last: int, depth: int,
                         used: int, mask: int) -> None:
            row = bit[last]
            if depth == k - 1:  # least vertex first, then each direction once
                close = bit[first]
                masks.extend(mask | row[w] | close[w]
                             for w in range(second + 1, n) if not used >> w & 1)
                return
            for w in range(first + 1, n):
                if not used >> w & 1:
                    extend_cycle(first, second if depth > 1 else w, w, depth + 1,
                                 used | 1 << w, mask | row[w])

        for v in range(n - k + 1):
            extend_cycle(v, v, v, 1, 1 << v, 0)
    elif pattern.kind == "star":
        # the edge bits are distinct powers of two, so a sum is their union
        for center, row in enumerate(bit):
            masks.extend(map(sum, combinations(row[:center] + row[center + 1:], k)))
    else:
        for verts in combinations(range(n), k):
            masks.append(sum(bit[u][w] for u, w in combinations(verts, 2)))
    return masks
