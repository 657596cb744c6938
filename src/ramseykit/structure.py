"""Plain-graph machinery: matchings, edge-count bounds, disjoint path families.

Graphs here are undirected simple graphs on vertex set ``0..n-1`` with
adjacency stored as one Python-int bitmask per vertex; ``_bit_matrix`` is the
one reader of such masks into numpy, for the searches' red counts, the exact
regularity scan and the dense walk kernel.  Everything in this module is
color-agnostic; two-coloring logic lives in :mod:`ramseykit.coloring`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

from .errors import CapabilityError, DomainError

EXACT_PATHS_MAX_N = 14


def _bits(mask: int) -> Iterable[int]:
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _bit_matrix(masks: Sequence[int], width: int):
    """(len(masks), width) uint8 array with bit j of masks[i] at [i, j];
    every mask must be below 2**width."""
    import numpy as np

    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    rows = np.frombuffer(raw, np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little")


class SimpleGraph:
    """Undirected simple graph with bitmask adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int] | None = None):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        self.n = n
        self.adj = list(adj) if adj is not None else [0] * n
        if len(self.adj) != n:
            raise DomainError("adjacency list length must equal n")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        g = cls(n)
        for u, v in edges:
            g._add_edge(u, v)
        return g

    def _add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise DomainError("self-loops are not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in _bits(rest):
                out.append((u, u + 1 + off))
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def induced(self, vertices: Sequence[int]) -> tuple["SimpleGraph", list[int]]:
        """Induced subgraph plus the new-index -> old-index mapping."""
        verts = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(verts)}
        sub = SimpleGraph(len(verts))
        for i, v in enumerate(verts):
            m = 0
            a = self.adj[v]
            for w in verts:
                if a >> w & 1:
                    m |= 1 << pos[w]
            sub.adj[i] = m
        return sub, verts

    def ball(self, v: int, radius: int) -> list[int]:
        """Vertices at BFS distance <= radius from v (v included)."""
        seen = 1 << v
        frontier = [v]
        for _ in range(radius):
            nxt = 0
            for u in frontier:
                nxt |= self.adj[u] & ~seen
            if not nxt:
                break
            seen |= nxt
            frontier = list(_bits(nxt))
        return list(_bits(seen))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleGraph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# maximum matching (blossom algorithm, general graphs)
# ---------------------------------------------------------------------------

def max_matching(g: SimpleGraph) -> list[tuple[int, int]]:
    """Maximum-cardinality matching via blossom contraction.

    Standard O(V^3) Edmonds implementation: repeated alternating-tree BFS
    with base[] contraction of odd cycles.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    match = [-1] * n
    # greedy seed cuts the number of augmenting searches roughly in half
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used_flag = [False] * n
        x = a
        while True:
            x = base[x]
            used_flag[x] = True
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if used_flag[y]:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            p[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_path(v)
            while end != -1:
                pv = p[end]
                ppv = match[pv]
                match[end] = pv
                match[pv] = end
                end = ppv

    return sorted((v, match[v]) for v in range(n) if match[v] > v)


def matching_number(g: SimpleGraph) -> int:
    return len(max_matching(g))


# ---------------------------------------------------------------------------
# edge-count bounds for graphs with bounded matching number
# ---------------------------------------------------------------------------

def erdos_gallai_max_edges(n: int, k: int) -> int:
    """Largest edge count of an n-vertex graph with matching number <= k."""
    if n < 0 or k < 0:
        raise DomainError("n and k must be nonnegative")
    if n <= 2 * k + 1:
        # every graph this small has matching number <= k
        return comb(n, 2)
    return max(comb(2 * k + 1, 2), comb(k, 2) + k * (n - k))


@dataclass(frozen=True)
class EdgeBoundReport:
    matching_number: int
    edge_count: int
    bound: int
    ok: bool


def verify_erdos_gallai(g: SimpleGraph) -> EdgeBoundReport:
    """Check e(G) against the extremal bound at G's own matching number."""
    nu = matching_number(g)
    bound = erdos_gallai_max_edges(g.n, nu)
    e = g.edge_count
    return EdgeBoundReport(nu, e, bound, e <= bound)


def konig_edge_bound_check(
    g: SimpleGraph, parts: tuple[Sequence[int], Sequence[int]]
) -> EdgeBoundReport:
    """Bipartite consequence: no matching of size k+1 forces e(G) <= k * max part size.

    ``parts`` must partition the vertex set and carry no internal edges.
    """
    x, y = (sorted(set(parts[0])), sorted(set(parts[1])))
    if sorted(x + y) != list(range(g.n)):
        raise DomainError("declared parts must partition the vertex set")
    for side in (x, y):
        mask = 0
        for v in side:
            mask |= 1 << v
        for v in side:
            if g.adj[v] & mask:
                raise DomainError("declared part contains an internal edge")
    nu = matching_number(g)
    bound = nu * max(len(x), len(y)) if g.n else 0
    e = g.edge_count
    return EdgeBoundReport(nu, e, bound, e <= bound)


# ---------------------------------------------------------------------------
# internally-disjoint bounded-length path families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisjointPathCert:
    """A family of internally-disjoint u-v paths, each of length <= max_len."""

    u: int
    v: int
    max_len: int
    paths: tuple[tuple[int, ...], ...]
    exact: bool  # True when len(paths) is the true maximum

    @property
    def count(self) -> int:
        return len(self.paths)

    def validate(self, g: SimpleGraph) -> None:
        for w in (self.u, self.v, *(w for path in self.paths for w in path)):
            if not 0 <= w < g.n:
                raise DomainError(f"vertex {w} out of range for n={g.n}")
        seen_interior = 0
        seen_paths = set()
        for path in self.paths:
            if len(path) < 2 or path[0] != self.u or path[-1] != self.v:
                raise DomainError(f"path {path} does not run from {self.u} to {self.v}")
            if len(path) - 1 > self.max_len:
                raise DomainError(f"path {path} exceeds length bound {self.max_len}")
            if len(set(path)) != len(path):
                raise DomainError(f"path {path} repeats a vertex")
            for a, b in zip(path, path[1:]):
                if not g.has_edge(a, b):
                    raise DomainError(f"pair ({a},{b}) in {path} is not an edge")
            # with both ends checked and no repeat, no interior is an end
            interior = sum(1 << w for w in path[1:-1])
            if interior & seen_interior:
                raise DomainError(f"path {path} shares an interior vertex")
            seen_interior |= interior
            if path in seen_paths:
                raise DomainError(f"path {path} listed twice")
            seen_paths.add(path)


def _bfs_short_path(
    g: SimpleGraph, u: int, v: int, banned: int, max_len: int
) -> tuple[int, ...] | None:
    """Shortest u-v path of length 2 to max_len avoiding banned interiors, or
    None.  The first step skips v, so the direct edge is never returned."""
    parent = dict.fromkeys(_bits(g.adj[u] & ~banned), u)
    frontier = list(parent)
    dist = 1
    reachable = (1 << v) | ~banned
    while frontier and dist < max_len:
        dist += 1
        nxt = []
        for w in frontier:
            for t in _bits(g.adj[w] & reachable):
                if t in parent:
                    continue
                if t == v:
                    path = [v, w]
                    while path[-1] != u:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                parent[t] = w
                nxt.append(t)
        frontier = nxt
    return None


def _greedy_paths(
    g: SimpleGraph, u: int, v: int, max_len: int, t_target: int | None
) -> list[tuple[int, ...]]:
    """Shortest-first family: the direct edge, if any, then breadth-first
    paths through unused interiors, until t_target paths or none is left."""
    if t_target is not None and t_target < 1:
        return []
    paths: list[tuple[int, ...]] = [(u, v)] if g.has_edge(u, v) else []
    banned = (1 << u) | (1 << v)
    while t_target is None or len(paths) < t_target:
        path = _bfs_short_path(g, u, v, banned, max_len)
        if path is None:
            break
        for w in path[1:-1]:
            banned |= 1 << w
        paths.append(path)
    return paths


def _exact_le4(g: SimpleGraph, u: int, v: int, max_len: int) -> list[tuple[int, ...]]:
    """Maximum family for length bound <= 4 via role reduction and one matching.

    Interiors can be normalized so that length-2 paths use common neighbors,
    the first interior lies in A = N(u)\\N(v), the last in B = N(v)\\N(u),
    and any middle vertex avoids N(u), N(v), u and v.  The rest is one
    bipartite graph: a node per A and B vertex, and per middle z (length 4
    only, with neighbors in both A and B) a pair z_in - z_out joined by an
    edge, plus edges a-b, a-z_in for a ~ z and z_out-b for z ~ b.  Every
    maximum matching has |Z| + (most paths) edges, and each path is a
    matched a whose mate is a b, or a z_in whose z_out is matched to a b.
    """
    paths: list[tuple[int, ...]] = []
    if g.has_edge(u, v):
        paths.append((u, v))
    if max_len == 1:
        return paths
    nu, nv = g.adj[u], g.adj[v]
    ends = (1 << u) | (1 << v)
    for c in _bits(nu & nv & ~ends):
        paths.append((u, c, v))
    if max_len == 2:
        return paths
    a_mask, b_mask = nu & ~nv & ~ends, nv & ~nu & ~ends
    a_side, b_side = list(_bits(a_mask)), list(_bits(b_mask))
    outside = ((1 << g.n) - 1) & ~(nu | nv | ends) if max_len == 4 else 0
    # a middle needs a neighbor on both sides to lie on any path
    middle = [z for z in _bits(outside) if g.adj[z] & a_mask and g.adj[z] & b_mask]
    # nodes: A, then B, then z_in = first + 2i and z_out = first + 2i + 1
    index = {w: i for i, w in enumerate(a_side + b_side)}
    first = len(index)
    edges = [(index[a], index[b]) for a in a_side for b in _bits(g.adj[a] & b_mask)]
    for i, z in enumerate(middle):
        z_in = first + 2 * i
        edges.append((z_in, z_in + 1))
        edges += [(index[a], z_in) for a in _bits(g.adj[z] & a_mask)]
        edges += [(z_in + 1, index[b]) for b in _bits(g.adj[z] & b_mask)]
    mate: dict[int, int] = {}
    for x, y in max_matching(SimpleGraph.from_edges(first + 2 * len(middle), edges)):
        mate[x], mate[y] = y, x
    for i, a in enumerate(a_side):
        m = mate.get(i)
        if m is None:
            continue
        if m < first:
            paths.append((u, a, b_side[m - len(a_side)], v))
            continue
        b = mate.get(m + 1)
        if b is not None:
            paths.append((u, a, middle[(m - first) // 2], b_side[b - len(a_side)], v))
    return paths


def _exact_subsets(g: SimpleGraph, u: int, v: int, max_len: int) -> list[tuple[int, ...]]:
    """Maximum family by two DPs over sets I of interior vertices.

    heads[I] holds the vertices of I that start a path through exactly I to
    v, built by size up to max_len - 1; u reaches I when it has a neighbor
    in heads[I], and I stands for its lexicographically least path, read
    greedily from heads.  most(avail) is the most disjoint reached sets
    inside avail.  Keeping I, in (length, path) order, when 1 + most(avail -
    I) == most(avail) gives the family that packing the paths include-first
    in that order gives.  The tables are indexed by subsets of the other
    n - 2 vertices, hence EXACT_PATHS_MAX_N.
    """
    if g.n > EXACT_PATHS_MAX_N:
        raise CapabilityError(f"exact packing limited to n <= {EXACT_PATHS_MAX_N} (got n={g.n})")
    others = [w for w in range(g.n) if w != u and w != v] + [v]
    bit = {w: 1 << i for i, w in enumerate(others)}
    # rows over the bits of others, u's row last; heads of the empty set is
    # v's bit, so a lone vertex heads its set when it is adjacent to v
    adj = [sum(bit.get(w, 0) for w in _bits(g.adj[x])) for x in others + [u]]
    heads = [bit[v]] + [0] * (bit[v] - 1)
    sets = []
    for s in range(1, len(heads)):
        if s.bit_count() < max_len:
            heads[s] = sum(1 << x for x in _bits(s) if adj[x] & heads[s ^ 1 << x])
        if adj[-1] & heads[s]:
            path, x, rest = [], -1, s
            while rest:
                x = next(_bits(adj[x] & heads[rest]))
                path.append(others[x])
                rest ^= 1 << x
            sets.append((len(path), path, s))
    memo = {0: 0}

    def most(avail: int) -> int:
        if avail not in memo:
            low = avail & -avail
            rest = avail ^ low
            best, sub = most(rest), 0
            while True:  # the subsets of rest in increasing order
                # dropping one vertex costs at most one set, so best + 1 is final
                if adj[-1] & heads[sub | low] and most(rest ^ sub) == best:
                    best += 1
                    break
                if sub == rest:
                    break
                sub = (sub - rest) & rest
            memo[avail] = best
        return memo[avail]

    paths = [(u, v)] if g.has_edge(u, v) else []
    avail = len(heads) - 1
    for _, path, s in sorted(sets):
        if s & avail == s and 1 + most(avail ^ s) == most(avail):
            avail ^= s
            paths.append((u, *path, v))
    return paths


def disjoint_short_paths(
    g: SimpleGraph,
    u: int,
    v: int,
    max_len: int,
    t_target: int | None = None,
    method: str = "greedy",
) -> DisjointPathCert:
    """Internally-disjoint u-v paths of length <= max_len.

    method="greedy": shortest-first extraction; a valid family and hence a
    lower bound, not necessarily maximum.  Stops once t_target paths are found.

    method="exact": true maximum.  For max_len <= 4, the common neighbors
    plus one blossom matching on the A, B and split middle vertices; for
    max_len >= 5 the subset DPs of _exact_subsets, guarded to
    n <= EXACT_PATHS_MAX_N.
    """
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise DomainError("u and v must be distinct vertices of g")
    if max_len < 1:
        raise DomainError("max_len must be at least 1")
    if method == "greedy":
        found = _greedy_paths(g, u, v, max_len, t_target)
        return DisjointPathCert(u, v, max_len, tuple(found), exact=False)
    if method == "exact":
        if max_len <= 4:
            found = _exact_le4(g, u, v, max_len)
        else:
            found = _exact_subsets(g, u, v, max_len)
        return DisjointPathCert(u, v, max_len, tuple(found), exact=True)
    raise DomainError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# pairwise well-connectedness over a vertex subset
# ---------------------------------------------------------------------------

@dataclass
class WellConnectedReport:
    """Outcome of checking t internally-disjoint short paths for all pairs in W.

    status is "certified" (every pair has a verified family of t paths),
    "refuted" (some pair provably has fewer; failing_pair and failing_count
    identify it), or "unknown" (greedy fell short and no exact mode applied).
    """

    status: str
    t: int
    max_len: int
    witness_set: tuple[int, ...]
    certificates: dict[tuple[int, int], DisjointPathCert] = field(default_factory=dict)
    failing_pair: tuple[int, int] | None = None
    failing_count: int | None = None
    unknown_pairs: list[tuple[int, int]] = field(default_factory=list)


def well_connected_check(
    g: SimpleGraph, witness_set: Sequence[int], t: int, max_len: int
) -> WellConnectedReport:
    """Decide whether every pair in witness_set is joined by t disjoint short paths.

    Greedy families certify pairs cheaply; a pair the greedy cannot certify
    escalates to an exact mode when one applies (max_len <= 4, or small n).
    The verdict is three-valued so that an out-of-reach exact computation
    yields "unknown" rather than a false refutation.
    """
    ws = sorted(set(witness_set))
    if any(not 0 <= w < g.n for w in ws):
        raise DomainError("witness_set must be vertices of g")
    if t < 1:
        raise DomainError("t must be at least 1")
    if max_len < 1:
        raise DomainError("max_len must be at least 1")
    report = WellConnectedReport("certified", t, max_len, tuple(ws))
    for i, u in enumerate(ws):
        for v in ws[i + 1:]:
            cert = disjoint_short_paths(g, u, v, max_len, t_target=t, method="greedy")
            if cert.count >= t:
                report.certificates[(u, v)] = cert
                continue
            try:
                cert = disjoint_short_paths(g, u, v, max_len, method="exact")
            except CapabilityError:
                report.unknown_pairs.append((u, v))
                continue
            if cert.count >= t:
                report.certificates[(u, v)] = cert
            else:
                report.status = "refuted"
                report.failing_pair = (u, v)
                report.failing_count = cert.count
                return report
    if report.unknown_pairs:
        report.status = "unknown"
    return report
