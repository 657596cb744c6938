"""Independent reference implementations used to cross-check the package.

Everything here is written for clarity over speed and deliberately avoids
the package's own counting or matching code: permutation enumeration for
paths and cycles, subset enumeration for matchings and pair regularity,
a counterpart scan in exact fractions for pair regularity at mid sizes,
plain backtracking for disjoint-path packing, a unit-capacity max flow
for disjoint paths of any length, and a sweep of every coloring
for minimum monochromatic counts (which takes its list of copies from
``copy_edge_masks``), Goodman's closed form for the fewest monochromatic
triangles, and every vertex order for canonical graph forms.
Only usable at small sizes.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from typing import Callable, Sequence

from ramseykit.counting import Pattern, copy_edge_masks

EdgePredicate = Callable[[int, int], bool]


def brute_paths(has_edge: EdgePredicate, n: int, k: int) -> int:
    """Unlabeled copies of the k-vertex path, by direct permutation scan."""
    if k > n:
        return 0
    if k == 1:
        return n
    total = 0
    for perm in permutations(range(n), k):
        if all(has_edge(perm[i], perm[i + 1]) for i in range(k - 1)):
            total += 1
    return total // 2


def brute_cycles(has_edge: EdgePredicate, n: int, k: int) -> int:
    """Unlabeled copies of the k-vertex cycle (k >= 3)."""
    if k < 3 or k > n:
        return 0
    total = 0
    for perm in permutations(range(n), k):
        if all(has_edge(perm[i], perm[(i + 1) % k]) for i in range(k)):
            total += 1
    return total // (2 * k)


def brute_walks(
    has_edge: EdgePredicate,
    n: int,
    starts: Sequence[int],
    edges: int,
    end: int | None = None,
    inner: int = -1,
    last: int = -1,
) -> int:
    """Simple directed paths with `edges` edges from a vertex in `starts`.

    Vertex sequences, so each path is counted once per start it admits;
    with `end` given, only paths whose last vertex is `end`.  The vertices
    after the start must lie in the bitmask `inner`, and with edges >= 1
    the last one in the bitmask `last`.
    """
    if edges + 1 > n:
        return 0
    total = 0
    for perm in permutations(range(n), edges + 1):
        if perm[0] not in starts or (end is not None and perm[-1] != end):
            continue
        if any(not inner >> v & 1 for v in perm[1:]) or (edges and not last >> perm[-1] & 1):
            continue
        if all(has_edge(perm[i], perm[i + 1]) for i in range(edges)):
            total += 1
    return total


def brute_stars(has_edge: EdgePredicate, n: int, k: int) -> int:
    """Copies of the star with k leaves, distinguished center."""
    total = 0
    for center in range(n):
        deg = sum(1 for w in range(n) if w != center and has_edge(center, w))
        total += comb(deg, k)
    return total


def brute_triangles(has_edge: EdgePredicate, n: int) -> int:
    total = 0
    for a, b, c in combinations(range(n), 3):
        if has_edge(a, b) and has_edge(a, c) and has_edge(b, c):
            total += 1
    return total


def mono_copies(masks: Sequence[int], red_bits: int) -> int:
    """Copies, given as edge bitmasks, that are all red or all blue; an
    edgeless copy is both, so it counts once in each color."""
    return sum((m & red_bits == m) + (m & red_bits == 0) for m in masks)


def brute_min(pattern: Pattern, n: int) -> int:
    """Fewest monochromatic copies over all 2^C(n,2) colorings of K_n."""
    masks = copy_edge_masks(pattern, n)
    return min(mono_copies(masks, bits) for bits in range(1 << comb(n, 2)))


def goodman_min_triangles(n: int) -> int:
    """Fewest monochromatic triangles in a 2-coloring of K_n, by Goodman's
    closed form (1959): m(m-1)(m-2)/3 at n = 2m, 2m(m-1)(4m+1)/3 at
    n = 4m+1 and 2m(m+1)(4m-1)/3 at n = 4m+3."""
    m, rest = divmod(n, 4)
    if n % 2 == 0:
        return (n // 2) * (n // 2 - 1) * (n // 2 - 2) // 3
    if rest == 1:
        return 2 * m * (m - 1) * (4 * m + 1) // 3
    return 2 * m * (m + 1) * (4 * m - 1) // 3


def brute_canonical(adj: Sequence[int], n: int) -> tuple[int, ...]:
    """Adjacency masks of the labeling of the graph adj whose column-major
    rows are least: row p lists, most significant first, the edges from
    position p to positions 0..p-1.  Scans every vertex order."""

    def rows(order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(adj[order[p]] >> order[q] & 1 for q in range(p)) for p in range(n)
        )

    order = min(permutations(range(n)), key=rows)
    return tuple(
        sum(1 << q for q in range(n) if adj[order[p]] >> order[q] & 1) for p in range(n)
    )


def brute_regularity(
    has_edge: EdgePredicate, xs: Sequence[int], ys: Sequence[int], eps: Fraction
) -> Fraction:
    """Largest |d(U,V) - d(X,Y)| over every U of X and V of Y with
    |U| >= eps|X| and |V| >= eps|Y| (both nonempty); 0 if none qualifies."""

    def density(us: Sequence[int], vs: Sequence[int]) -> Fraction:
        return Fraction(sum(has_edge(u, v) for u in us for v in vs), len(us) * len(vs))

    base = density(xs, ys)
    worst = Fraction(0)
    for a in range(1, len(xs) + 1):
        for b in range(1, len(ys) + 1):
            if a < eps * len(xs) or b < eps * len(ys):
                continue
            for us in combinations(xs, a):
                for vs in combinations(ys, b):
                    worst = max(worst, abs(density(us, vs) - base))
    return worst


def fraction_regularity(
    has_edge: EdgePredicate, xs: Sequence[int], ys: Sequence[int], eps: Fraction
) -> tuple[bool, Fraction, Fraction, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """(regular, base density, worst deviation, witness) by a counterpart
    scan in Fractions, at every candidate.

    Every U of the smaller side (X on a tie) is visited in increasing
    bitmask order over the sorted side.  For each size s >= eps|other side|
    in increasing order, the s vertices of the other side of largest and
    then of smallest degree into U (ties broken by label) give one
    candidate each.  The witness is the first candidate of the largest
    deviation, oriented as (part of X, part of Y).
    """
    xs, ys = sorted(xs), sorted(ys)
    swapped = len(ys) < len(xs)
    side, other = (ys, xs) if swapped else (xs, ys)
    base = Fraction(sum(has_edge(x, y) for x in xs for y in ys), len(xs) * len(ys))
    worst = Fraction(0)
    witness = None
    for umask in range(1, 1 << len(side)):
        us = [side[i] for i in range(len(side)) if umask >> i & 1]
        if len(us) < eps * len(side):
            continue
        degs = sorted((sum(has_edge(u, w) for u in us), w) for w in other)
        for s in range(1, len(other) + 1):
            if s < eps * len(other):
                continue
            for pick in (degs[len(degs) - s :], degs[:s]):
                dev = abs(Fraction(sum(d for d, _ in pick), len(us) * s) - base)
                if dev > worst:
                    worst = dev
                    vs = sorted(w for _, w in pick)
                    witness = (tuple(vs), tuple(us)) if swapped else (tuple(us), tuple(vs))
    regular = worst <= eps
    return regular, base, worst, None if regular else witness


def matching_number(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """Maximum matching size by branch on the first remaining edge."""
    edges = [tuple(e) for e in edges]

    def go(remaining: tuple[tuple[int, int], ...]) -> int:
        if not remaining:
            return 0
        u, v = remaining[0]
        rest = remaining[1:]
        skip = go(rest)
        take = 1 + go(tuple(e for e in rest if u not in e and v not in e))
        return max(skip, take)

    return go(tuple(edges))


def all_short_paths(
    adj: Sequence[Sequence[int]], u: int, v: int, max_len: int
) -> list[tuple[int, ...]]:
    """Every simple u-v path with at most max_len edges."""
    found: list[tuple[int, ...]] = []

    def extend(path: list[int], used: set[int]) -> None:
        last = path[-1]
        if last == v:
            found.append(tuple(path))
            return
        if len(path) - 1 >= max_len:
            return
        for w in adj[last]:
            if w == v or w not in used:
                path.append(w)
                used.add(w)
                extend(path, used)
                used.discard(w)
                path.pop()

    extend([u], {u})
    return found


def max_disjoint_short_paths(
    adj: Sequence[Sequence[int]], u: int, v: int, max_len: int
) -> int:
    """Largest internally-disjoint family of short u-v paths, by packing."""
    paths = all_short_paths(adj, u, v, max_len)
    interiors = [frozenset(p[1:-1]) for p in paths]

    best = 0

    def pack(idx: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(interiors) - idx) <= best:
            return
        for j in range(idx, len(interiors)):
            if not (interiors[j] & used):
                pack(j + 1, used | interiors[j], count + 1)

    pack(0, frozenset(), 0)
    return best


def menger_paths(adj: Sequence[Sequence[int]], u: int, v: int) -> int:
    """Most internally-disjoint u-v paths of any length, by Menger's theorem.

    A unit-capacity max flow from u to v in which every other vertex w is
    split into w_in (node 2w) -> w_out (node 2w + 1) of capacity 1, and each
    edge {a, b} is the arcs a_out -> b_in and b_out -> a_in; a direct edge
    u-v is one path.  Each augmenting path is found by breadth-first search.
    """
    n = len(adj)
    cap: list[dict[int, int]] = [{} for _ in range(2 * n)]

    def arc(a: int, b: int, c: int) -> None:
        cap[a][b] = cap[a].get(b, 0) + c
        cap[b].setdefault(a, 0)

    for w in range(n):
        arc(2 * w, 2 * w + 1, n if w in (u, v) else 1)
        for x in adj[w]:
            arc(2 * w + 1, 2 * x, 1)
    source, sink = 2 * u, 2 * v + 1
    flow = 0
    while True:
        parent: dict[int, int | None] = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            a = queue.popleft()
            for b, c in cap[a].items():
                if c and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return flow
        b = sink
        while (a := parent[b]) is not None:
            cap[a][b] -= 1
            cap[b][a] += 1
            b = a
        flow += 1
