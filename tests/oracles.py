"""Independent reference implementations used to cross-check the package.

Everything here is written for clarity over speed and deliberately avoids
the package's own counting or matching code: permutation enumeration for
paths and cycles, subset enumeration for matchings and pair regularity,
plain backtracking for disjoint-path packing, and a sweep of every coloring
for minimum monochromatic counts (which takes its list of copies from
``copy_edge_masks``).  Only usable at small sizes.
"""

from __future__ import annotations

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
) -> int:
    """Simple directed paths with `edges` edges from a vertex in `starts`.

    Vertex sequences, so each path is counted once per start it admits;
    with `end` given, only paths whose last vertex is `end`.
    """
    if edges + 1 > n:
        return 0
    total = 0
    for perm in permutations(range(n), edges + 1):
        if perm[0] not in starts or (end is not None and perm[-1] != end):
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
