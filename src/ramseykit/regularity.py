"""Density, regularity, reduced graphs, and stability analysis.

This module supplies the vocabulary for edge-density arguments at desk
scale: exact rational pair densities, an exhaustive epsilon-regularity
checker (with a one-sided sampling fallback for larger parts), reduced
graphs over a vertex partition, a matching-based dichotomy on reduced
graphs, a detector for near-split colorings, and numeric checkers that
compare closed-form lower bounds for bipartite path counts against
exact counts.

Both regularity checkers call one deviation formula, `_deviations`, on the
two extreme degree sums of a subset S of one side: the lo vertices of the
other side of largest and of smallest degree into S, lo the least
admissible counterpart size, deviate furthest from the base density, so no
other counterpart of any size needs visiting.  The exhaustive checker
builds the degrees of every S of the smaller side by doubling, in numpy
blocks of 2^EXACT_BLOCK_BITS subsets, and keeps the first S of largest
deviation; it alone loads numpy.  The sampler draws one random S a trial
from one seeded stream, counts its degrees as popcounts of the cross rows
and reports the first trial whose high end, then low end, passes eps.
`_witness` rebuilds (U, V) only for a verdict that reports one.

Every check of a disjoint part pair reads it through `_pair`: the one part
check, both masks, and g's X-Y edges alone as one row per vertex of g.
Every degree a check tests counts the set bits of such a row, and the bound
checkers walk the rows within the pair, so vertices off it count towards
neither the walk kernel's choice nor its size estimate.

Conventions
-----------
Every verdict is exact.  The regularity checkers compare deviations in
integers, numpy int64 in the exhaustive scan, whose values stay below
2^37 up to EXACT_REGULARITY_MAX, and Python ints in the sampler, and
build a `Fraction` only for the densities and deviations they report;
other checks compare Fractions.  Floats appear only in displayed bounds,
each evaluated after its exact count, which refuses an oversized walk
before the bound could overflow; a float parameter x is read as
``Fraction(str(x))``, so ``0.05`` means 1/20.

The density between disjoint sets X, Y is e(X,Y)/(|X||Y|).  The density
within a single set X is d(X,X) = 2e(X)/|X|^2 (every inner edge counted
as two ordered pairs).  The near-split detector is the one exception: it
judges the inside-A condition by induced-subgraph density e(A)/C(|A|,2),
which is the natural reading for "the graph G[A] has density at least
1 - alpha" and the one under which a monochromatic clique has density 1.
It reads only the graph of the inside color: every A-B pair has one
color, so the other color's cross density is 1 - d(A,B) in that graph.

Every function here reads plain `SimpleGraph`s; the graph of one color of
a coloring is ``coloring.view(color)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .coloring import BLUE, RED, EdgeColoring, job_seed
from .counting import count_walks
from .errors import CapabilityError, DomainError
from .graph import SimpleGraph, _bit_matrix, _bits, _numpy
from .structure import max_matching

EXACT_REGULARITY_MAX = 18
# the exhaustive checker scans 2^EXACT_BLOCK_BITS subsets at a time
EXACT_BLOCK_BITS = 12


def as_fraction(x: object) -> Fraction:
    """Exact rational view of a parameter.

    Ints, Fractions and strings such as "2/5" are read as given, floats via
    their shortest decimal repr (0.3 is 3/10); anything else is a DomainError.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, str, Fraction)):
        raise DomainError(f"cannot interpret {x!r} as an exact rational")
    try:
        return Fraction(str(x) if isinstance(x, float) else x)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot interpret {x!r} as an exact rational") from exc


def _eps_and_d(eps: object, d: object) -> tuple[Fraction, Fraction]:
    """eps and d as exact rationals; eps must be positive."""
    epsf, df = as_fraction(eps), as_fraction(d)
    if epsf <= 0:
        raise DomainError("eps must be positive")
    return epsf, df


def _vertex_mask(vertices: Iterable[int], n: int) -> int:
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            raise DomainError(f"vertex {v} out of range for n={n}")
        if m >> v & 1:
            raise DomainError(f"vertex {v} repeated")
        m |= 1 << v
    return m


def _part_masks(n: int, *parts: Iterable[int]) -> list[int]:
    """Bitmask of each part; parts must be nonempty, in range, free of
    repeats and pairwise disjoint."""
    masks = []
    seen = 0
    for part in parts:
        m = _vertex_mask(part, n)
        if not m:
            raise DomainError("parts must be nonempty")
        if m & seen:
            raise DomainError("parts must be disjoint")
        seen |= m
        masks.append(m)
    return masks


def _pair(g: SimpleGraph, xs: Iterable[int], ys: Iterable[int]) -> tuple[int, int, list[int]]:
    """Masks of a disjoint part pair, after the one part check, and g's X-Y
    edges alone as one row per vertex of g, empty off the pair."""
    xmask, ymask = _part_masks(g.n, xs, ys)
    cross = [0] * g.n
    for x in _bits(xmask):
        cross[x] = g.adj[x] & ymask
    for y in _bits(ymask):
        cross[y] = g.adj[y] & xmask
    return xmask, ymask, cross


# ---------------------------------------------------------------------------
# pair density
# ---------------------------------------------------------------------------


def pair_density(g: SimpleGraph, xs: Iterable[int], ys: Iterable[int]) -> Fraction:
    """Edge density d(X,Y) = e(X,Y)/(|X||Y|) as an exact rational.

    Overlapping sets are handled by counting ordered pairs, so
    d(X,X) = 2e(X)/|X|^2.  Use float() on the result for display.
    """
    xmask = _vertex_mask(xs, g.n)
    ymask = _vertex_mask(ys, g.n)
    if not xmask or not ymask:
        raise DomainError("density needs nonempty vertex sets")
    ordered = sum((g.adj[x] & ymask).bit_count() for x in _bits(xmask))
    return Fraction(ordered, xmask.bit_count() * ymask.bit_count())


# ---------------------------------------------------------------------------
# epsilon-regularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityResult:
    """Outcome of the exhaustive regularity check.

    `deviation` is the largest |d(U,V) - d(X,Y)| over all qualifying
    subset pairs; `witness` is a worst violating pair (U, V) when the
    pair is irregular, else None.
    """

    regular: bool
    eps: Fraction
    base_density: Fraction
    deviation: Fraction
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None


def _check_pair_inputs(
    g: SimpleGraph, xs: Sequence[int], ys: Sequence[int], eps: Fraction
) -> tuple[list[int], list[int], Fraction, list[int]]:
    """Both parts sorted, their density d(X,Y) and the pair's cross rows."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    xmask, ymask, cross = _pair(g, xs, ys)
    xs_s, ys_s = list(_bits(xmask)), list(_bits(ymask))
    base = Fraction(sum(cross[x].bit_count() for x in xs_s), len(xs_s) * len(ys_s))
    return xs_s, ys_s, base, cross


def _deviations(top, bottom, sizes, lo: int, p: int, q: int):
    """(high, low, den) of a subset S of `sizes` vertices whose lo
    counterparts of largest degree into S have degree sum `top` and whose lo
    of smallest have `bottom`: |d(S,T) - p/q| is high/den for T the former
    and low/den for the latter.  The mean degree into S of the s
    counterparts of largest (smallest) degree falls (rises) with s, so no
    larger T deviates further.  Each value is at most den = q |S| lo.  Ints
    serve one subset, and numpy arrays a block of them."""
    ulo = sizes * lo
    mid = p * ulo
    return abs(top * q - mid), abs(mid - bottom * q), q * ulo


def _witness(
    cross: Sequence[int], smask: int, other: Sequence[int], lo: int, high: bool, swapped: bool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Witness (U, V) from a scanned subset S of one side: T is the lo
    vertices of `other` of largest (`high`) or smallest degree into S, ties
    broken by a (degree, vertex) sort, and U is S unless `swapped`."""
    ranked = sorted(((cross[w] & smask).bit_count(), w) for w in other)
    pick = ranked[len(ranked) - lo :] if high else ranked[:lo]
    s = tuple(_bits(smask))
    t = tuple(sorted(w for _, w in pick))
    return (t, s) if swapped else (s, t)


def _subset_sums(rows):
    """Row i is the sum of the rows j of `rows` with bit j of i set."""
    np = _numpy()

    sums = np.zeros((1 << len(rows), rows.shape[1]), rows.dtype)
    for j, row in enumerate(rows):
        sums[1 << j : 2 << j] = sums[: 1 << j] + row
    return sums


def eps_regular_exact(
    g: SimpleGraph, xs: Sequence[int], ys: Sequence[int], eps: object
) -> RegularityResult:
    """Exhaustive regularity test for a disjoint pair (X, Y).

    The pair is eps-regular when every U subset of X, V subset of Y with
    |U| >= eps|X| and |V| >= eps|Y| satisfies |d(U,V) - d(X,Y)| <= eps.
    Subsets U of the smaller side (k vertices) are enumerated; on the other
    side (m vertices) only the ceil(eps m) of largest and of smallest degree
    into U matter.  The degrees into every U of the m counterparts are built
    by doubling, in blocks of 2^EXACT_BLOCK_BITS subsets, and each block is
    sorted along its rows and scanned at once: 2.3 ms on a random 14x14 pair
    of density 1/2 and 35 ms at the 18x18 cap (Python 3.11, numpy 2.4,
    shared two-core host), where one scan per subset took 34 ms and 0.8 s.
    All comparisons are exact.
    """
    np = _numpy()

    epsf = as_fraction(eps)
    xs_s, ys_s, base, cross = _check_pair_inputs(g, xs, ys, epsf)
    if len(xs_s) > EXACT_REGULARITY_MAX or len(ys_s) > EXACT_REGULARITY_MAX:
        raise CapabilityError(
            f"exact regularity is limited to parts of size {EXACT_REGULARITY_MAX}; "
            "use eps_regular_sample for evidence at larger sizes"
        )
    swapped = len(ys_s) < len(xs_s)
    enum_side, scan_side = (ys_s, xs_s) if swapped else (xs_s, ys_s)
    p, q = base.numerator, base.denominator
    k = len(enum_side)
    enum_min = math.ceil(epsf * k)
    # an eps above 1 qualifies no S; capping lo then keeps every value in
    # the bound below and changes no verdict
    lo = min(math.ceil(epsf * len(scan_side)), len(scan_side))
    # A subset S of index i holds enum_side[j] for each bit j of i.  Its
    # deviation dev/den, den = q lo |S|, is key/scale for key = dev * span //
    # |S|, span = lcm(1..k) and scale = q lo span; every value the scan
    # forms is at most scale, as dev <= den <= q lo k.  With q <= |X||Y| and
    # lo, k <= EXACT_REGULARITY_MAX = 18, scale < 2^37, so int64 holds every
    # value.  weight[|S|] is span // |S|, and 0 for an S too small to
    # qualify.
    span = math.lcm(*range(1, k + 1))
    scale = q * lo * span
    weight = np.array([span // s if s >= enum_min else 0 for s in range(k + 1)], np.int64)
    # a vertex's row is 1, then its edges to scan_side, so a subset's row
    # sum is |S|, then its degrees
    rows = np.ones((k, len(scan_side) + 1), np.int64)
    rows[:, 1:] = _bit_matrix([cross[v] for v in enum_side], g.n)[:, scan_side]
    bits = min(k, EXACT_BLOCK_BITS)
    head, tails = _subset_sums(rows[:bits]), _subset_sums(rows[bits:])
    # the first S of strictly larger key in subset order
    worst, worst_s, worst_high = 0, 0, False
    for t, tail in enumerate(tails):
        block = head + tail
        sizes, degs = block[:, 0], block[:, 1:]
        degs.sort(axis=1)
        high, low, _ = _deviations(
            degs[:, -lo:].sum(axis=1), degs[:, :lo].sum(axis=1), sizes, lo, p, q
        )
        keys = np.maximum(high, low) * weight[sizes.astype(np.intp, copy=False)]
        i = int(keys.argmax())
        if keys[i] > worst:
            worst, worst_high = int(keys[i]), bool(high[i] >= low[i])
            index = t << bits | i
            worst_s = sum(1 << v for j, v in enumerate(enum_side) if index >> j & 1)
    regular = worst * epsf.denominator <= epsf.numerator * scale
    witness = None
    if not regular:
        witness = _witness(cross, worst_s, scan_side, lo, worst_high, swapped)
    return RegularityResult(
        regular=regular,
        eps=epsf,
        base_density=base,
        deviation=Fraction(worst, scale),
        witness=witness,
    )


@dataclass(frozen=True)
class SampleVerdict:
    """Evidence-level outcome of randomized regularity probing.

    `status` is "violated" (with a concrete witness, refuting regularity)
    or "no-violation-found" (evidence only, never proof).  The object
    refuses boolean coercion so absence of violations cannot silently be
    consumed as "regular".
    """

    status: str
    eps: Fraction
    base_density: Fraction
    trials: int
    deviation: Fraction | None = None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def __bool__(self) -> bool:
        raise TypeError(
            "SampleVerdict is evidence-level; test .status explicitly"
        )


def eps_regular_sample(
    g: SimpleGraph,
    xs: Sequence[int],
    ys: Sequence[int],
    eps: object,
    trials: int = 2000,
    seed: int = 0,
) -> SampleVerdict:
    """One-sided randomized regularity probe.

    Each trial samples a qualifying subset of one side uniformly at
    random and pairs it with its extremal counterparts on the other
    side (at the least admissible size, the vertices of largest and of
    smallest degree into the sampled subset), which dominate every
    other choice of counterpart.  A trial counts the degrees into its
    subset as popcounts of the pair's cross rows, in Python ints, so the
    sampler loads no numpy.  The first trial whose deviation passes eps
    refutes regularity with a verified witness.  Finding none is reported
    as "no-violation-found" and must not be read as "regular".
    """
    epsf = as_fraction(eps)
    xs_s, ys_s, base, cross = _check_pair_inputs(g, xs, ys, epsf)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 0:
        raise DomainError(f"trials must be a nonnegative int, not {trials!r}")
    nx, ny = len(xs_s), len(ys_s)
    u_min = math.ceil(epsf * nx)
    v_min = math.ceil(epsf * ny)
    if u_min > nx or v_min > ny:
        return SampleVerdict(
            status="no-violation-found", eps=epsf, base_density=base, trials=0
        )
    p, q = base.numerator, base.denominator
    # even trials pick S from X and scan Y, odd trials the reverse
    views = ((xs_s, ys_s, u_min, v_min), (ys_s, xs_s, v_min, u_min))
    rng = Random(seed)
    for t in range(trials):
        side, other, s_lo, o_lo = views[t % 2]
        size = rng.randint(s_lo, len(side))
        smask = sum(1 << w for w in rng.sample(side, size))
        degs = sorted([(cross[w] & smask).bit_count() for w in other])
        high, low, den = _deviations(sum(degs[-o_lo:]), sum(degs[:o_lo]), size, o_lo, p, q)
        for dev, is_high in ((high, True), (low, False)):
            if dev * epsf.denominator > epsf.numerator * den:
                return SampleVerdict(
                    status="violated",
                    eps=epsf,
                    base_density=base,
                    trials=t + 1,
                    deviation=Fraction(dev, den),
                    witness=_witness(cross, smask, other, o_lo, is_high, t % 2 == 1),
                )
    return SampleVerdict(
        status="no-violation-found", eps=epsf, base_density=base, trials=trials
    )


class DegreeDeviationReport(NamedTuple):
    count_high: int
    count_low: int
    passed: bool


def degree_deviation_check(
    g: SimpleGraph,
    xs: Sequence[int],
    ys: Sequence[int],
    d: object,
    eps: object,
) -> DegreeDeviationReport:
    """Count X-vertices whose degree into Y strays beyond (d +- eps)|Y|.

    Passes when both the high count (degree > (d+eps)|Y|) and the low
    count (degree < (d-eps)|Y|) are strictly below eps|X|, the degree
    distribution every regular pair must exhibit.  X and Y must be
    disjoint parts.
    """
    epsf, df = _eps_and_d(eps, d)
    xmask, ymask, cross = _pair(g, xs, ys)
    ny = ymask.bit_count()
    hi, lo = (df + epsf) * ny, (df - epsf) * ny
    degs = [cross[x].bit_count() for x in _bits(xmask)]
    count_high = sum(deg > hi for deg in degs)
    count_low = sum(deg < lo for deg in degs)
    limit = epsf * xmask.bit_count()
    passed = count_high < limit and count_low < limit
    return DegreeDeviationReport(count_high, count_low, passed)


# ---------------------------------------------------------------------------
# vertex partitions and reduced graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint nonempty vertex sets covering a subset of [0, n)."""

    n: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _part_masks(self.n, *self.parts)

    @classmethod
    def from_parts(cls, n: int, parts: Iterable[Sequence[int]]) -> "VertexPartition":
        return cls(n, tuple(tuple(sorted(p)) for p in parts))

    @classmethod
    def consecutive(cls, n: int, parts_count: int) -> "VertexPartition":
        """Split [0,n) into `parts_count` consecutive near-equal parts."""
        if parts_count <= 0 or parts_count > n:
            raise DomainError("need 1 <= parts_count <= n")
        q, r = divmod(n, parts_count)
        parts = []
        start = 0
        for i in range(parts_count):
            size = q + (1 if i < r else 0)
            parts.append(tuple(range(start, start + size)))
            start += size
        return cls(n, tuple(parts))

    @classmethod
    def of_size(cls, n: int, size: int) -> "VertexPartition":
        """Consecutive parts of exactly `size`; leftover vertices uncovered."""
        if size <= 0 or size > n:
            raise DomainError("need 1 <= size <= n")
        count = n // size
        parts = tuple(
            tuple(range(i * size, (i + 1) * size)) for i in range(count)
        )
        return cls(n, parts)

    @property
    def equitable(self) -> bool:
        sizes = [len(p) for p in self.parts]
        return not sizes or max(sizes) - min(sizes) <= 1

    @property
    def covered(self) -> tuple[int, ...]:
        return tuple(sorted(v for p in self.parts for v in p))

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class PairAnnotation:
    """Per-pair record inside a reduced graph.

    `regular` maps color -> verdict string: "regular"/"irregular" in
    exact mode, "no-violation-found"/"violated" in sample mode (the
    latter are evidence-level, marked by `evidence_only`).
    """

    i: int
    j: int
    density: dict[str, Fraction]
    regular: dict[str, str]
    evidence_only: bool

    def admits(self, color: str, d: Fraction) -> bool:
        return (
            self.regular[color] in ("regular", "no-violation-found")
            and self.density[color] >= d
        )


@dataclass(frozen=True)
class ReducedGraph:
    """Reduced graph of a coloring over a vertex partition.

    Part i and part j are joined in a color when the pair was judged
    eps-regular in that color's graph with density at least d.  A pair
    may carry both colors, one, or none.
    """

    M: int
    part_sizes: tuple[int, ...]
    red_edges: frozenset[tuple[int, int]]
    blue_edges: frozenset[tuple[int, int]]
    annotations: dict[tuple[int, int], PairAnnotation]
    eps: Fraction
    d: Fraction
    mode: str

    def edges(self, color: str) -> frozenset[tuple[int, int]]:
        if color == RED:
            return self.red_edges
        if color == BLUE:
            return self.blue_edges
        raise DomainError(f"unknown color {color!r}")

    def graph(self, color: str) -> SimpleGraph:
        return SimpleGraph.from_edges(self.M, self.edges(color))


def build_reduced(
    coloring: EdgeColoring,
    partition: VertexPartition,
    eps: object,
    d: object,
    mode: str = "exact",
    trials: int = 2000,
    seed: int = 0,
) -> ReducedGraph:
    """Annotated reduced graph of a coloring over a partition.

    Exact mode tests every part pair exhaustively in red, and blue shares
    the verdict (parts capped at EXACT_REGULARITY_MAX); sample mode's verdicts
    are evidence-level and flagged as such, its sampler for parts i, j in one
    color seeded from (seed, i, j, color).
    """
    if mode not in ("exact", "sample"):
        raise DomainError("mode must be 'exact' or 'sample'")
    if partition.n != coloring.n:
        raise DomainError("partition and coloring disagree on n")
    epsf, df = _eps_and_d(eps, d)
    if mode == "sample" and (isinstance(trials, bool) or not isinstance(trials, int) or trials < 0):
        raise DomainError(f"trials must be a nonnegative int, not {trials!r}")
    parts = partition.parts
    m = len(parts)
    if mode == "exact" and any(len(p) > EXACT_REGULARITY_MAX for p in parts):
        raise CapabilityError(
            f"exact mode caps part size at {EXACT_REGULARITY_MAX}; use mode='sample'"
        )
    views = {color: coloring.view(color) for color in (RED, BLUE)}
    annotations = {}
    for i in range(m):
        for j in range(i + 1, m):
            if mode == "exact":  # each cross pair is red or blue: blue deviations negate red
                res = eps_regular_exact(views[RED], parts[i], parts[j], epsf)
                density = {RED: res.base_density, BLUE: 1 - res.base_density}
                regular = dict.fromkeys(density, "regular" if res.regular else "irregular")
            else:
                density, regular = {}, {}
                for color, gc in views.items():
                    res = eps_regular_sample(
                        gc, parts[i], parts[j], epsf, trials=trials,
                        seed=job_seed(seed, i, j, color),
                    )
                    regular[color] = res.status
                    density[color] = res.base_density
            annotations[i, j] = PairAnnotation(
                i=i, j=j, density=density, regular=regular, evidence_only=mode != "exact"
            )
    red = frozenset(k for k, a in annotations.items() if a.admits(RED, df))
    blue = frozenset(k for k, a in annotations.items() if a.admits(BLUE, df))
    return ReducedGraph(
        M=m,
        part_sizes=tuple(len(p) for p in parts),
        red_edges=red,
        blue_edges=blue,
        annotations=annotations,
        eps=epsf,
        d=df,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# matching dichotomy on reduced graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of the large-matching search on a reduced graph.

    When `case1` holds, `matching` is a monochromatic matching in
    `color` covering `covered` >= (2/3 + lam) * M vertices; for blue the
    matched vertices all lie within distance three of `core`.
    """

    case1: bool
    color: str | None
    matching: tuple[tuple[int, int], ...]
    core: int | None
    covered: int
    threshold: Fraction
    diagnostics: dict[str, object] = field(default_factory=dict)


def dichotomy_classify(rg: ReducedGraph, lam: object) -> DichotomyVerdict:
    """Search a reduced graph for the large monochromatic matching case.

    First looks for a red matching covering at least (2/3 + lam) * M
    vertices; failing that, for a blue matching of the same size whose
    matched vertices all sit within distance three of some single
    vertex.  Returns certificates, or a not-case1 verdict with the best
    coverage found per color.  lam must be nonnegative.
    """
    lamf = as_fraction(lam)
    if lamf < 0:
        raise DomainError("lam must be nonnegative")
    threshold = (Fraction(2, 3) + lamf) * rg.M

    red_matching = max_matching(rg.graph(RED))
    red_cov = 2 * len(red_matching)
    diagnostics: dict[str, object] = {"red_covered": red_cov}
    if red_cov >= threshold:
        return DichotomyVerdict(
            case1=True,
            color=RED,
            matching=tuple(red_matching),
            core=None,
            covered=red_cov,
            threshold=threshold,
            diagnostics=diagnostics,
        )

    # M >= 1 here, as the threshold of M = 0 is 0, so best_cov ends >= 0
    blue_graph = rg.graph(BLUE)
    best_core, best_cov = None, -1
    for v in range(rg.M):
        sub, verts = blue_graph.induced(blue_graph.ball(v, 3))
        matching = max_matching(sub)
        cov = 2 * len(matching)
        if cov >= threshold:
            # induced keeps vertex order, so the pairs stay sorted with a < b
            return DichotomyVerdict(
                case1=True,
                color=BLUE,
                matching=tuple((verts[a], verts[b]) for a, b in matching),
                core=v,
                covered=cov,
                threshold=threshold,
                diagnostics=diagnostics,
            )
        if cov > best_cov:
            best_core, best_cov = v, cov
    diagnostics.update(best_blue_core=best_core, best_blue_covered=best_cov)
    return DichotomyVerdict(
        case1=False,
        color=None,
        matching=(),
        core=None,
        covered=max(red_cov, best_cov),
        threshold=threshold,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# near-split detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalVerdict:
    """Near-split structure certificate.

    When `is_extremal`, the partition (A, B) satisfies, with parameter
    alpha: |A| >= (2/3 - alpha) n, |B| >= (1/3 - alpha) n, the induced
    graph on A has density >= 1 - alpha in `inner_color` (density
    e(A)/C(|A|,2)), and the A x B bipartite graph has density >= 1 -
    alpha in the other color.
    """

    is_extremal: bool
    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    alpha: Fraction
    inner_color: str | None = None
    inner_density: Fraction | None = None
    cross_density: Fraction | None = None
    diagnostics: dict[str, object] = field(default_factory=dict)


def _split_test(
    g: SimpleGraph, amask: int, alpha: Fraction, inner: str
) -> ExtremalVerdict | None:
    """Exact test of the near-split conditions for a candidate side A, read
    from g, the graph of the inside color."""
    n = g.n
    a = tuple(_bits(amask))
    k = len(a)
    if k < (Fraction(2, 3) - alpha) * n or n - k < (Fraction(1, 3) - alpha) * n:
        return None
    # e(A)/C(|A|,2), and 1 on fewer than two vertices
    inside = sum((g.adj[v] & amask).bit_count() for v in a)
    d_in = Fraction(inside, k * (k - 1)) if k >= 2 else Fraction(1)
    if d_in < 1 - alpha:
        return None
    # every cross pair has one color, so the other color's density is
    # 1 - d(A,B) in g, and 1 with an empty side
    bmask = ((1 << n) - 1) & ~amask
    cross = sum((g.adj[v] & bmask).bit_count() for v in a)
    d_cross = 1 - Fraction(cross, k * (n - k)) if 0 < k < n else Fraction(1)
    if d_cross < 1 - alpha:
        return None
    return ExtremalVerdict(
        is_extremal=True,
        a_side=a,
        b_side=tuple(_bits(bmask)),
        alpha=alpha,
        inner_color=inner,
        inner_density=d_in,
        cross_density=d_cross,
    )


def extremal_detect(coloring: EdgeColoring, alpha: object) -> ExtremalVerdict:
    """Search for a near-split partition witnessing the coloring's structure.

    For each choice of the inside color c, candidate sides A are grown
    from the high-c-degree vertices (the top 2n/3 prefix and the
    degree >= 2n/3 threshold set) and refined by the cleanup move
    A <- {v : deg_c(v, A) >= (2/3)|A|}, iterated at most n rounds; every
    new iterate is tested exactly against the defining inequalities, and a
    repeated one ends the run untested.  With alpha >= 2/3 the empty side A
    is trivially a witness.

    A miss's `converged` is False when a cleanup run repeated an iterate,
    mostly in a two-set cycle of small sides (a vertex a maps to N(a)): the
    usual end away from near-split colorings, not a failure.  Of 9,368 runs
    on 3,000 random and flipped-split colorings (n = 3-40), 6,848 ended in
    a repeat, 859 at the empty side, 1,293 at a fixed point, 368 in a
    witness and none at the round cap.
    """
    n = coloring.n
    if n < 3:
        raise DomainError("near-split detection needs n >= 3")
    alphaf = as_fraction(alpha)
    if alphaf >= Fraction(2, 3):
        return ExtremalVerdict(
            is_extremal=True,
            a_side=(),
            b_side=tuple(range(n)),
            alpha=alphaf,
            diagnostics={"trivial": True},
        )

    tested = 0
    converged = True
    for inner in (RED, BLUE):
        g = coloring.view(inner)
        degs = sorted(((-g.degree(v), v) for v in range(n)))
        prefix_size = -((-2 * n) // 3)  # ceil(2n/3)
        prefix = sum(1 << v for _, v in degs[:prefix_size])
        thresh = sum(1 << v for v in range(n) if 3 * g.degree(v) >= 2 * n)
        starts = [prefix, thresh] if thresh and thresh != prefix else [prefix]
        for current in starts:
            seen: set[int] = set()
            for _ in range(n + 1):
                if current in seen:  # tested already, and it failed
                    converged = False
                    break
                tested += 1
                verdict = _split_test(g, current, alphaf, inner)
                if verdict is not None:
                    return verdict
                seen.add(current)
                if not current:
                    break
                size = current.bit_count()
                nxt = sum(
                    1 << v for v in range(n) if 3 * (g.adj[v] & current).bit_count() >= 2 * size
                )
                if nxt == current:
                    break
                current = nxt
    return ExtremalVerdict(
        is_extremal=False,
        a_side=(),
        b_side=tuple(range(n)),
        alpha=alphaf,
        diagnostics={"candidates_tested": tested, "converged": converged},
    )


def dirac_check(g: SimpleGraph, vertices: Sequence[int]) -> bool:
    """True iff every vertex of the set has >= |S|/2 neighbors inside it."""
    s = len(vertices)
    if s < 3:
        raise DomainError("minimum-degree check needs |S| >= 3")
    mask = _vertex_mask(vertices, g.n)
    return all(2 * (g.adj[v] & mask).bit_count() >= s for v in vertices)


# ---------------------------------------------------------------------------
# numeric lower-bound checkers for bipartite path counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Comparison of a closed-form path-count lower bound with the exact count.

    `hypotheses` records each hypothesis by name with its exact verdict;
    the overall verdict is "confirmed" (hypotheses hold, bound <= exact),
    "vacuous" (some hypothesis fails; the bound is not asserted), or
    "violated" (hypotheses hold yet bound > exact, which would indicate
    an implementation bug).
    """

    mode: str
    hypotheses: dict[str, bool]
    bound: float
    exact_count: int
    params: dict[str, object]

    @property
    def hypotheses_satisfied(self) -> bool:
        return all(self.hypotheses.values())

    @property
    def verdict(self) -> str:
        if not self.hypotheses_satisfied:
            return "vacuous"
        return "confirmed" if self.bound <= self.exact_count else "violated"


def _alternating_falling(n: int, m: int) -> int:
    """prod_{i=1..m} (n - floor(i/2)), factors clamped at zero."""
    return math.prod(max(n - i // 2, 0) for i in range(1, m + 1))


def rooted_path_bound(
    g: SimpleGraph,
    us: Sequence[int],
    vs: Sequence[int],
    eps: object,
    d: object,
    l: int,
    v: int,
) -> BoundReport:
    """Lower bound on paths of length l from a high-degree root v in V.

    With n = min(|U|,|V|), whenever n >= 1/eps^2, d > eps + sqrt(eps),
    deg(v, U) >= (d - eps)|U| and 1 <= l <= 2(1 - sqrt(eps))n - 1, the
    bipartite graph between U and V carries at least
    (d - eps - sqrt(eps))^l * prod_{i=1..l} (n - floor(i/2)) paths of
    length l starting at v.  Hypotheses are decided exactly; the bound
    itself is evaluated in floats with negative bases clamped to zero.
    """
    epsf, df = _eps_and_d(eps, d)
    if l < 1:
        raise DomainError("path length must be at least 1")
    umask, vmask, cross = _pair(g, us, vs)
    if v < 0 or not vmask >> v & 1:
        raise DomainError("root vertex must lie in the second part")
    nu, nv = umask.bit_count(), vmask.bit_count()
    n = min(nu, nv)

    t = df - epsf
    hyp = {
        "min-part-size": n * epsf * epsf >= 1,
        "density-threshold": t > 0 and t * t > epsf,
        "root-degree": cross[v].bit_count() >= t * nu,
        "length-range": 2 * n - l - 1 >= 0
        and 4 * n * n * epsf <= (2 * n - l - 1) ** 2,
    }
    exact = count_walks(cross, (v,), l, inner=umask | vmask)
    base = max(float(df) - float(epsf) - math.sqrt(float(epsf)), 0.0)
    bound = base**l * _alternating_falling(n, l)
    return BoundReport(
        mode="rooted",
        hypotheses=hyp,
        bound=bound,
        exact_count=exact,
        params={"eps": epsf, "d": df, "l": l, "v": v, "n": n},
    )


def endpoint_path_bound(
    g: SimpleGraph,
    us: Sequence[int],
    vs: Sequence[int],
    eps: object,
    d: object,
    l: int,
    u: int,
    v: int,
) -> BoundReport:
    """Lower bound on length-l paths joining two high-degree vertices.

    With n = min(|U|,|V|), whenever n >= 5/eps^2, d > 5 sqrt(eps), both
    endpoints are adjacent to at least a (d - eps) fraction of the
    other part, 3 <= l <= 2(1 - 2 sqrt(eps))n, and l is even exactly
    when the endpoints share a part, the bipartite graph carries at
    least (d - 7 sqrt(eps))^(l-1) * (eps n) * prod_{i=1..l-2}
    (n - floor(i/2)) paths of length l with ends u and v.
    """
    epsf, df = _eps_and_d(eps, d)
    if l < 1:
        raise DomainError("path length must be at least 1")
    if u == v:
        raise DomainError("endpoints must be distinct")
    umask, vmask, cross = _pair(g, us, vs)
    for w in (u, v):
        if w < 0 or not (umask | vmask) >> w & 1:
            raise DomainError("endpoints must lie in the parts")
    nu, nv = umask.bit_count(), vmask.bit_count()
    n = min(nu, nv)

    t = df - epsf

    def frac_ok(w: int) -> bool:
        return cross[w].bit_count() >= t * (nv if umask >> w & 1 else nu)

    same_part = bool(umask >> u & 1) == bool(umask >> v & 1)
    hyp = {
        "min-part-size": n * epsf * epsf >= 5,
        "density-threshold": df > 0 and df * df > 25 * epsf,
        "endpoint-degrees": frac_ok(u) and frac_ok(v),
        "length-range": 3 <= l
        and 2 * n - l >= 0
        and 16 * n * n * epsf <= (2 * n - l) ** 2,
        "length-parity": (l % 2 == 0) == same_part,
    }
    if l == 1:
        exact = cross[u] >> v & 1
    else:
        # walk from u through the pair avoiding v, then close on a neighbour of v
        exact = count_walks(cross, (u,), l - 1, inner=(umask | vmask) & ~(1 << v), end=cross[v])
    base = max(float(df) - 7 * math.sqrt(float(epsf)), 0.0)
    bound = base ** (l - 1) * float(epsf) * n * _alternating_falling(n, l - 2)
    return BoundReport(
        mode="endpoints",
        hypotheses=hyp,
        bound=bound,
        exact_count=exact,
        params={"eps": epsf, "d": df, "l": l, "u": u, "v": v, "n": n},
    )


def dense_bipartite_bound(
    g: SimpleGraph,
    us: Sequence[int],
    vs: Sequence[int],
    beta: object,
    delta: object,
    k: int,
) -> BoundReport:
    """Lower bound on k-vertex paths starting in V of a very dense pair.

    Whenever |V| >= 3k/4, |U| >= floor(k/2), the density between U and V
    is at least 1 - beta with beta < 1e-4, and every U-vertex has degree
    at least delta >= 4 sqrt(beta) max(|V|, 2|U|), the pair carries at
    least (delta / 4|V|)^(2 sqrt(beta) |U|) * (1 - 4 sqrt(beta)|U|/delta)^(k/2)
    * (1 - 6 sqrt(beta))^(k/2) * (|U|)_{floor(k/2)} * (|V|)_{ceil(k/2)}
    paths with k vertices starting in V.  Paths are counted as directed
    traversals whose first vertex lies in V (on complete bipartite pairs
    the count equals the falling-factorial product exactly).
    """
    betaf = as_fraction(beta)
    deltaf = as_fraction(delta)
    if betaf < 0:
        raise DomainError("beta must be nonnegative")
    if k < 1:
        raise DomainError("k must be at least 1")
    umask, vmask, cross = _pair(g, us, vs)
    nu, nv = umask.bit_count(), vmask.bit_count()

    u_degs = [cross[u].bit_count() for u in _bits(umask)]
    edges = sum(u_degs)
    min_u_deg = min(u_degs)
    mx = max(nv, 2 * nu)
    hyp = {
        "v-part-size": 4 * nv >= 3 * k,
        "u-part-size": nu >= k // 2,
        "density": edges >= (1 - betaf) * nu * nv,
        "density-slack": betaf < Fraction(1, 10000),
        "degree-threshold": deltaf >= 0
        and deltaf * deltaf >= 16 * betaf * mx * mx,
        "u-min-degree": min_u_deg >= deltaf,
    }
    # One start a call: at |U| = 6, |V| = 9, k = 6 a call from all of V
    # estimates 21,984 states over its layers, past DENSE_MIN_STATES, and
    # `verify --suite bounds` would load numpy; one start estimates 7,051.
    exact = sum(count_walks(cross, (v,), k - 1, inner=umask | vmask) for v in _bits(vmask))
    sb = math.sqrt(float(betaf))
    deltav = float(deltaf)
    # each factor clamps its base at 0.0, and 0.0 ** 0.0 == 1.0; at delta <= 0
    # f2's base 1 - loss / delta clamps to 0.0 unless loss is 0
    f1 = max(deltav / (4 * nv), 0.0) ** (2 * sb * nu)
    loss = 4 * sb * nu
    f2 = max(1 - loss / deltav, 0.0) ** (k / 2) if deltav > 0 else 0.0 ** loss
    f3 = max(1 - 6 * sb, 0.0) ** (k / 2)
    bound = f1 * f2 * f3 * math.perm(nu, k // 2) * math.perm(nv, (k + 1) // 2)
    return BoundReport(
        mode="dense-bipartite",
        hypotheses=hyp,
        bound=bound,
        exact_count=exact,
        params={"beta": betaf, "delta": deltaf, "k": k},
    )


_BOUND_CHECKERS = {
    "rooted": (rooted_path_bound, ("eps", "d", "l", "v")),
    "endpoints": (endpoint_path_bound, ("eps", "d", "l", "u", "v")),
    "dense-bipartite": (dense_bipartite_bound, ("beta", "delta", "k")),
}


def verify_count_bounds(
    g: SimpleGraph, us: Sequence[int], vs: Sequence[int], params: dict
) -> BoundReport:
    """Dispatch a bound check by `params["mode"]`.

    Modes: "rooted" (keys eps, d, l, v), "endpoints" (eps, d, l, u, v),
    "dense-bipartite" (beta, delta, k).  A hypothesis failure yields a
    vacuous report, never a violation.
    """
    if "mode" not in params:
        raise DomainError("params must include a 'mode' key")
    mode = params["mode"]
    if not isinstance(mode, str) or mode not in _BOUND_CHECKERS:
        raise DomainError(f"unknown mode {mode!r}")
    checker, keys = _BOUND_CHECKERS[mode]
    try:
        args = [params[key] for key in keys]
    except KeyError as exc:
        raise DomainError(f"missing parameter {exc} for mode {mode!r}") from exc
    return checker(g, us, vs, *args)
