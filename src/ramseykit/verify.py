"""Named verification suites backing the command-line `verify` command.

Every check is registered once, in order, under its suite with `_suite`;
`SUITES` lists the suites in registration order.  `run_suite` draws one
`Random(seed)` and hands it to each check of the suite in turn, so the
checks of a suite share one deterministic stream.  A check yields one
`(name, passed, detail)` triple per result.  Expected values come from the
library's closed forms (`conjectured_m`, `m_star`, `total_copies_in_complete`)
and are compared with exact counts.  Suites are quick health checks
(seconds, not minutes); the heavyweight sweeps live in the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, NamedTuple

from .coloring import BLUE, RED, EdgeColoring, split_coloring
from .counting import Pattern, count_mono, formula_split_paths, total_copies_in_complete
from .errors import DomainError
from .formulas import conjectured_m, m_star, r_path
from .graph import SimpleGraph
from .regularity import (
    VertexPartition,
    _alternating_falling,
    build_reduced,
    degree_deviation_check,
    dichotomy_classify,
    dirac_check,
    dense_bipartite_bound,
    endpoint_path_bound,
    eps_regular_exact,
    extremal_detect,
    rooted_path_bound,
)
from .structure import (
    disjoint_short_paths,
    konig_edge_bound_check,
    max_matching,
    verify_erdos_gallai,
    well_connected_check,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


Results = Iterator[tuple[str, bool, str]]
Check = Callable[[Random, int], Results]

_CHECKS: dict[str, list[Check]] = {}


def _suite(name: str) -> Callable[[Check], Check]:
    """Append the decorated check to suite `name`, in definition order."""

    def register(check: Check) -> Check:
        _CHECKS.setdefault(name, []).append(check)
        return check

    return register


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    rng = Random(seed)
    return [
        CheckResult(check_name, bool(passed), detail)
        for check in _CHECKS[name]
        for check_name, passed, detail in check(rng, seed)
    ]


def _bipartite(a: int, b: int, keep: Callable[[int, int], bool]) -> SimpleGraph:
    """Parts range(a) and range(a, a+b); keep(i, j), called i-major, keeps (i, a+j)."""
    return SimpleGraph.from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b) if keep(i, j)]
    )


def _one_color(n: int) -> EdgeColoring:
    """K_n with every edge red."""
    return EdgeColoring(n, (1 << n * (n - 1) // 2) - 1)


# ---------------------------------------------------------------------------
# formulas: closed-form count identities on split colorings
# ---------------------------------------------------------------------------


@_suite("formulas")
def _split_counts(rng: Random, seed: int) -> Results:
    for k in (4, 6, 8):
        want = conjectured_m(Pattern.path(k)).value
        got_a = count_mono(split_coloring(k, k // 2 - 1), Pattern.path(k))
        got_b = count_mono(split_coloring(k - 1, k // 2), Pattern.path(k))
        closed = formula_split_paths(k, k // 2 - 1, k)
        yield (
            f"even-path-split-k{k}",
            got_a == want and got_b == want,
            f"split colorings give {got_a} and {got_b}, expected {want}",
        )
        yield (
            f"even-path-closed-form-k{k}",
            closed == got_a,
            f"closed form {closed} vs subset-DP count {got_a}",
        )

    # each split coloring has r(H) vertices
    flip = [(0, 1)]
    for tag, what, pattern, coloring in (
        ("odd-path-split-k5", "split", Pattern.path(5), split_coloring(4, 2)),
        ("odd-path-split-k7", "split", Pattern.path(7), split_coloring(6, 3)),
        ("even-cycle-flip-k6", "flipped split", Pattern.cycle(6), split_coloring(6, 2, flip)),
        ("even-cycle-flip-k8", "flipped split", Pattern.cycle(8), split_coloring(8, 3, flip)),
        ("odd-cycle-split-k5", "split", Pattern.cycle(5), split_coloring(5, 4)),
        ("odd-cycle-split-k7", "split", Pattern.cycle(7), split_coloring(7, 6)),
    ):
        want = conjectured_m(pattern).value
        got = count_mono(coloring, pattern)
        yield tag, got == want, f"{what} coloring gives {got}, expected {want}"

    counts = {
        k: count_mono(split_coloring(k - 1, k // 2 - 1), Pattern.path(k))
        for k in range(3, 13)
    }
    bad = [f"k={k} gives {got}" for k, got in counts.items() if got]
    yield (
        "path-zero-witnesses",
        not bad,
        "; ".join(bad)
        or "no monochromatic path in the one-short split coloring for k=3..12",
    )


def exhaustive_min(pattern: Pattern, n: int) -> MinimizationResult:
    """``search.exhaustive_min``, whose layer loads on the first call, so that
    only the formulas suite loads it."""
    from .search import exhaustive_min

    return exhaustive_min(pattern, n)


@_suite("formulas")
def _exhaustive_thresholds(rng: Random, seed: int) -> Results:
    yield (
        "path-threshold-positivity",
        all(
            exhaustive_min(Pattern.path(k), r_path(k).value).best_count > 0
            for k in (3, 4)
        ),
        "exhaustive minimum positive at the threshold size for k=3,4",
    )
    s2 = exhaustive_min(Pattern.star(2), 3).best_count
    s3 = exhaustive_min(Pattern.star(3), 6).best_count
    yield (
        "star-thresholds",
        s2 == m_star(2).value == 1 and s3 == m_star(3).value == 6,
        f"exhaustive minima {s2}, {s3} match closed forms 1, 6",
    )
    t5 = exhaustive_min(Pattern.triangle(), 5).best_count
    t6 = exhaustive_min(Pattern.triangle(), 6).best_count
    yield (
        "triangle-threshold",
        t5 == 0 and t6 == 2,
        f"triangle minima {t5} at n=5 and {t6} at n=6",
    )


@_suite("formulas")
def _complete_graph_copies(rng: Random, seed: int) -> Results:
    yield (
        "complete-graph-copy-counts",
        all(
            count_mono(_one_color(n), pattern) == total_copies_in_complete(n, pattern)
            for pattern, n in (
                (Pattern.path(5), 8),
                (Pattern.cycle(6), 8),
                (Pattern.star(4), 9),
                (Pattern.triangle(), 7),
            )
        ),
        "monochromatic count on a one-color K_n equals the copy formula",
    )


# ---------------------------------------------------------------------------
# structure: matchings, edge bounds, disjoint paths
# ---------------------------------------------------------------------------


def _brute_matching_number(g: SimpleGraph) -> int:
    edges = g.edges()

    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        res = best(i + 1, used)
        if not (used >> u & 1) and not (used >> v & 1):
            res = max(res, 1 + best(i + 1, used | 1 << u | 1 << v))
        return res

    return best(0, 0)


def _random_graph(rng: Random, n: int, p: float) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


@_suite("structure")
def _random_graph_sweeps(rng: Random, seed: int) -> Results:
    graphs = (
        _random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.4, 0.6]))
        for _ in range(30)
    )
    yield (
        "matching-oracle-sweep",
        all(len(max_matching(g)) == _brute_matching_number(g) for g in graphs),
        "blossom matching equals brute-force optimum on 30 random graphs",
    )
    yield (
        "edge-bound-matching-sweep",
        all(
            verify_erdos_gallai(
                _random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
            ).ok
            for _ in range(60)
        ),
        "edge count within the matching-number bound on 60 random graphs",
    )


@_suite("structure")
def _bipartite_edge_bound_sweep(rng: Random, seed: int) -> Results:
    def trial() -> bool:
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        g = _bipartite(a, b, lambda i, j: rng.random() < 0.5)
        return konig_edge_bound_check(g, (list(range(a)), list(range(a, a + b)))).ok

    yield (
        "bipartite-edge-bound-sweep",
        all(trial() for _ in range(60)),
        "e <= matching * larger part on 60 random bipartite graphs",
    )


@_suite("structure")
def _disjoint_paths_greedy_vs_exact(rng: Random, seed: int) -> Results:
    def trial() -> bool:
        g = _random_graph(rng, rng.randint(4, 10), rng.choice([0.4, 0.6]))
        u, v = rng.sample(range(g.n), 2)
        greedy = disjoint_short_paths(g, u, v, 3, method="greedy")
        exact = disjoint_short_paths(g, u, v, 3, method="exact")
        try:
            greedy.validate(g)
            exact.validate(g)
        except DomainError:
            return False
        return greedy.count <= exact.count

    yield (
        "disjoint-paths-greedy-vs-exact",
        all(trial() for _ in range(25)),
        "greedy never exceeds the exact packing and all certificates validate",
    )


@_suite("structure")
def _well_connected_split_vs_cliques(rng: Random, seed: int) -> Results:
    red = split_coloring(8, 8).view(RED)
    rep = well_connected_check(red, range(16), t=7, max_len=3)
    two_cliques = SimpleGraph.from_edges(
        8, [(i, j) for i in range(8) for j in range(i + 1, 8) if i // 4 == j // 4]
    )
    rep2 = well_connected_check(two_cliques, range(8), t=1, max_len=4)
    yield (
        "well-connected-split-vs-cliques",
        rep.status == "certified" and rep2.status == "refuted",
        f"balanced split graph {rep.status}; disjoint cliques {rep2.status}",
    )


# ---------------------------------------------------------------------------
# bounds: closed-form path-count lower bounds vs exact counts
# ---------------------------------------------------------------------------


@_suite("bounds")
def _rooted_complete_product(rng: Random, seed: int) -> Results:
    kb = _bipartite(8, 8, lambda i, j: True)
    rep = rooted_path_bound(kb, range(8), range(8, 16), eps=0.36, d=1, l=5, v=8)
    prod = _alternating_falling(8, 5)
    yield (
        "rooted-complete-product",
        rep.verdict == "confirmed" and rep.exact_count == prod,
        f"exact count {rep.exact_count} equals the falling product {prod}; "
        f"bound {rep.bound:.3g}",
    )


@_suite("bounds")
def _rooted_random_suite(rng: Random, seed: int) -> Results:
    def trial() -> str | None:
        p = rng.choice([0.85, 0.9, 1.0])
        g = _bipartite(12, 12, lambda i, j: rng.random() < p)
        thresh = (Fraction("0.85") - Fraction("0.29")) * 12
        roots = [v for v in range(12, 24) if Fraction(g.degree(v)) >= thresh]
        if not roots:
            return None
        length = rng.choice([3, 5])
        return rooted_path_bound(
            g, range(12), range(12, 24), eps=0.29, d=0.85, l=length, v=roots[0]
        ).verdict

    verdicts = Counter(trial() for _ in range(25))
    confirmed, violated = verdicts["confirmed"], verdicts["violated"]
    yield (
        "rooted-random-suite",
        violated == 0 and confirmed > 0,
        f"{confirmed} confirmed, {violated} violated on dense seeded pairs",
    )


@_suite("bounds")
def _endpoint_random_suite(rng: Random, seed: int) -> Results:
    def trial() -> str:
        a = rng.randint(4, 12)
        b = rng.randint(4, 12)
        g = _bipartite(a, b, lambda i, j: rng.random() < rng.choice([0.5, 0.8, 1.0]))
        u = rng.randrange(a)
        v = a + rng.randrange(b)
        eps, d, length = rng.choice([0.1, 0.3]), rng.choice([0.5, 0.9]), rng.choice([3, 5])
        return endpoint_path_bound(
            g, range(a), range(a, a + b), eps=eps, d=d, l=length, u=u, v=v
        ).verdict

    verdicts = Counter(trial() for _ in range(25))
    yield (
        "endpoint-random-suite",
        verdicts["violated"] == 0,
        f"no violations; {verdicts['vacuous']}/25 vacuous (the endpoint hypotheses "
        "need part sizes far beyond exact-counting reach)",
    )


@_suite("bounds")
def _dense_complete_exact(rng: Random, seed: int) -> Results:
    def trial() -> bool:
        a = rng.randint(3, 6)
        b = rng.randint(4, 9)
        k = rng.randint(2, min(6, 2 * a + 1, (4 * b) // 3))
        g = _bipartite(a, b, lambda i, j: True)
        r = dense_bipartite_bound(g, range(a), range(a, a + b), beta=0, delta=b, k=k)
        return r.verdict == "confirmed" and r.bound == r.exact_count

    yield (
        "dense-complete-exact",
        all(trial() for _ in range(20)),
        "bound meets the exact directed count with equality on complete pairs",
    )


@_suite("bounds")
def _dense_near_complete(rng: Random, seed: int) -> Results:
    big = _bipartite(150, 80, lambda i, j: (i, j) != (0, 0))
    r = dense_bipartite_bound(
        big, range(150), range(150, 230), beta=Fraction(9, 100000), delta=12, k=3
    )
    yield (
        "dense-near-complete",
        r.verdict == "confirmed",
        f"bound {r.bound:.4g} <= exact {r.exact_count} with one edge missing",
    )


# ---------------------------------------------------------------------------
# stability: regularity invariants, dichotomy, near-split detection
# ---------------------------------------------------------------------------


@_suite("stability")
def _regularity_complement_symmetry(rng: Random, seed: int) -> Results:
    def trial() -> bool:
        nx, ny = rng.randint(3, 8), rng.randint(3, 8)
        p = rng.choice([0.3, 0.5, 0.7])
        g = _bipartite(nx, ny, lambda i, j: rng.random() < p)
        comp = _bipartite(nx, ny, lambda i, j: not g.has_edge(i, nx + j))
        eps = rng.choice([Fraction(1, 4), Fraction(2, 5)])
        a = eps_regular_exact(g, range(nx), range(nx, nx + ny), eps)
        b = eps_regular_exact(comp, range(nx), range(nx, nx + ny), eps)
        return a.regular == b.regular and a.deviation == b.deviation

    yield (
        "regularity-complement-symmetry",
        all(trial() for _ in range(15)),
        "verdict and worst deviation agree with the bipartite complement",
    )


@_suite("stability")
def _regularity_subset_inheritance(rng: Random, seed: int) -> Results:
    ok = True
    inherited = 0
    for _ in range(60):
        nx, ny = rng.randint(4, 9), rng.randint(4, 9)
        g = _bipartite(nx, ny, lambda i, j: rng.random() < 0.5)
        eps = rng.choice([Fraction(3, 10), Fraction(2, 5)])
        pair = eps_regular_exact(g, range(nx), range(nx, nx + ny), eps)
        if not pair.regular:
            continue
        alpha = rng.choice([Fraction(1, 2), Fraction(2, 3)])
        sx = max(1, math.ceil(alpha * nx))
        sy = max(1, math.ceil(alpha * ny))
        xs = rng.sample(range(nx), sx)
        ys = rng.sample(range(nx, nx + ny), sy)
        sub = eps_regular_exact(g, xs, ys, max(eps / alpha, 2 * eps))
        if not sub.regular:
            ok = False
            break
        inherited += 1
    yield (
        "regularity-subset-inheritance",
        ok and inherited > 0,
        f"large subsets of {inherited} regular pairs stay regular at the "
        "relaxed tolerance",
    )


@_suite("stability")
def _degree_deviation_on_regular_pairs(rng: Random, seed: int) -> Results:
    ok = True
    tested = 0
    for _ in range(40):
        nx, ny = rng.randint(4, 9), rng.randint(4, 9)
        g = _bipartite(nx, ny, lambda i, j: rng.random() < 0.5)
        eps = Fraction(2, 5)
        pair = eps_regular_exact(g, range(nx), range(nx, nx + ny), eps)
        if not pair.regular:
            continue
        rep = degree_deviation_check(
            g, range(nx), range(nx, nx + ny), pair.base_density, eps
        )
        if not rep.passed:
            ok = False
            break
        tested += 1
    yield (
        "degree-deviation-on-regular-pairs",
        ok and tested > 0,
        f"degree outliers stay below tolerance on {tested} verified pairs",
    )


@_suite("stability")
def _reduced_graphs(rng: Random, seed: int) -> Results:
    rg = build_reduced(
        split_coloring(18, 9), VertexPartition.of_size(27, 3), Fraction(1, 5), Fraction(1, 2)
    )
    a_parts = frozenset((i, j) for i in range(6) for j in range(i + 1, 6))
    b_parts = frozenset((i, j) for i in range(6, 9) for j in range(i + 1, 9))
    cross = frozenset((i, j) for i in range(6) for j in range(6, 9))
    shape_ok = rg.blue_edges == a_parts | b_parts and rg.red_edges == cross
    verdict = dichotomy_classify(rg, Fraction(1, 20))
    yield (
        "reduced-split-shape",
        shape_ok and not verdict.case1 and verdict.diagnostics["red_covered"] == 6,
        "split coloring reduces to two blue clusters joined in red; "
        f"no large monochromatic matching (best covers {verdict.covered} of 9)",
    )

    rg2 = build_reduced(
        _one_color(18), VertexPartition.of_size(18, 2), Fraction(1, 5), Fraction(1, 2)
    )
    v2 = dichotomy_classify(rg2, Fraction(1, 20))
    matching_ok = v2.case1 and v2.color == RED and v2.covered >= v2.threshold
    g_red = rg2.graph(RED)
    certs_ok = all(g_red.has_edge(a, b) for a, b in v2.matching) and len(
        {x for e in v2.matching for x in e}
    ) == 2 * len(v2.matching)
    yield (
        "reduced-one-color-matching",
        matching_ok and certs_ok,
        f"one-color reduction yields a matching covering {v2.covered} of {rg2.M}",
    )


@_suite("stability")
def _near_split_and_degree(rng: Random, seed: int) -> Results:
    ev = extremal_detect(split_coloring(6, 3), Fraction(1, 10))
    ev18 = extremal_detect(split_coloring(18, 9), Fraction(1, 10))
    evr = extremal_detect(EdgeColoring.random(30, Random(seed + 5)), Fraction(1, 20))
    evt = extremal_detect(EdgeColoring.random(9, Random(seed)), Fraction(7, 10))
    yield (
        "near-split-detection",
        ev.is_extremal and ev.a_side == tuple(range(6))
        and ev18.is_extremal and ev18.a_side == tuple(range(18))
        and not evr.is_extremal and evt.is_extremal and evt.a_side == (),
        "split colorings detected, random coloring rejected, large alpha trivial",
    )

    five_cycle = EdgeColoring.from_red_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    yield (
        "minimum-degree-threshold",
        dirac_check(split_coloring(6, 3).view(BLUE), range(6))
        and not dirac_check(five_cycle.view(RED), range(5)),
        "clique side passes, five-cycle fails the half-degree condition",
    )


SUITES = tuple(_CHECKS)
