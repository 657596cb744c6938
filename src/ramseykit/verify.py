"""Named verification suites backing the command-line `verify` command.

Each suite runs a battery of seeded, deterministic checks and returns
one result per check.  Suites are quick health checks (seconds, not
minutes); the heavyweight sweeps live in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random
from typing import NamedTuple

from .coloring import BLUE, RED, ColorView, EdgeColoring, split_coloring
from .counting import (
    Pattern,
    count_mono,
    formula_split_paths,
    total_copies_in_complete,
)
from .errors import DomainError
from .formulas import m_star, r_path
from .regularity import (
    VertexPartition,
    _ceil_frac,
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
from .search import exhaustive_min
from .structure import (
    SimpleGraph,
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


SUITES = ("formulas", "structure", "bounds", "stability")


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "formulas":
        return suite_formulas(seed)
    if name == "structure":
        return suite_structure(seed)
    if name == "bounds":
        return suite_bounds(seed)
    if name == "stability":
        return suite_stability(seed)
    raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# formulas: closed-form count identities on split colorings
# ---------------------------------------------------------------------------


def suite_formulas(seed: int = 0) -> list[CheckResult]:
    out = []

    for k in (4, 6, 8):
        want = factorial(k) // 2
        got_a = count_mono(split_coloring(k, k // 2 - 1), Pattern.path(k))
        got_b = count_mono(split_coloring(k - 1, k // 2), Pattern.path(k))
        closed = formula_split_paths(k, k // 2 - 1, k)
        out.append(
            _check(
                f"even-path-split-k{k}",
                got_a == want and got_b == want,
                f"split colorings give {got_a} and {got_b}, expected {want}",
            )
        )
        out.append(
            _check(
                f"even-path-closed-form-k{k}",
                closed == got_a,
                f"closed form {closed} vs subset-DP count {got_a}",
            )
        )

    for k in (5, 7):
        want = (k - 1) * factorial(k - 1) // 4
        got = count_mono(split_coloring(k - 1, k // 2), Pattern.path(k))
        out.append(
            _check(
                f"odd-path-split-k{k}",
                got == want,
                f"split coloring gives {got}, expected {want}",
            )
        )

    for k in (6, 8):
        want = (k - 3) * factorial(k - 2) // 2
        got = count_mono(
            split_coloring(k, k // 2 - 1, flips=[(0, 1)]), Pattern.cycle(k)
        )
        out.append(
            _check(
                f"even-cycle-flip-k{k}",
                got == want,
                f"flipped split coloring gives {got}, expected {want}",
            )
        )
    for k in (5, 7):
        want = factorial(k - 1) // 2
        got = count_mono(split_coloring(k, k - 1), Pattern.cycle(k))
        out.append(
            _check(
                f"odd-cycle-split-k{k}",
                got == want,
                f"split coloring gives {got}, expected {want}",
            )
        )

    zero_ok = True
    detail = []
    for k in range(3, 13):
        got = count_mono(split_coloring(k - 1, (k // 2) - 1), Pattern.path(k))
        if got:
            zero_ok = False
            detail.append(f"k={k} gives {got}")
    out.append(
        _check(
            "path-zero-witnesses",
            zero_ok,
            "no monochromatic path in the one-short split coloring for k=3..12"
            if zero_ok
            else "; ".join(detail),
        )
    )

    pos_ok = True
    for k in (3, 4):
        n = r_path(k).value
        if exhaustive_min(Pattern.path(k), n).best_count <= 0:
            pos_ok = False
    out.append(
        _check(
            "path-threshold-positivity",
            pos_ok,
            "exhaustive minimum positive at the threshold size for k=3,4",
        )
    )

    s2 = exhaustive_min(Pattern.star(2), 3).best_count
    s3 = exhaustive_min(Pattern.star(3), 6).best_count
    out.append(
        _check(
            "star-thresholds",
            s2 == m_star(2).value == 1 and s3 == m_star(3).value == 6,
            f"exhaustive minima {s2}, {s3} match closed forms 1, 6",
        )
    )

    t5 = exhaustive_min(Pattern.triangle(), 5).best_count
    t6 = exhaustive_min(Pattern.triangle(), 6).best_count
    out.append(
        _check(
            "triangle-threshold",
            t5 == 0 and t6 == 2,
            f"triangle minima {t5} at n=5 and {t6} at n=6",
        )
    )

    copies_ok = True
    for pattern, n in (
        (Pattern.path(5), 8),
        (Pattern.cycle(6), 8),
        (Pattern.star(4), 9),
        (Pattern.triangle(), 7),
    ):
        allred = EdgeColoring(n, (1 << (n * (n - 1) // 2)) - 1)
        if count_mono(allred, pattern) != total_copies_in_complete(n, pattern):
            copies_ok = False
    out.append(
        _check(
            "complete-graph-copy-counts",
            copies_ok,
            "monochromatic count on a one-color K_n equals the copy formula",
        )
    )
    return out


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


def _random_bipartite(rng: Random, a: int, b: int, p: float) -> SimpleGraph:
    """Parts range(a) and range(a, a+b), each cross edge kept with probability p."""
    return SimpleGraph.from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    )


def _random_graph(rng: Random, n: int, p: float) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n,
        [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ],
    )


def suite_structure(seed: int = 0) -> list[CheckResult]:
    rng = Random(seed)
    out = []

    ok = True
    for _ in range(30):
        g = _random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.4, 0.6]))
        if len(max_matching(g)) != _brute_matching_number(g):
            ok = False
            break
    out.append(
        _check(
            "matching-oracle-sweep",
            ok,
            "blossom matching equals brute-force optimum on 30 random graphs",
        )
    )

    ok = True
    for _ in range(60):
        g = _random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
        if not verify_erdos_gallai(g).ok:
            ok = False
            break
    out.append(
        _check(
            "edge-bound-matching-sweep",
            ok,
            "edge count within the matching-number bound on 60 random graphs",
        )
    )

    ok = True
    for _ in range(60):
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        g = _random_bipartite(rng, a, b, 0.5)
        if not konig_edge_bound_check(g, (list(range(a)), list(range(a, a + b)))).ok:
            ok = False
            break
    out.append(
        _check(
            "bipartite-edge-bound-sweep",
            ok,
            "e <= matching * larger part on 60 random bipartite graphs",
        )
    )

    ok = True
    for _ in range(25):
        g = _random_graph(rng, rng.randint(4, 10), rng.choice([0.4, 0.6]))
        u, v = rng.sample(range(g.n), 2)
        greedy = disjoint_short_paths(g, u, v, 3, method="greedy")
        exact = disjoint_short_paths(g, u, v, 3, method="exact")
        try:
            greedy.validate(g)
            exact.validate(g)
        except DomainError:
            ok = False
            break
        if greedy.count > exact.count:
            ok = False
            break
    out.append(
        _check(
            "disjoint-paths-greedy-vs-exact",
            ok,
            "greedy never exceeds the exact packing and all certificates validate",
        )
    )

    red = ColorView(split_coloring(8, 8), RED).graph()
    rep = well_connected_check(red, range(16), t=7, max_len=3)
    two_cliques = SimpleGraph.from_edges(
        8,
        [(i, j) for i in range(4) for j in range(i + 1, 4)]
        + [(i, j) for i in range(4, 8) for j in range(i + 1, 8)],
    )
    rep2 = well_connected_check(two_cliques, range(8), t=1, max_len=4)
    out.append(
        _check(
            "well-connected-split-vs-cliques",
            rep.status == "certified" and rep2.status == "refuted",
            f"balanced split graph {rep.status}; disjoint cliques {rep2.status}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# bounds: closed-form path-count lower bounds vs exact counts
# ---------------------------------------------------------------------------


def suite_bounds(seed: int = 0) -> list[CheckResult]:
    rng = Random(seed)
    out = []

    kb = SimpleGraph.from_edges(
        16, [(i, 8 + j) for i in range(8) for j in range(8)]
    )
    rep = rooted_path_bound(kb, range(8), range(8, 16), eps=0.36, d=1, l=5, v=8)
    prod = 1
    for i in range(1, 6):
        prod *= 8 - i // 2
    out.append(
        _check(
            "rooted-complete-product",
            rep.verdict == "confirmed" and rep.exact_count == prod,
            f"exact count {rep.exact_count} equals the falling product {prod}; "
            f"bound {rep.bound:.3g}",
        )
    )

    confirmed = 0
    violated = 0
    for _ in range(25):
        g = _random_bipartite(rng, 12, 12, rng.choice([0.85, 0.9, 1.0]))
        us, vs = list(range(12)), list(range(12, 24))
        thresh = (Fraction("0.85") - Fraction("0.29")) * 12
        roots = [v for v in vs if Fraction(g.degree(v)) >= thresh]
        if not roots:
            continue
        r = rooted_path_bound(
            g, us, vs, eps=0.29, d=0.85, l=rng.choice([3, 5]), v=roots[0]
        )
        if r.verdict == "confirmed":
            confirmed += 1
        elif r.verdict == "violated":
            violated += 1
    out.append(
        _check(
            "rooted-random-suite",
            violated == 0 and confirmed > 0,
            f"{confirmed} confirmed, {violated} violated on dense seeded pairs",
        )
    )

    vacuous = 0
    violated = 0
    for _ in range(25):
        a = rng.randint(4, 12)
        b = rng.randint(4, 12)
        g = SimpleGraph.from_edges(
            a + b,
            [
                (i, a + j)
                for i in range(a)
                for j in range(b)
                if rng.random() < rng.choice([0.5, 0.8, 1.0])
            ],
        )
        u = rng.randrange(a)
        v = a + rng.randrange(b)
        r = endpoint_path_bound(
            g,
            range(a),
            range(a, a + b),
            eps=rng.choice([0.1, 0.3]),
            d=rng.choice([0.5, 0.9]),
            l=rng.choice([3, 5]),
            u=u,
            v=v,
        )
        if r.verdict == "violated":
            violated += 1
        elif r.verdict == "vacuous":
            vacuous += 1
    out.append(
        _check(
            "endpoint-random-suite",
            violated == 0,
            f"no violations; {vacuous}/25 vacuous (the endpoint hypotheses "
            "need part sizes far beyond exact-counting reach)",
        )
    )

    ok = True
    for _ in range(20):
        a = rng.randint(3, 6)
        b = rng.randint(4, 9)
        k = rng.randint(2, min(6, 2 * a + 1, (4 * b) // 3))
        g = SimpleGraph.from_edges(
            a + b, [(i, a + j) for i in range(a) for j in range(b)]
        )
        r = dense_bipartite_bound(
            g, range(a), range(a, a + b), beta=0, delta=b, k=k
        )
        if r.verdict != "confirmed" or r.bound != r.exact_count:
            ok = False
            break
    out.append(
        _check(
            "dense-complete-exact",
            ok,
            "bound meets the exact directed count with equality on complete pairs",
        )
    )

    edges = [(i, 150 + j) for i in range(150) for j in range(80)]
    edges.remove((0, 150))
    big = SimpleGraph.from_edges(230, edges)
    r = dense_bipartite_bound(
        big,
        range(150),
        range(150, 230),
        beta=Fraction(9, 100000),
        delta=12,
        k=3,
    )
    out.append(
        _check(
            "dense-near-complete",
            r.verdict == "confirmed",
            f"bound {r.bound:.4g} <= exact {r.exact_count} with one edge missing",
        )
    )
    return out


# ---------------------------------------------------------------------------
# stability: regularity invariants, dichotomy, near-split detection
# ---------------------------------------------------------------------------


def suite_stability(seed: int = 0) -> list[CheckResult]:
    rng = Random(seed)
    out = []

    ok = True
    for _ in range(15):
        nx, ny = rng.randint(3, 8), rng.randint(3, 8)
        g = _random_bipartite(rng, nx, ny, rng.choice([0.3, 0.5, 0.7]))
        comp = SimpleGraph.from_edges(
            nx + ny,
            [
                (i, nx + j)
                for i in range(nx)
                for j in range(ny)
                if not g.has_edge(i, nx + j)
            ],
        )
        eps = rng.choice([Fraction(1, 4), Fraction(2, 5)])
        a = eps_regular_exact(g, range(nx), range(nx, nx + ny), eps)
        b = eps_regular_exact(comp, range(nx), range(nx, nx + ny), eps)
        if a.regular != b.regular or a.deviation != b.deviation:
            ok = False
            break
    out.append(
        _check(
            "regularity-complement-symmetry",
            ok,
            "verdict and worst deviation agree with the bipartite complement",
        )
    )

    ok = True
    inherited = 0
    for _ in range(60):
        nx, ny = rng.randint(4, 9), rng.randint(4, 9)
        g = _random_bipartite(rng, nx, ny, 0.5)
        eps = rng.choice([Fraction(3, 10), Fraction(2, 5)])
        pair = eps_regular_exact(g, range(nx), range(nx, nx + ny), eps)
        if not pair.regular:
            continue
        alpha = rng.choice([Fraction(1, 2), Fraction(2, 3)])
        sx = max(1, _ceil_frac(alpha * nx))
        sy = max(1, _ceil_frac(alpha * ny))
        xs = rng.sample(range(nx), sx)
        ys = rng.sample(range(nx, nx + ny), sy)
        sub = eps_regular_exact(g, xs, ys, max(eps / alpha, 2 * eps))
        if not sub.regular:
            ok = False
            break
        inherited += 1
    out.append(
        _check(
            "regularity-subset-inheritance",
            ok and inherited > 0,
            f"large subsets of {inherited} regular pairs stay regular at the "
            "relaxed tolerance",
        )
    )

    ok = True
    tested = 0
    for _ in range(40):
        nx, ny = rng.randint(4, 9), rng.randint(4, 9)
        g = _random_bipartite(rng, nx, ny, 0.5)
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
    out.append(
        _check(
            "degree-deviation-on-regular-pairs",
            ok and tested > 0,
            f"degree outliers stay below tolerance on {tested} verified pairs",
        )
    )

    c = split_coloring(18, 9)
    part = VertexPartition.of_size(27, 3)
    rg = build_reduced(c, part, Fraction(1, 5), Fraction(1, 2))
    a_parts = frozenset(
        (i, j) for i in range(6) for j in range(i + 1, 6)
    )
    b_parts = frozenset((i, j) for i in range(6, 9) for j in range(i + 1, 9))
    cross = frozenset((i, j) for i in range(6) for j in range(6, 9))
    shape_ok = rg.blue_edges == a_parts | b_parts and rg.red_edges == cross
    verdict = dichotomy_classify(rg, Fraction(1, 20))
    out.append(
        _check(
            "reduced-split-shape",
            shape_ok and not verdict.case1 and verdict.diagnostics["red_covered"] == 6,
            "split coloring reduces to two blue clusters joined in red; "
            f"no large monochromatic matching (best covers {verdict.covered} of 9)",
        )
    )

    allred = EdgeColoring(18, (1 << (18 * 17 // 2)) - 1)
    rg2 = build_reduced(allred, VertexPartition.of_size(18, 2), Fraction(1, 5), Fraction(1, 2))
    v2 = dichotomy_classify(rg2, Fraction(1, 20))
    matching_ok = v2.case1 and v2.color == RED and v2.covered >= v2.threshold
    g_red = rg2.graph(RED)
    certs_ok = all(g_red.has_edge(a, b) for a, b in v2.matching) and len(
        {x for e in v2.matching for x in e}
    ) == 2 * len(v2.matching)
    out.append(
        _check(
            "reduced-one-color-matching",
            matching_ok and certs_ok,
            f"one-color reduction yields a matching covering {v2.covered} of {rg2.M}",
        )
    )

    ev = extremal_detect(split_coloring(6, 3), Fraction(1, 10))
    ev18 = extremal_detect(split_coloring(18, 9), Fraction(1, 10))
    evr = extremal_detect(EdgeColoring.random(30, Random(seed + 5)), Fraction(1, 20))
    evt = extremal_detect(EdgeColoring.random(9, Random(seed)), Fraction(7, 10))
    out.append(
        _check(
            "near-split-detection",
            ev.is_extremal
            and ev.a_side == tuple(range(6))
            and ev18.is_extremal
            and ev18.a_side == tuple(range(18))
            and not evr.is_extremal
            and evt.is_extremal
            and evt.a_side == (),
            "split colorings detected, random coloring rejected, large alpha trivial",
        )
    )

    dirac_ok = (
        dirac_check(ColorView(split_coloring(6, 3), BLUE), range(6))
        and not dirac_check(
            ColorView(
                EdgeColoring.from_red_edges(
                    5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
                ),
                RED,
            ),
            range(5),
        )
    )
    out.append(
        _check(
            "minimum-degree-threshold",
            dirac_ok,
            "clique side passes, five-cycle fails the half-degree condition",
        )
    )
    return out
