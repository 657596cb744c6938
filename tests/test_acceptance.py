"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Each criterion has a wall-clock budget; the printed line records the time
actually spent alongside the verdict.
"""

import random
import time
from itertools import combinations
from math import comb, factorial

from ramseykit import (
    RED,
    EdgeColoring,
    SearchConfig,
    SimpleGraph,
    VertexPartition,
    anneal_min,
    build_reduced,
    count_mono,
    dense_bipartite_bound,
    dichotomy_classify,
    endpoint_path_bound,
    exhaustive_min,
    extremal_detect,
    konig_edge_bound_check,
    parse_pattern,
    rooted_path_bound,
    split_coloring,
    verify_erdos_gallai,
    well_connected_check,
)


def _report(tag: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{tag}: {status} ({elapsed:.1f}s/{budget:.0f}s) {detail}")
    assert ok, f"{tag} failed: {detail}"
    assert elapsed < budget, f"{tag} exceeded budget: {elapsed:.1f}s >= {budget:.0f}s"


def test_ac1_split_path_counts_match_closed_forms() -> None:
    start = time.perf_counter()
    failures = []
    for k in (4, 6, 8, 10):
        want = factorial(k) // 2
        for coloring in (split_coloring(k, k // 2 - 1), split_coloring(k - 1, k // 2)):
            got = count_mono(coloring, parse_pattern(f"P_{k}"))
            if got != want:
                failures.append((k, coloring.n, got, want))
    for k in (5, 7, 9):
        want = (k - 1) * factorial(k - 1) // 4
        got = count_mono(split_coloring(k - 1, k // 2), parse_pattern(f"P_{k}"))
        if got != want:
            failures.append((k, got, want))
    _report(
        "AC1",
        not failures,
        time.perf_counter() - start,
        60,
        "path counts on split colorings, even k in {4,6,8,10} and odd k in {5,7,9}"
        + (f"; mismatches {failures}" if failures else ""),
    )


def test_ac2_split_cycle_counts_match_closed_forms() -> None:
    start = time.perf_counter()
    failures = []
    for k in (6, 8):
        want = (k - 3) * factorial(k - 2) // 2
        got = count_mono(
            split_coloring(k, k // 2 - 1, flips=[(0, 1)]), parse_pattern(f"C_{k}")
        )
        if got != want:
            failures.append((k, got, want))
    for k in (5, 7):
        want = factorial(k - 1) // 2
        got = count_mono(split_coloring(k, k - 1), parse_pattern(f"C_{k}"))
        if got != want:
            failures.append((k, got, want))
    _report(
        "AC2",
        not failures,
        time.perf_counter() - start,
        120,
        "cycle counts on flipped/plain split colorings, k in {5,6,7,8}"
        + (f"; mismatches {failures}" if failures else ""),
    )


def test_ac3_below_threshold_splits_are_path_free_and_thresholds_are_tight() -> None:
    start = time.perf_counter()
    failures = []
    for k in range(3, 13):
        got = count_mono(split_coloring(k - 1, k // 2 - 1), parse_pattern(f"P_{k}"))
        if got != 0:
            failures.append((k, got))
    positivity = all(
        exhaustive_min(parse_pattern(f"P_{k}"), k - 1 + k // 2).best_count > 0
        for k in (3, 4)
    )
    _report(
        "AC3",
        not failures and positivity,
        time.perf_counter() - start,
        60,
        "zero-copy witnesses below threshold for k=3..12, exhaustive positivity at"
        " threshold for k<=4"
        + (f"; nonzero {failures}" if failures else "")
        + ("" if positivity else "; positivity failed"),
    )


def test_ac4_star_threshold_minimums_by_exhaustive_search() -> None:
    start = time.perf_counter()
    got3 = exhaustive_min(parse_pattern("S_3"), 6).best_count
    got4 = exhaustive_min(parse_pattern("S_4"), 7).best_count
    ok = got3 == 6 and got4 == 1
    _report(
        "AC4",
        ok,
        time.perf_counter() - start,
        600,
        f"exhaustive star minimums: 3 leaves on 6 vertices -> {got3} (want 6),"
        f" 4 leaves on 7 vertices -> {got4} (want 1)",
    )


def test_ac5_triangle_threshold_minimums() -> None:
    start = time.perf_counter()
    at6 = exhaustive_min(parse_pattern("K3"), 6).best_count
    at5 = exhaustive_min(parse_pattern("K3"), 5).best_count
    ok = at6 == 2 and at5 == 0
    _report(
        "AC5",
        ok,
        time.perf_counter() - start,
        10,
        f"triangle minimums: n=6 -> {at6} (want 2), n=5 -> {at5} (want 0)",
    )


def test_ac6_edge_bounds_hold_exhaustively_and_on_samples() -> None:
    start = time.perf_counter()
    checked = 0
    ok = True

    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            if not verify_erdos_gallai(SimpleGraph.from_edges(n, edges)).ok:
                ok = False
            checked += 1

    rng = random.Random(20260814)
    for n in (7, 8, 9):
        pairs = list(combinations(range(n), 2))
        for _ in range(10_000 // 3 + 1):
            edges = [e for e in pairs if rng.random() < rng.choice((0.2, 0.5, 0.8))]
            if not verify_erdos_gallai(SimpleGraph.from_edges(n, edges)).ok:
                ok = False
            checked += 1

    for a in range(1, 5):
        for b in range(1, 5):
            cross = [(i, a + j) for i in range(a) for j in range(b)]
            for bits in range(1 << len(cross)):
                edges = [e for i, e in enumerate(cross) if bits >> i & 1]
                g = SimpleGraph.from_edges(a + b, edges)
                if not konig_edge_bound_check(
                    g, (list(range(a)), list(range(a, a + b)))
                ).ok:
                    ok = False
                checked += 1

    for _ in range(10_000):
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        cross = [(i, a + j) for i in range(a) for j in range(b)]
        edges = [e for e in cross if rng.random() < 0.5]
        g = SimpleGraph.from_edges(a + b, edges)
        if not konig_edge_bound_check(g, (list(range(a)), list(range(a, a + b)))).ok:
            ok = False
        checked += 1

    _report(
        "AC6",
        ok,
        time.perf_counter() - start,
        300,
        f"matching-based edge bounds over {checked} exhaustive and sampled graphs",
    )


def test_ac7_path_count_bounds_never_violate_on_seeded_instances() -> None:
    start = time.perf_counter()
    rng = random.Random(7)
    violations = []
    confirmed = 0
    product_mismatches = []

    def random_pair(p: float) -> tuple[SimpleGraph, int, int]:
        a, b = rng.randint(4, 12), rng.randint(4, 12)
        edges = [
            (i, a + j) for i in range(a) for j in range(b) if rng.random() < p
        ]
        return SimpleGraph.from_edges(a + b, edges), a, b

    for i in range(200):
        p = rng.choice((0.7, 0.85, 1.0))
        g, a, b = random_pair(p)
        l = rng.choice((3, 4, 5))
        eps = rng.uniform(0.25, 0.4)
        d = rng.uniform(0.7, 0.95) if p < 1 else 1.0
        root = a + rng.randrange(b)
        rep = rooted_path_bound(g, range(a), range(a, a + b), eps, d, l, root)
        if rep.verdict == "violated":
            violations.append(("rooted", i))
        if rep.verdict == "confirmed":
            confirmed += 1
        if p == 1.0 and rep.hypotheses_satisfied:
            product = 1
            for step in range(1, l + 1):
                product *= (a - (step - 1) // 2) if step % 2 else (b - step // 2)
            if rep.exact_count != product:
                product_mismatches.append(i)

    for i in range(200):
        p = rng.choice((0.7, 0.85, 1.0))
        g, a, b = random_pair(p)
        l = rng.choice((3, 4, 5))
        u = rng.randrange(a)
        v = a + rng.randrange(b) if l % 2 else (u + 1) % a
        rep = endpoint_path_bound(
            g,
            range(a),
            range(a, a + b),
            rng.uniform(0.01, 0.3),
            rng.uniform(0.6, 0.95),
            l,
            u,
            v,
        )
        if rep.verdict == "violated":
            violations.append(("endpoints", i))
        if rep.verdict == "confirmed":
            confirmed += 1

    for i in range(200):
        p = rng.choice((0.9, 1.0))
        g, a, b = random_pair(p)
        k = rng.choice((3, 4, 5))
        if a < k // 2 or 4 * b < 3 * k:
            continue
        beta = 0 if p == 1.0 else 1 - float(
            len(list(g.edges()))
        ) / (a * b)
        rep = dense_bipartite_bound(
            g, range(a), range(a, a + b), beta, min(a, b), k
        )
        if rep.verdict == "violated":
            violations.append(("dense", i))
        if rep.verdict == "confirmed":
            confirmed += 1

    ok = not violations and not product_mismatches and confirmed > 0
    _report(
        "AC7",
        ok,
        time.perf_counter() - start,
        600,
        f"600 seeded bound-checker instances, {confirmed} confirmed,"
        f" {len(violations)} violations, {len(product_mismatches)} product mismatches",
    )


def test_ac8_annealing_reaches_known_minimums() -> None:
    start = time.perf_counter()
    p6 = parse_pattern("P_6")
    hits_p6 = sum(
        anneal_min(p6, 8, SearchConfig(seed=s)).best_count <= 360 for s in range(1, 11)
    )

    small = [("P_4", 5), ("S_3", 6), ("K3", 6)]
    hits_small = 0
    runs_small = 0
    for text, n in small:
        pattern = parse_pattern(text)
        floor = exhaustive_min(pattern, n).best_count
        for s in range(100):
            runs_small += 1
            if anneal_min(pattern, n, SearchConfig(seed=s)).best_count == floor:
                hits_small += 1

    ok = hits_p6 >= 9 and hits_small >= 95 * runs_small // 100
    _report(
        "AC8",
        ok,
        time.perf_counter() - start,
        900,
        f"default-config annealing: {hits_p6}/10 runs at most 360 on the 8-vertex"
        f" path instance, {hits_small}/{runs_small} exact hits on small instances",
    )


def test_ac9_split_red_graph_is_well_connected() -> None:
    start = time.perf_counter()
    red = split_coloring(8, 8).view(RED)
    cert = well_connected_check(red, list(range(16)), t=7, max_len=3)

    cliques = list(combinations(range(4), 2)) + [
        (a + 4, b + 4) for a, b in combinations(range(4), 2)
    ]
    refuted = well_connected_check(
        SimpleGraph.from_edges(8, cliques), list(range(8)), t=1, max_len=3
    )
    ok = cert.status == "certified" and refuted.status == "refuted"
    _report(
        "AC9",
        ok,
        time.perf_counter() - start,
        30,
        f"balanced split red graph {cert.status} at 7 paths of length 3;"
        f" disjoint cliques {refuted.status}",
    )


def test_ac10_reduced_graph_pipeline_classifies_split_and_single_color_hosts() -> None:
    start = time.perf_counter()
    c = split_coloring(18, 9)
    rg = build_reduced(c, VertexPartition.of_size(27, 3), 0.2, 0.5, mode="exact")
    split_verdict = dichotomy_classify(rg, 0.05)
    near = extremal_detect(c, 0.1)

    n = 18
    all_red = EdgeColoring(n, red_bits=2 ** (n * (n - 1) // 2) - 1)
    rg_red = build_reduced(all_red, VertexPartition.of_size(n, 2), 0.2, 0.5)
    red_verdict = dichotomy_classify(rg_red, 0.05)

    ok = (
        near.is_extremal
        and not split_verdict.case1
        and red_verdict.case1
        and red_verdict.color == RED
    )
    _report(
        "AC10",
        ok,
        time.perf_counter() - start,
        60,
        f"split host: extremal={near.is_extremal}, matching case={split_verdict.case1};"
        f" single-color host: matching case={red_verdict.case1} in {red_verdict.color}",
    )
