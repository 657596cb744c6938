import hashlib
import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    BLUE,
    RED,
    CapabilityError,
    DomainError,
    EdgeColoring,
    Pattern,
    count_cliques,
    count_cycles,
    count_in_view,
    count_mono,
    count_paths,
    count_stars,
    formula_split_paths,
    parse_pattern,
    split_coloring,
    total_copies_in_complete,
)
from ramseykit.coloring import pair_index
from ramseykit.counting import copy_edge_masks

from .oracles import brute_cycles, brute_paths, brute_stars, brute_triangles


def random_coloring(n: int, seed: int) -> EdgeColoring:
    return EdgeColoring.random(n, random.Random(seed))


small = st.tuples(st.integers(2, 7), st.integers(0, 10_000))


@given(small, st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_path_counts_match_permutation_scan(params: tuple[int, int], k: int) -> None:
    n, seed = params
    c = random_coloring(n, seed)
    for color in (RED, BLUE):
        view = c.view(color)
        assert count_paths(view, k) == brute_paths(view.has_edge, n, k)


@given(small, st.integers(3, 6))
@settings(max_examples=40, deadline=None)
def test_cycle_counts_match_permutation_scan(params: tuple[int, int], k: int) -> None:
    n, seed = params
    c = random_coloring(n, seed)
    for color in (RED, BLUE):
        view = c.view(color)
        assert count_cycles(view, k) == brute_cycles(view.has_edge, n, k)


@given(small, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_star_counts_match_degree_binomials(params: tuple[int, int], k: int) -> None:
    n, seed = params
    c = random_coloring(n, seed)
    for color in (RED, BLUE):
        view = c.view(color)
        assert count_stars(view, k) == brute_stars(view.has_edge, n, k)


@given(small)
@settings(max_examples=40, deadline=None)
def test_triangle_counts_match_triple_scan(params: tuple[int, int]) -> None:
    n, seed = params
    c = random_coloring(n, seed)
    for color in (RED, BLUE):
        view = c.view(color)
        assert count_cliques(view, 3) == brute_triangles(view.has_edge, n)


@pytest.mark.parametrize("text", ["P_5", "C_5", "S_3", "K3"])
def test_pattern_wider_than_host_counts_zero(text: str) -> None:
    c = random_coloring(3, 1)
    if text == "S_3":
        c = random_coloring(2, 1)
    pattern = parse_pattern(text)
    assert count_mono(c, pattern) == 0


def test_dispatch_agrees_with_specialized_counters() -> None:
    c = random_coloring(7, 42)
    view = c.view(RED)
    assert count_in_view(view, parse_pattern("P_5")) == count_paths(view, 5)
    assert count_in_view(view, parse_pattern("C_4")) == count_cycles(view, 4)
    assert count_in_view(view, parse_pattern("S_2")) == count_stars(view, 2)
    assert count_in_view(view, parse_pattern("K3")) == count_cliques(view, 3)


def test_mono_count_sums_both_views() -> None:
    c = random_coloring(7, 9)
    p = parse_pattern("P_4")
    assert count_mono(c, p) == count_in_view(c.view(RED), p) + count_in_view(
        c.view(BLUE), p
    )


@pytest.mark.parametrize(
    "text,n",
    [("P_4", 7), ("P_6", 8), ("C_4", 7), ("C_6", 8), ("S_3", 7), ("K3", 8), ("K4", 7)],
)
def test_single_color_complete_graph_attains_total(text: str, n: int) -> None:
    all_red = EdgeColoring(n, red_bits=2 ** (n * (n - 1) // 2) - 1)
    pattern = parse_pattern(text)
    assert count_in_view(all_red.view(RED), pattern) == total_copies_in_complete(
        n, pattern
    )
    assert count_in_view(all_red.view(BLUE), pattern) == 0


def test_empty_host_holds_no_copy() -> None:
    for text in ("P_1", "P_2", "C_3", "S_1", "S_3", "K2", "K5"):
        assert total_copies_in_complete(0, parse_pattern(text)) == 0


def test_complete_graph_path_total_is_half_falling_factorial() -> None:
    for n in range(2, 9):
        for k in range(2, n + 1):
            want = factorial(n) // factorial(n - k) // 2
            assert total_copies_in_complete(n, parse_pattern(f"P_{k}")) == want


def test_complete_graph_cycle_total() -> None:
    # n! / (n-k)! counts directed rooted traversals; each cycle has 2k of them.
    for n in range(3, 9):
        for k in range(3, n + 1):
            want = factorial(n) // factorial(n - k) // (2 * k)
            assert total_copies_in_complete(n, parse_pattern(f"C_{k}")) == want


def test_path_and_cycle_masks_follow_the_vertex_sequences_in_order() -> None:
    # search results depend on the copy order, so pin it: permutations()
    # yields vertex sequences in lexicographic order, as the walk visits them
    def mask(seq) -> int:
        return sum(1 << pair_index(n, u, w) for u, w in zip(seq, seq[1:]))

    for n in range(9):
        for k in range(2, n + 2):
            seqs = list(permutations(range(n), k))
            paths = [mask(s) for s in seqs if s[0] < s[-1]]
            assert copy_edge_masks(parse_pattern(f"P_{k}"), n) == paths
            if k >= 3:
                cycles = [mask(s + s[:1]) for s in seqs if s[0] == min(s) and s[1] < s[-1]]
                assert copy_edge_masks(parse_pattern(f"C_{k}"), n) == cycles


def test_split_path_formula_matches_count() -> None:
    for a in range(2, 7):
        for b in range(0, 5):
            c = split_coloring(a, b)
            for k in range(2, 7):
                assert formula_split_paths(a, b, k) == count_mono(
                    c, parse_pattern(f"P_{k}")
                )


def test_color_swap_symmetry() -> None:
    c = random_coloring(7, 77)
    comp = c.complemented()
    for text in ("P_5", "C_5", "S_3", "K3"):
        p = parse_pattern(text)
        assert count_in_view(c.view(RED), p) == count_in_view(comp.view(BLUE), p)


@pytest.mark.parametrize("text", ["P_0", "C_2", "S_0", "Q_3", "P_x", "", "K_3x"])
def test_unsupported_patterns_rejected(text: str) -> None:
    with pytest.raises(DomainError):
        parse_pattern(text)


def test_clique_counts_match_subset_scan() -> None:
    for n in (0, 1, 4, 7, 9, 12):
        for seed in (15, 16, 17):
            view = random_coloring(n, seed).view(BLUE)
            for k in (2, 3, 4, 5):
                want = sum(
                    1
                    for vs in combinations(range(n), k)
                    if all(view.has_edge(a, b) for a, b in combinations(vs, 2))
                )
                assert count_in_view(view, parse_pattern(f"K{k}")) == want


def test_star_and_clique_masks_are_pinned() -> None:
    # sha256 of every star and clique mask list for n <= 9, recorded before
    # the masks were built from the shared bit[u][w] table
    h = hashlib.sha256()
    for kind, ks in (("star", range(1, 10)), ("clique", range(2, 6))):
        for k in ks:
            for n in range(-1, 10):
                h.update(repr((kind, k, n, copy_edge_masks(Pattern(kind, k), n))).encode())
    assert h.hexdigest() == "114d6e2000c3a408b61a86a03eeb84df6e4f68c6db036550ad52d264aa2aea55"


def test_oversized_host_raises_capability_error() -> None:
    # n=24 P_12 needs about 27 M states in one layer; it must be refused
    # before any layer is built, while n=30 P_6 (about 0.7 M) is admitted
    with pytest.raises(CapabilityError, match="budget"):
        count_mono(split_coloring(12, 12), parse_pattern("P_12"))
    assert count_mono(split_coloring(20, 10), parse_pattern("P_6")) == formula_split_paths(20, 10, 6)
