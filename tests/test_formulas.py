from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    DomainError,
    Pattern,
    conjectured_m,
    count_mono,
    exhaustive_min,
    formula_split_paths,
    m_star,
    parse_pattern,
    r_cycle,
    r_path,
    split_coloring,
    threshold_multiplicity,
)


@pytest.mark.parametrize(
    "k,value",
    [(2, 2), (3, 3), (4, 5), (5, 6), (6, 8), (7, 9), (8, 11), (9, 12), (10, 14)],
)
def test_path_ramsey_numbers(k: int, value: int) -> None:
    assert r_path(k).value == value


@given(st.integers(2, 60))
def test_path_ramsey_closed_form(k: int) -> None:
    assert r_path(k).value == k - 1 + k // 2


@pytest.mark.parametrize(
    "k,value", [(3, 6), (4, 6), (5, 9), (6, 8), (7, 13), (8, 11), (9, 17), (10, 14)]
)
def test_cycle_ramsey_numbers(k: int, value: int) -> None:
    assert r_cycle(k).value == value


@given(st.integers(5, 60))
def test_cycle_ramsey_closed_form_beyond_small_cases(k: int) -> None:
    want = 2 * k - 1 if k % 2 else 3 * k // 2 - 1
    assert r_cycle(k).value == want


@pytest.mark.parametrize("k,value", [(1, 2), (2, 1), (3, 6), (4, 1), (5, 10)])
def test_star_threshold_multiplicities(k: int, value: int) -> None:
    mv = m_star(k)
    assert mv.value == value
    assert mv.status == "exact"


@given(st.integers(1, 40))
def test_star_threshold_parity_rule(k: int) -> None:
    value = m_star(k).value
    if k % 2 == 0:
        assert value == 1
    else:
        assert value == 2 * k


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_star_closed_form_matches_exhaustive_threshold(k: int) -> None:
    # a star is a distinguished centre with k leaves, so K_2 holds 2 copies
    # of S_1: one per end of its edge
    pattern = parse_pattern(f"S_{k}")
    assert m_star(k).value == threshold_multiplicity(pattern).best_count


@pytest.mark.parametrize(
    "text,value",
    [("P_4", 12), ("P_5", 24), ("P_6", 360), ("P_7", 1080), ("C_5", 12), ("C_6", 36)],
)
def test_conjectured_path_cycle_multiplicities(text: str, value: int) -> None:
    mv = conjectured_m(parse_pattern(text))
    assert mv.value == value
    assert mv.status == "upper-bound"


@pytest.mark.parametrize("text", ["P_3", "P_4", "P_5"])
def test_split_value_bounds_the_exact_threshold_multiplicity(text: str) -> None:
    # r(H) <= 7 for these, so the exhaustive minimum is exact and the
    # split-coloring count, one coloring's, can only lie above it
    pattern = parse_pattern(text)
    tm = threshold_multiplicity(pattern)
    assert tm.exact
    assert conjectured_m(pattern).value >= tm.best_count


@pytest.mark.parametrize(
    "text,n,minimum,split", [("P_3", 3, 1, 1), ("P_4", 5, 10, 12), ("P_5", 6, 18, 24)]
)
def test_exact_minima_below_the_split_value(text: str, n: int, minimum: int, split: int) -> None:
    # the patterns conjectured_m covers with r(H) <= 7, where exhaustive
    # search is exact: the split value is the minimum for P_3 only
    pattern = parse_pattern(text)
    assert r_path(pattern.k).value == n
    assert exhaustive_min(pattern, n).best_count == minimum
    assert conjectured_m(pattern).value == split


def test_c4_has_no_split_value() -> None:
    # r(C_4) = 6, and the even-cycle form would give 1, a coloring of K_5,
    # below the exact minimum 2 on K_6
    assert threshold_multiplicity(parse_pattern("C_4")).best_count == 2
    with pytest.raises(DomainError):
        conjectured_m(parse_pattern("C_4"))


@given(st.integers(3, 12))
def test_conjectured_path_values_closed_form(k: int) -> None:
    value = conjectured_m(parse_pattern(f"P_{k}")).value
    if k % 2 == 0:
        assert value == factorial(k) // 2
    else:
        assert value == (k - 1) * factorial(k - 1) // 4


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: r_path(1), "needs k >= 2"),
        (lambda: r_cycle(2), "cycles need k >= 3"),
        (lambda: m_star(0), "stars need k >= 1 leaves"),
        (lambda: conjectured_m(Pattern.path(2)), "conjecture needs k >= 3"),
    ],
    ids=["r_path", "r_cycle", "m_star", "conjectured_m"],
)
def test_formulas_refuse_sizes_below_their_range(call, message: str) -> None:
    with pytest.raises(DomainError, match=message):
        call()


def test_conjectured_m_rejects_stars_and_cliques() -> None:
    for text in ("S_3", "K3"):
        with pytest.raises(DomainError):
            conjectured_m(parse_pattern(text))


@pytest.mark.parametrize("k", [4, 6, 8])
def test_even_path_split_attains_conjecture(k: int) -> None:
    target = factorial(k) // 2
    assert count_mono(split_coloring(k, k // 2 - 1), parse_pattern(f"P_{k}")) == target
    assert count_mono(split_coloring(k - 1, k // 2), parse_pattern(f"P_{k}")) == target


@pytest.mark.parametrize("k", [5, 7])
def test_odd_path_split_attains_conjecture(k: int) -> None:
    got = count_mono(split_coloring(k - 1, k // 2), parse_pattern(f"P_{k}"))
    assert got == (k - 1) * factorial(k - 1) // 4


@pytest.mark.parametrize("k,want", [(6, 36), (8, 1800)])
def test_even_cycle_flipped_split_attains_conjecture(k: int, want: int) -> None:
    c = split_coloring(k, k // 2 - 1, flips=[(0, 1)])
    assert count_mono(c, parse_pattern(f"C_{k}")) == want


@pytest.mark.parametrize("k,want", [(5, 12), (7, 360)])
def test_odd_cycle_split_attains_conjecture(k: int, want: int) -> None:
    c = split_coloring(k, k - 1)
    assert count_mono(c, parse_pattern(f"C_{k}")) == want
    assert want == factorial(k - 1) // 2


@pytest.mark.parametrize("k", list(range(3, 13)))
def test_below_threshold_split_has_no_monochromatic_path(k: int) -> None:
    c = split_coloring(k - 1, k // 2 - 1)
    assert c.n == r_path(k).value - 1
    assert count_mono(c, parse_pattern(f"P_{k}")) == 0


@given(st.integers(0, 8), st.integers(0, 8), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_split_path_formula_is_total_of_three_terms(a: int, b: int, k: int) -> None:
    # Blue paths live inside the two cliques; red paths alternate across.
    def falling(x: int, t: int) -> int:
        out = 1
        for i in range(t):
            out *= x - i
        return max(out, 0) if x - t + 1 >= 0 else 0

    blue = (falling(a, k) + falling(b, k)) // 2
    if k % 2 == 0:
        red = falling(a, k // 2) * falling(b, k // 2)
    else:
        red = (
            falling(a, k // 2 + 1) * falling(b, k // 2)
            + falling(b, k // 2 + 1) * falling(a, k // 2)
        ) // 2
    assert formula_split_paths(a, b, k) == blue + red


@pytest.mark.parametrize("text,minimum", [("S_3", 6), ("K3", 2), ("P_4", 10)])
def test_threshold_multiplicity_at_known_patterns(text: str, minimum: int) -> None:
    tm = threshold_multiplicity(parse_pattern(text))
    assert tm.best_count == minimum
    assert tm.exact


def test_short_even_path_conjecture_value_is_not_the_search_minimum() -> None:
    # The split construction gives 12 copies at n = 5, but exhaustive search
    # finds 10, so the closed form is flagged as an upper bound.
    assert conjectured_m(parse_pattern("P_4")).value == 12
    assert threshold_multiplicity(parse_pattern("P_4")).best_count == 10
