import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    BLUE,
    RED,
    CapabilityError,
    DomainError,
    EdgeColoring,
    VertexPartition,
    build_reduced,
    degree_deviation_check,
    dense_bipartite_bound,
    dichotomy_classify,
    dirac_check,
    endpoint_path_bound,
    eps_regular_exact,
    eps_regular_sample,
    extremal_detect,
    pair_density,
    rooted_path_bound,
    split_coloring,
    verify_count_bounds,
)

from .oracles import brute_regularity, brute_walks, fraction_regularity


def complete_bipartite(a: int, b: int):
    from ramseykit import SimpleGraph

    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def matched_pairs(a: int):
    """Perfect matching between two a-sets: globally sparse, locally dense."""
    from ramseykit import SimpleGraph

    return SimpleGraph.from_edges(2 * a, [(i, a + i) for i in range(a)])


def random_bipartite(a: int, b: int, p: float, seed: int):
    from ramseykit import SimpleGraph

    rng = random.Random(seed)
    edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return SimpleGraph.from_edges(a + b, edges)


# --- densities ---------------------------------------------------------


def test_density_of_complete_and_empty_pairs() -> None:
    g = complete_bipartite(4, 5)
    assert pair_density(g, range(4), range(4, 9)) == 1
    assert pair_density(g, [0, 1], [2, 3]) == 0


def test_self_density_uses_ordered_pairs() -> None:
    from ramseykit import SimpleGraph

    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3), (0, 2)])
    assert pair_density(g, range(4), range(4)) == Fraction(2 * 3, 16)


def test_density_rejects_empty_sides() -> None:
    g = complete_bipartite(2, 2)
    with pytest.raises(DomainError):
        pair_density(g, [], [0, 1])


def test_density_rejects_empty_iterators() -> None:
    # an iterator is truthy even when empty, so emptiness is read off the masks
    g = complete_bipartite(2, 2)
    for xs, ys in ((iter([]), [1]), ([0], iter([])), ((v for v in ()), range(4))):
        with pytest.raises(DomainError, match="nonempty vertex sets"):
            pair_density(g, xs, ys)
    assert pair_density(g, iter([0, 1]), (v for v in (2, 3))) == 1


# --- exact regularity --------------------------------------------------


def test_complete_pair_is_regular_at_any_tolerance() -> None:
    g = complete_bipartite(6, 6)
    res = eps_regular_exact(g, range(6), range(6, 12), Fraction(1, 100))
    assert res.regular
    assert res.base_density == 1
    assert res.witness is None


def test_matching_pair_is_irregular_with_checkable_witness() -> None:
    g = matched_pairs(7)
    res = eps_regular_exact(g, range(7), range(7, 14), Fraction(1, 4))
    assert not res.regular
    u, v = res.witness
    assert set(u) <= set(range(7)) and set(v) <= set(range(7, 14))
    assert len(u) * 4 >= 7 and len(v) * 4 >= 7
    local = pair_density(g, u, v)
    assert abs(local - res.base_density) > Fraction(1, 4)
    assert res.deviation == abs(local - res.base_density)


def test_half_density_random_pair_is_regular_at_generous_tolerance() -> None:
    g = random_bipartite(10, 10, 0.5, 3)
    res = eps_regular_exact(g, range(10), range(10, 20), Fraction(45, 100))
    assert res.regular


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_regularity_is_invariant_under_bipartite_complement(
    a: int, b: int, seed: int
) -> None:
    from ramseykit import SimpleGraph

    rng = random.Random(seed)
    present = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
    absent = [
        (i, a + j) for i in range(a) for j in range(b) if (i, a + j) not in set(present)
    ]
    g = SimpleGraph.from_edges(a + b, present)
    h = SimpleGraph.from_edges(a + b, absent)
    eps = Fraction(1, 5)
    res_g = eps_regular_exact(g, range(a), range(a, a + b), eps)
    res_h = eps_regular_exact(h, range(a), range(a, a + b), eps)
    assert res_g.regular == res_h.regular
    assert res_g.deviation == res_h.deviation


PIN_EPS = (
    Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2),
    0.15, Fraction(7, 13),
)
EXACT_PANEL_SHA256 = "7a8eab080bd5db12108d38429fd047a2e664e1da2e61cd9fea562cd1500aaf37"
SAMPLE_PANEL_SHA256 = "dc51358026d0856c26c90af25af42eff5af08c47011463244a96046a6e7ce7c4"


def noisy_pair(a: int, b: int, rng: random.Random):
    """Sides of a and b vertices on shuffled labels, a cross density drawn
    per pair, and random edges inside each side."""
    from ramseykit import SimpleGraph

    labels = list(range(a + b))
    rng.shuffle(labels)
    xs, ys = labels[:a], labels[a:]
    p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
    inside = set(xs)
    edges = [
        (u, v) for u, v in combinations(range(a + b), 2)
        if rng.random() < (p if (u in inside) != (v in inside) else 0.5)
    ]
    return SimpleGraph.from_edges(a + b, edges), xs, ys


def exact_panel_digest() -> str:
    digest = hashlib.sha256()
    for i in range(42):
        rng = random.Random(f"exact:{i}")
        a = 1 + i % 14
        g, xs, ys = noisy_pair(a, rng.randint(max(a - 2, 1), 14), rng)
        res = eps_regular_exact(g, xs, ys, rng.choice(PIN_EPS))
        digest.update(repr((res.regular, res.deviation, res.witness)).encode())
    return digest.hexdigest()


def sample_panel_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(60):
        rng = random.Random(f"sample:{seed}")
        g, xs, ys = noisy_pair(rng.randint(1, 20), rng.randint(1, 20), rng)
        eps, trials = rng.choice(PIN_EPS), rng.choice((1, 5, 50, 300))
        v = eps_regular_sample(g, xs, ys, eps, trials=trials, seed=seed)
        digest.update(repr((v.status, v.trials, v.deviation, v.witness)).encode())
    return digest.hexdigest()


def test_exact_verdicts_are_pinned() -> None:
    # sides 1-14 with shuffled labels and edges inside each side; the
    # digest covers the verdict, the worst deviation and its witness
    assert exact_panel_digest() == EXACT_PANEL_SHA256


def test_sampled_verdicts_are_pinned() -> None:
    assert sample_panel_digest() == SAMPLE_PANEL_SHA256


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_counterparts_deviate_most_at_the_least_size(seed: int) -> None:
    # The mean degree into S of the s vertices of largest (smallest) degree
    # falls (rises) with s, so every counterpart density lies between the
    # two at the least admissible size lo, and none deviates further.
    rng = random.Random(seed)
    a, b = rng.randint(1, 10), rng.randint(1, 12)
    g = random_bipartite(a, b, rng.random(), seed)
    base = pair_density(g, range(a), range(a, a + b))
    eps = Fraction(str(rng.choice(PIN_EPS)))
    subset = rng.sample(range(a), rng.randint(1, a))
    degs = sorted(sum(g.has_edge(x, y) for x in subset) for y in range(a, a + b))
    lo = math.ceil(eps * b)

    def worst(s: int) -> Fraction:
        top, bottom = sum(degs[-s:]), sum(degs[:s])
        return max(abs(Fraction(t, len(subset) * s) - base) for t in (top, bottom))

    assert max(worst(s) for s in range(lo, b + 1)) == worst(lo)


def minus_matching(a: int):
    """Complete bipartite pair with a perfect matching removed."""
    from ramseykit import SimpleGraph

    edges = [(i, a + j) for i in range(a) for j in range(a) if i != j]
    return SimpleGraph.from_edges(2 * a, edges)


def test_regular_pairs_inherit_to_large_subsets() -> None:
    # A pair that is eps-regular restricts to a max(eps/alpha, 2eps)-regular
    # pair on any subsets holding an alpha fraction of each side.
    g = minus_matching(12)
    xs, ys = range(12), range(12, 24)
    eps = Fraction(3, 10)
    assert eps_regular_exact(g, xs, ys, eps).regular
    alpha = Fraction(1, 2)
    relaxed = max(eps / alpha, 2 * eps)
    for sub_x, sub_y in (
        (list(xs)[:6], list(ys)[:6]),
        (list(xs)[6:], list(ys)[:6]),
        (list(xs)[3:9], list(ys)[6:]),
    ):
        assert eps_regular_exact(g, sub_x, sub_y, relaxed).regular


def test_deviation_equal_to_the_tolerance_is_still_regular() -> None:
    # Violation requires a strict excess, so a worst deviation of exactly
    # eps stays on the regular side.
    g = minus_matching(12)
    res = eps_regular_exact(g, range(12), range(12, 24), Fraction(1, 4))
    assert res.deviation == Fraction(1, 4)
    assert res.regular
    tight = eps_regular_exact(g, range(12), range(12, 24), Fraction(1, 5))
    assert not tight.regular


def test_exact_check_rejects_bad_inputs() -> None:
    g = complete_bipartite(3, 3)
    with pytest.raises(DomainError):
        eps_regular_exact(g, [], range(3, 6), Fraction(1, 10))
    with pytest.raises(DomainError):
        eps_regular_exact(g, range(4), range(3, 6), Fraction(1, 10))
    with pytest.raises(DomainError):
        eps_regular_exact(g, range(3), range(3, 6), 0)


def test_exact_check_refuses_oversized_sides() -> None:
    g = complete_bipartite(19, 19)
    with pytest.raises(CapabilityError):
        eps_regular_exact(g, range(19), range(19, 38), Fraction(1, 5))
    partition = VertexPartition.of_size(38, 19)
    with pytest.raises(CapabilityError, match="mode='sample'"):
        build_reduced(split_coloring(19, 19), partition, Fraction(1, 5), Fraction(1, 2))


@pytest.mark.parametrize("eps", ["abc", "nan", "inf", "1/0"])
def test_unreadable_tolerances_are_domain_errors(eps) -> None:
    g = complete_bipartite(3, 3)
    with pytest.raises(DomainError, match="exact rational"):
        eps_regular_exact(g, range(3), range(3, 6), eps)


@pytest.mark.parametrize("trials", [True, 1.5, "3", -1])
def test_sampler_refuses_bad_trials(trials) -> None:
    g = complete_bipartite(3, 3)
    with pytest.raises(DomainError, match="trials"):
        eps_regular_sample(g, range(3), range(3, 6), 0.2, trials=trials)
    partition = VertexPartition.of_size(6, 3)
    with pytest.raises(DomainError, match="trials"):
        build_reduced(split_coloring(3, 3), partition, 0.2, 0.5, mode="sample", trials=trials)


@pytest.mark.parametrize("parts", [1, 2])
def test_reduced_graph_refuses_bad_parameters_with_any_number_of_pairs(parts: int) -> None:
    # one part has no pair to check, so the refusal cannot come from a pair check
    coloring = split_coloring(3, 3)
    partition = VertexPartition.of_size(6, 6 // parts)
    for eps in (-1, 0):
        for mode in ("exact", "sample"):
            with pytest.raises(DomainError, match="eps must be positive"):
                build_reduced(coloring, partition, eps, 0.5, mode=mode)
    with pytest.raises(DomainError, match="trials must be a nonnegative int, not -3"):
        build_reduced(coloring, partition, 0.2, 0.5, mode="sample", trials=-3)


def test_float_tolerances_are_read_as_decimals() -> None:
    g = complete_bipartite(6, 6)
    res = eps_regular_exact(g, range(6), range(6, 12), 0.05)
    assert res.eps == Fraction(1, 20)


# --- sampled regularity ------------------------------------------------


def test_sampler_verdict_cannot_be_used_as_a_boolean() -> None:
    g = complete_bipartite(5, 5)
    verdict = eps_regular_sample(g, range(5), range(5, 10), 0.3, trials=50, seed=1)
    with pytest.raises(TypeError):
        bool(verdict)


def test_sampler_finds_the_matching_violation_on_large_sides() -> None:
    g = matched_pairs(20)
    verdict = eps_regular_sample(
        g, range(20), range(20, 40), 0.15, trials=2000, seed=0
    )
    assert verdict.status == "violated"
    u, v = verdict.witness
    local = pair_density(g, u, v)
    assert abs(local - verdict.base_density) > Fraction(15, 100)


def test_sampler_reports_no_violation_on_balanced_random_pairs() -> None:
    g = random_bipartite(20, 20, 0.5, 4)
    verdict = eps_regular_sample(
        g, range(20), range(20, 40), 0.45, trials=1000, seed=2
    )
    assert verdict.status == "no-violation-found"


def test_sampler_is_deterministic_per_seed() -> None:
    g = matched_pairs(12)
    a = eps_regular_sample(g, range(12), range(12, 24), 0.2, trials=400, seed=7)
    b = eps_regular_sample(g, range(12), range(12, 24), 0.2, trials=400, seed=7)
    assert (a.status, a.witness, a.trials) == (b.status, b.witness, b.trials)


@given(st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_sampler_violations_are_sound_against_the_exact_check(seed: int) -> None:
    g = random_bipartite(7, 7, 0.3, seed)
    xs, ys = range(7), range(7, 14)
    eps = Fraction(1, 5)
    verdict = eps_regular_sample(g, xs, ys, eps, trials=300, seed=seed)
    if verdict.status == "violated":
        assert not eps_regular_exact(g, xs, ys, eps).regular


@st.composite
def regularity_cases(draw):
    """A bipartite host with shuffled sides of 1-5 vertices and a tolerance."""
    from ramseykit import SimpleGraph

    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cross = [(i, a + j) for i in range(a) for j in range(b)]
    keep = draw(st.lists(st.booleans(), min_size=len(cross), max_size=len(cross)))
    g = SimpleGraph.from_edges(a + b, [e for e, kept in zip(cross, keep) if kept])
    xs = draw(st.permutations(range(a)))
    ys = draw(st.permutations(range(a, a + b)))
    eps = draw(st.fractions(Fraction(1, 20), Fraction(4, 5), max_denominator=20))
    return g, xs, ys, eps


@given(regularity_cases(), st.integers(0, 1000))
@settings(max_examples=120, deadline=None)
def test_counterpart_scan_matches_subset_enumeration(case, seed) -> None:
    # the checkers scan only the extreme counterparts of each subset; the
    # oracle enumerates every qualifying (U, V)
    g, xs, ys, eps = case

    def qualifies(witness) -> bool:
        us, vs = witness
        return (
            set(us) <= set(xs)
            and set(vs) <= set(ys)
            and len(us) >= eps * len(xs)
            and len(vs) >= eps * len(ys)
        )

    res = eps_regular_exact(g, xs, ys, eps)
    worst = brute_regularity(g.has_edge, xs, ys, eps)
    assert res.deviation == worst
    assert res.regular == (worst <= eps)
    if not res.regular:
        assert qualifies(res.witness)
        assert abs(pair_density(g, *res.witness) - res.base_density) == res.deviation

    verdict = eps_regular_sample(g, xs, ys, eps, trials=20, seed=seed)
    if verdict.status == "violated":
        assert qualifies(verdict.witness)
        local = abs(pair_density(g, *verdict.witness) - verdict.base_density)
        assert local == verdict.deviation > eps


@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10**6),
       st.fractions(Fraction(1, 20), Fraction(4, 5), max_denominator=20))
@settings(max_examples=50, deadline=None)
def test_exact_check_matches_the_fraction_scan(a, b, seed, eps) -> None:
    # the oracle compares every candidate in Fractions; the checker compares
    # integers and only the least admissible counterpart size
    g, xs, ys = noisy_pair(a, b, random.Random(seed))
    res = eps_regular_exact(g, xs, ys, eps)
    assert res.eps == eps
    assert (res.regular, res.base_density, res.deviation, res.witness) == (
        fraction_regularity(g.has_edge, xs, ys, eps)
    )


# --- degree deviation ---------------------------------------------------


def test_regular_pairs_have_few_degree_outliers() -> None:
    g = minus_matching(12)
    xs, ys = range(12), range(12, 24)
    res = eps_regular_exact(g, xs, ys, Fraction(3, 10))
    assert res.regular
    report = degree_deviation_check(g, xs, ys, res.base_density, Fraction(3, 10))
    assert report.passed
    assert report.count_high == 0 and report.count_low == 0


def test_matching_pair_fails_degree_deviation() -> None:
    g = matched_pairs(10)
    report = degree_deviation_check(
        g, range(10), range(10, 20), Fraction(1, 2), Fraction(1, 10)
    )
    assert not report.passed


def test_degree_deviation_check_validates_both_parts() -> None:
    g = complete_bipartite(2, 2)
    # out of range both ways, a repeat, and an overlap with Y
    for xs in ([-1], [9], [0, 0], [0, 2]):
        with pytest.raises(DomainError):
            degree_deviation_check(g, xs, [2, 3], Fraction(1, 2), Fraction(1, 10))


@pytest.mark.parametrize("eps", [-1, 0])
def test_degree_deviation_check_rejects_nonpositive_eps(eps) -> None:
    g = complete_bipartite(2, 2)
    with pytest.raises(DomainError, match="eps must be positive"):
        degree_deviation_check(g, [0, 1], [2, 3], Fraction(1, 2), eps)


# --- partitions and reduced graphs --------------------------------------


def test_partition_constructors_and_validation() -> None:
    p = VertexPartition.of_size(18, 3)
    assert len(p) == 6
    assert p.equitable
    assert p.covered == tuple(range(18))
    q = VertexPartition.consecutive(10, 3)
    assert len(q) == 3
    assert sum(len(part) for part in q.parts) == 10
    leftover = VertexPartition.of_size(10, 4)
    assert len(leftover) == 2
    assert leftover.covered == tuple(range(8))
    with pytest.raises(DomainError):
        VertexPartition.from_parts(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(DomainError):
        VertexPartition.from_parts(4, [[0, 1], [2, 9]])


def test_reduced_graph_of_split_coloring_recovers_the_split() -> None:
    c = split_coloring(18, 9)
    partition = VertexPartition.of_size(27, 3)
    rg = build_reduced(c, partition, Fraction(1, 5), Fraction(1, 2), mode="exact")
    a_parts = {i for i, part in enumerate(partition.parts) if part[0] < 18}
    b_parts = set(range(9)) - a_parts
    want_blue = {e for e in combinations(sorted(a_parts), 2)}
    want_blue |= {e for e in combinations(sorted(b_parts), 2)}
    want_red = {tuple(sorted((i, j))) for i in a_parts for j in b_parts}
    assert set(rg.blue_edges) == want_blue
    assert set(rg.red_edges) == want_red
    for key, ann in rg.annotations.items():
        assert not ann.evidence_only


def test_reduced_graph_sample_mode_marks_evidence_only() -> None:
    c = split_coloring(18, 9)
    partition = VertexPartition.of_size(27, 3)
    rg = build_reduced(
        c, partition, Fraction(1, 5), Fraction(1, 2), mode="sample", trials=100, seed=1
    )
    assert rg.mode == "sample"
    assert all(ann.evidence_only for ann in rg.annotations.values())
    assert rg.red_edges and rg.blue_edges


# sha256 of every annotation and both edge sets of 20 reduced graphs per
# mode, recorded while build_reduced still recounted each pair density
REDUCED_SHA256 = {
    "exact": "7cab5b8ea13357f851d55f83f48afdd283352764e4a1a0830d00d5f78b6c6b82",
    "sample": "4fad13f4e3ce60e84465aeeab19d5b437b579c8b0c1d1fd2cd3ff318ecf8dba1",
}


def reduced_panel_digest(mode: str) -> str:
    digest = hashlib.sha256()
    for i in range(20):
        rng = random.Random(f"reduced:{mode}:{i}")
        n = rng.randint(4, 18)
        labels = list(range(n))
        rng.shuffle(labels)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(5, n - 1))))
        parts = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        rg = build_reduced(
            EdgeColoring.random(n, rng), VertexPartition.from_parts(n, parts),
            rng.choice(PIN_EPS), rng.choice((0, 0.25, 0.5, Fraction(2, 3))),
            mode=mode, trials=rng.choice((1, 20, 200)), seed=i,
        )
        digest.update(repr((sorted(rg.red_edges), sorted(rg.blue_edges))).encode())
        for key, ann in sorted(rg.annotations.items()):
            record = (key, sorted(ann.density.items()), sorted(ann.regular.items()))
            digest.update(repr(record).encode())
    return digest.hexdigest()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_exact_reduced_annotations_match_a_check_per_color(seed: int) -> None:
    # build_reduced scans each pair in red only; a check per color must agree
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    labels = list(range(n))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
    parts = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    coloring = EdgeColoring.random(n, rng)
    eps = rng.choice(PIN_EPS)
    rg = build_reduced(coloring, VertexPartition.from_parts(n, parts), eps, 0.5)
    for (i, j), ann in rg.annotations.items():
        for color in (RED, BLUE):
            res = eps_regular_exact(coloring.view(color), parts[i], parts[j], eps)
            assert ann.density[color] == res.base_density
            assert ann.regular[color] == ("regular" if res.regular else "irregular")


@pytest.mark.parametrize("mode", ["exact", "sample"])
def test_reduced_graphs_are_pinned(mode: str) -> None:
    # 2-6 parts of shuffled labels covering K_n, n <= 18, so every part
    # stays under the exact cap; eps, d and trials drawn per graph
    assert reduced_panel_digest(mode) == REDUCED_SHA256[mode]


# --- dichotomy and near-split detection ----------------------------------


def test_single_color_host_lands_in_the_matching_case() -> None:
    n = 18
    all_red = EdgeColoring(n, red_bits=2 ** (n * (n - 1) // 2) - 1)
    rg = build_reduced(all_red, VertexPartition.of_size(n, 2), Fraction(1, 5), Fraction(1, 2))
    verdict = dichotomy_classify(rg, Fraction(1, 20))
    assert verdict.case1
    assert verdict.color == RED
    assert verdict.covered >= verdict.threshold


def test_split_host_avoids_the_matching_case() -> None:
    c = split_coloring(18, 9)
    rg = build_reduced(c, VertexPartition.of_size(27, 3), Fraction(1, 5), Fraction(1, 2))
    verdict = dichotomy_classify(rg, Fraction(1, 20))
    assert not verdict.case1
    assert verdict.diagnostics


@pytest.mark.parametrize("lam", [Fraction(-2, 3), -1])
def test_dichotomy_refuses_negative_lam(lam) -> None:
    rg = build_reduced(split_coloring(18, 9), VertexPartition.of_size(27, 3), 0.2, 0.5)
    with pytest.raises(DomainError, match="lam"):
        dichotomy_classify(rg, lam)


def test_split_coloring_is_detected_as_extremal() -> None:
    verdict = extremal_detect(split_coloring(6, 3), Fraction(1, 10))
    assert verdict.is_extremal
    assert set(verdict.a_side) == set(range(6))
    assert set(verdict.b_side) == set(range(6, 9))
    assert verdict.inner_color == BLUE
    assert verdict.inner_density == 1
    assert verdict.cross_density == 1


def test_large_split_coloring_is_detected_as_extremal() -> None:
    verdict = extremal_detect(split_coloring(18, 9), Fraction(1, 10))
    assert verdict.is_extremal
    assert set(verdict.a_side) == set(range(18))


@st.composite
def flipped_splits(draw):
    n = draw(st.integers(3, 18))
    a = draw(st.integers(0, n))
    pairs = list(combinations(range(n), 2))
    flips = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
    return split_coloring(a, n - a, flips)


@given(flipped_splits(), st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(1, 5),
                                          Fraction(2, 5), Fraction(3, 5)]))
@settings(max_examples=80, deadline=None)
def test_extremal_densities_match_a_color_recount(c, alpha) -> None:
    verdict = extremal_detect(c, alpha)
    if not verdict.is_extremal:
        return
    a, b, inner = verdict.a_side, verdict.b_side, verdict.inner_color
    cross = BLUE if inner == RED else RED
    inside = sum(c.color_of(u, v) == inner for u, v in combinations(a, 2))
    expected_in = Fraction(inside, len(a) * (len(a) - 1) // 2) if len(a) >= 2 else 1
    between = sum(c.color_of(u, v) == cross for u in a for v in b)
    expected_cross = Fraction(between, len(a) * len(b)) if a and b else 1
    assert verdict.inner_density == expected_in
    assert verdict.cross_density == expected_cross
    assert verdict.inner_density >= 1 - alpha and verdict.cross_density >= 1 - alpha


EXTREMAL_ALPHAS = (
    Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(2, 5), Fraction(7, 10),
)
# sha256 of repr(extremal_detect(c, alpha)), diagnostics included, over 600
# colorings and every alpha above, recorded while the near-split test still
# read both color views per candidate side
EXTREMAL_PANEL_SHA256 = "162cde8275beadbbbe61885d2dda4286372314b36de33bbb77c22c3400fea7da"


def extremal_panel_digest() -> str:
    digest = hashlib.sha256()
    for i in range(600):
        rng = random.Random(f"extremal:{i}")
        n = rng.randint(3, 30)
        kind = i % 3
        if kind == 0:
            c = EdgeColoring.random(n, rng)
        else:
            a = rng.randint(0, n)
            pairs = list(combinations(range(n), 2))
            flips = rng.sample(pairs, rng.randint(0, len(pairs) // 6)) if kind == 2 else []
            c = split_coloring(a, n - a, flips).relabeled(rng.sample(range(n), n))
            if rng.random() < 0.5:
                c = c.complemented()
        for alpha in EXTREMAL_ALPHAS:
            digest.update(repr(extremal_detect(c, alpha)).encode())
    return digest.hexdigest()


def test_extremal_verdicts_are_pinned() -> None:
    # random colorings, and split colorings on shuffled labels with up to
    # C(n,2)/6 flipped pairs, half of them complemented, n = 3..30; the
    # digest also covers candidates_tested and converged of every miss
    assert extremal_panel_digest() == EXTREMAL_PANEL_SHA256


def test_random_coloring_is_not_extremal_at_tight_tolerance() -> None:
    c = EdgeColoring.random(30, random.Random(13))
    verdict = extremal_detect(c, Fraction(1, 20))
    assert not verdict.is_extremal


def test_loose_tolerance_makes_the_condition_trivial() -> None:
    c = EdgeColoring.random(30, random.Random(13))
    verdict = extremal_detect(c, Fraction(7, 10))
    assert verdict.is_extremal
    assert verdict.a_side == ()


def test_minimum_degree_condition() -> None:
    c = split_coloring(4, 4)
    blue = c.view(BLUE)
    red = c.view(RED)
    assert dirac_check(red, range(8))
    assert not dirac_check(blue, range(8))
    assert dirac_check(blue, range(4))


# --- path-count lower bounds ---------------------------------------------


def test_rooted_bound_on_complete_bipartite_matches_product() -> None:
    g = complete_bipartite(8, 8)
    report = rooted_path_bound(g, range(8), range(8, 16), 0.36, 1, l=5, v=8)
    assert report.verdict == "confirmed"
    assert report.exact_count == 8 * 7 * 7 * 6 * 6
    assert report.bound <= report.exact_count


def test_rooted_bound_goes_vacuous_when_density_hypothesis_fails() -> None:
    g = complete_bipartite(8, 8)
    report = rooted_path_bound(g, range(8), range(8, 16), 0.36, 0.3, l=5, v=8)
    assert report.verdict == "vacuous"
    assert not report.hypotheses_satisfied


def test_rooted_bound_random_dense_pairs_never_violate() -> None:
    for seed in range(10):
        g = random_bipartite(12, 12, 0.9, seed)
        root = next(
            u for u in range(12, 24) if g.degree(u) >= 0.56 * 12
        )
        report = rooted_path_bound(
            g, range(12), range(12, 24), 0.29, 0.85, l=5, v=root
        )
        assert report.verdict in ("confirmed", "vacuous")


def test_endpoint_bound_is_vacuous_at_desk_scale() -> None:
    # The endpoint bound needs n >= 5 / eps^2; no instance this small can
    # satisfy it, so the checker must refuse to certify anything.
    g = complete_bipartite(10, 10)
    report = endpoint_path_bound(
        g, range(10), range(10, 20), 0.04, 0.9, l=4, u=0, v=1
    )
    assert report.verdict == "vacuous"
    assert report.exact_count >= 0


def test_bound_checkers_reject_negative_vertices() -> None:
    g = complete_bipartite(3, 3)
    us, vs = range(3), range(3, 6)
    with pytest.raises(DomainError):
        rooted_path_bound(g, us, vs, 0.3, 1, l=2, v=-1)
    with pytest.raises(DomainError):
        endpoint_path_bound(g, us, vs, 0.3, 1, l=3, u=-1, v=4)
    with pytest.raises(DomainError):
        endpoint_path_bound(g, us, vs, 0.3, 1, l=3, u=0, v=-2)


def test_dense_bound_on_complete_pair_equals_exact_count() -> None:
    g = complete_bipartite(6, 7)
    report = dense_bipartite_bound(g, range(6), range(6, 13), 0, 6, k=5)
    assert report.verdict == "confirmed"
    assert report.bound == report.exact_count


def test_dense_bound_near_complete_pair_is_confirmed() -> None:
    from ramseykit import SimpleGraph

    edges = [(i, 150 + j) for i in range(150) for j in range(80)]
    edges.remove((0, 150))
    g = SimpleGraph.from_edges(230, edges)
    report = dense_bipartite_bound(
        g, range(150), range(150, 230), Fraction(9, 100000), 12, k=3
    )
    assert report.verdict == "confirmed"
    assert 0 < report.bound <= report.exact_count


def test_bound_dispatch_by_mode_key() -> None:
    g = complete_bipartite(5, 5)
    report = verify_count_bounds(
        g,
        range(5),
        range(5, 10),
        {"mode": "rooted", "eps": 0.3, "d": 1, "l": 3, "v": 5},
    )
    assert report.mode == "rooted"
    with pytest.raises(DomainError):
        verify_count_bounds(g, range(5), range(5, 10), {"mode": "unknown"})
    with pytest.raises(DomainError):
        verify_count_bounds(g, range(5), range(5, 10), {"mode": "rooted"})


@st.composite
def bipartite_hosts(draw):
    """A random graph on two parts of 1-4 vertices, inner edges included."""
    from ramseykit import SimpleGraph

    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = list(combinations(range(a + b), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, kept in zip(pairs, keep) if kept]
    return SimpleGraph.from_edges(a + b, edges), a, b


@given(bipartite_hosts(), st.data())
@settings(max_examples=60, deadline=None)
def test_exact_counts_match_permutation_scan(host, data) -> None:
    g, a, b = host
    n = a + b
    us, vs = range(a), range(a, n)

    def cross(x: int, y: int) -> bool:
        return (x < a) != (y < a) and g.has_edge(x, y)

    l = data.draw(st.integers(1, n), label="l")
    v = data.draw(st.sampled_from(vs), label="v")
    rooted = rooted_path_bound(g, us, vs, 0.25, 0.5, l=l, v=v)
    assert rooted.exact_count == brute_walks(cross, n, [v], l)

    if n >= 2:
        u, w = data.draw(st.permutations(range(n)), label="ends")[:2]
        ends = endpoint_path_bound(g, us, vs, 0.25, 0.5, l=l, u=u, v=w)
        assert ends.exact_count == brute_walks(cross, n, [u], l, end=w)

    k = data.draw(st.integers(1, n), label="k")
    dense = dense_bipartite_bound(g, us, vs, 0, 1, k=k)
    assert dense.exact_count == brute_walks(cross, n, list(vs), k - 1)


def test_path_enumeration_work_guard() -> None:
    g = complete_bipartite(200, 200)
    with pytest.raises(CapabilityError):
        rooted_path_bound(g, range(200), range(200, 400), 0.01, 1, l=9, v=200)


def test_bound_checkers_refuse_long_walks_before_the_bound_overflows() -> None:
    # the float bounds of l = k = 300 on a 200x200 pair overflow; the exact
    # count comes first and is refused by its size estimate
    g = complete_bipartite(200, 200)
    us, vs = range(200), range(200, 400)
    checks = [
        lambda: rooted_path_bound(g, us, vs, 0.01, 1, l=300, v=200),
        lambda: endpoint_path_bound(g, us, vs, 0.01, 1, l=300, u=0, v=1),
        lambda: dense_bipartite_bound(g, us, vs, 0, 1, k=300),
        lambda: verify_count_bounds(
            g, us, vs, {"mode": "rooted", "eps": 0.01, "d": 1, "l": 300, "v": 200}
        ),
    ]
    for check in checks:
        with pytest.raises(CapabilityError):
            check()


# --- pinned part-pair outputs --------------------------------------------


def hosted_pair(rng: random.Random, extra_max: int):
    """Parts of 3-12 vertices on shuffled labels with a cross density of
    1/2 to 1; with extra_max, 1 to extra_max more vertices and random edges
    everywhere off the pair, inside the parts included."""
    from ramseykit import SimpleGraph

    a, b = rng.randint(3, 12), rng.randint(3, 12)
    n = a + b + (rng.randint(1, extra_max) if extra_max else 0)
    labels = list(range(n))
    rng.shuffle(labels)
    us, vs = labels[:a], labels[a:a + b]
    p = rng.choice((0.5, 0.75, 0.9, 1.0, 1.0))
    side = {w: w in us for w in us + vs}
    edges = [
        (x, y) for x, y in combinations(range(n), 2)
        if rng.random() < (
            p if x in side and y in side and side[x] != side[y] else 0.5 * (n > a + b)
        )
    ]
    return SimpleGraph.from_edges(n, edges), us, vs


def bound_params(rng: random.Random, us: list, vs: list) -> dict:
    mode = rng.choice(("rooted", "endpoints", "dense-bipartite"))
    if mode == "rooted":
        eps = rng.choice((Fraction(1, 4), Fraction(29, 100), Fraction(9, 25), Fraction(9, 25)))
        return {
            "mode": mode, "eps": eps, "d": rng.choice((Fraction(1, 2), Fraction(17, 20), 1, 1)),
            "l": rng.randint(1, 7), "v": rng.choice(vs),
        }
    if mode == "endpoints":
        u, v = rng.sample(us + vs, 2)
        return {
            "mode": mode, "eps": rng.choice((Fraction(1, 25), Fraction(1, 4))),
            "d": rng.choice((Fraction(1, 2), 1)), "l": rng.randint(1, 7), "u": u, "v": v,
        }
    return {
        "mode": mode, "beta": rng.choice((0, 0, Fraction(1, 20000), Fraction(1, 10))),
        "delta": rng.randint(0, len(vs) // 2), "k": rng.randint(1, 7),
    }


# sha256 of repr over 300 bound reports with a degree deviation report on
# each pair, then 120 dichotomy verdicts, recorded while the bound checkers
# still walked the whole host and read degrees from g.adj
PAIR_PANEL_SHA256 = "67301a0c64f6627855f406caa4448a8fb80e86bcc60ec38a943a494dd22d16e1"


def pair_panel_digest() -> str:
    digest = hashlib.sha256()
    for i in range(300):
        rng = random.Random(f"bounds:{i}")
        g, us, vs = hosted_pair(rng, 4 if i % 2 else 0)
        report = verify_count_bounds(g, us, vs, bound_params(rng, us, vs))
        d = rng.choice((Fraction(1, 2), Fraction(3, 4), 1))
        dev = degree_deviation_check(g, us, vs, d, rng.choice((Fraction(1, 10), Fraction(1, 4))))
        digest.update(repr((report, dev)).encode())
    for i in range(40):
        rng = random.Random(f"dichotomy:{i}")
        n = rng.randint(9, 27)
        if i % 3 == 0:
            c = EdgeColoring.random(n, rng)
        else:
            pairs = list(combinations(range(n), 2))
            flips = rng.sample(pairs, rng.randint(0, len(pairs) // 8)) if i % 3 == 2 else []
            a = rng.randint(n // 3, n)
            c = split_coloring(a, n - a, flips).relabeled(rng.sample(range(n), n))
        labels = rng.sample(range(n), n)
        parts = []
        while n - sum(map(len, parts)) >= 2:
            start = sum(map(len, parts))
            parts.append(labels[start:start + rng.randint(2, 4)])
        rg = build_reduced(
            c, VertexPartition.from_parts(n, parts),
            rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))),
            rng.choice((0, Fraction(1, 4), Fraction(1, 2))),
        )
        for lam in (0, Fraction(1, 20), Fraction(1, 6)):
            digest.update(repr(dichotomy_classify(rg, lam)).encode())
    return digest.hexdigest()


def test_pair_outputs_are_pinned() -> None:
    # all three bound modes, vacuous and confirmed, l and k 1-7, on pairs
    # that are the host and pairs in hosts of up to 4 more vertices with
    # edges inside the parts; dichotomy verdicts on exact reduced graphs of
    # random, split and flipped-split colorings, n = 9-27, parts of 2-4
    assert pair_panel_digest() == PAIR_PANEL_SHA256


def test_bound_checkers_walk_the_pair_alone() -> None:
    # the complete 10x10 pair, alone, beside an isolated vertex, and in a
    # 40-vertex host with random edges everywhere off the pair: only the
    # pair's vertices may count towards the walk's kernel and size estimate
    from ramseykit import SimpleGraph

    rng = random.Random(23)
    pair = [(i, 10 + j) for i in range(10) for j in range(10)]
    off = [
        e for e in combinations(range(40), 2)
        if (e[0] < 10) == (e[1] < 10) or e[1] >= 20
    ]
    hosts = [
        SimpleGraph.from_edges(20, pair),
        SimpleGraph.from_edges(21, pair),
        SimpleGraph.from_edges(40, pair + [e for e in off if rng.random() < 0.5]),
    ]
    us, vs = range(10), range(10, 20)
    reports = [
        (
            rooted_path_bound(g, us, vs, 0.36, 1, l=10, v=10),
            endpoint_path_bound(g, us, vs, 0.36, 1, l=9, u=0, v=10),
            dense_bipartite_bound(g, us, vs, 0, 10, k=10),
        )
        for g in hosts
    ]
    assert [r.exact_count for r in reports[0]] == [457_228_800, 9_144_576, 914_457_600]
    assert reports[1] == reports[0] and reports[2] == reports[0]
