import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    CapabilityError,
    DomainError,
    EdgeColoring,
    SearchConfig,
    anneal_min,
    canonical_graph_reps,
    count_mono,
    exhaustive_min,
    parse_pattern,
    r_path,
    ramsey_via_search,
    split_coloring,
)
from ramseykit import search
from ramseykit.coloring import pair_count
from ramseykit.counting import copy_edge_masks
from ramseykit.search import _CopyEngine

from .oracles import brute_min, mono_copies


@pytest.mark.parametrize(
    "text,n,minimum",
    [
        ("P_4", 5, 10),
        ("P_4", 4, 0),
        ("S_3", 6, 6),
        ("S_3", 5, 0),
        ("K3", 6, 2),
        ("K3", 5, 0),
        ("C_4", 6, 2),
        ("P_1", 3, 6),
        ("P_1", 6, 12),
        ("P_1", 7, 14),
        ("P_3", 7, 43),
        ("P_4", 7, 76),
        ("P_5", 7, 96),
        ("C_4", 7, 5),
        ("C_5", 7, 0),
        ("K3", 7, 4),
        ("S_3", 7, 16),
    ],
)
def test_exhaustive_minimum_values(text: str, n: int, minimum: int) -> None:
    res = exhaustive_min(parse_pattern(text), n)
    assert res.best_count == minimum
    assert res.exact
    assert res.witness.n == n
    assert count_mono(res.witness, parse_pattern(text)) == minimum


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_copy_engine_matches_mask_recount(data) -> None:
    label = data.draw(
        st.sampled_from(["P_1", "P_2", "P_3", "P_4", "C_3", "C_4", "C_5", "S_1", "S_3", "K3", "K4"])
    )
    n = data.draw(st.integers(0, 12))
    pattern = parse_pattern(label)
    masks = copy_edge_masks(pattern, n)

    def recount(bits: int) -> int:
        return sum((m & bits == m) + (m & bits == 0) for m in masks)

    nbits = pair_count(n)
    colorings = st.integers(0, (1 << nbits) - 1)
    engine = _CopyEngine(pattern, n)
    # rows this short are tallied by bytes.count; check the numpy tally too
    engine._bytes_tally &= data.draw(st.booleans())
    states = data.draw(st.lists(colorings, min_size=1, max_size=6))
    red = engine._red_counts(states).T.tolist()
    assert red == [[(m & b).bit_count() for m in masks] for b in states]
    bits = data.draw(colorings)
    cur = engine.start(bits)
    assert type(cur) is int and cur == recount(bits)
    moves = st.tuples(st.integers(0, max(nbits - 1, 0)), st.booleans())
    for e, ask_first in data.draw(st.lists(moves, max_size=12 if nbits else 0)):
        if ask_first:
            d = engine.delta(e)
            assert type(d) is int and d == recount(bits ^ 1 << e) - recount(bits)
        else:
            d = recount(bits ^ 1 << e) - recount(bits)
        engine.flip(e)
        bits ^= 1 << e
        cur += d
        assert engine.bits == bits
    assert engine.start(bits) == cur == recount(bits)


def test_exhaustive_sweeps_every_extension_of_the_smaller_classes() -> None:
    runs = [exhaustive_min(parse_pattern("K3"), n) for n in range(7)]
    runs.append(exhaustive_min(parse_pattern("S_4"), 7))
    assert {res.method for res in runs} == {"exhaustive-canonical"}
    assert [res.explored for res in runs] == [1] + [
        len(canonical_graph_reps(n - 1)) << (n - 1) for n in range(1, 8)
    ]
    assert runs[6].explored == 34 * 32 == 1088
    assert runs[7].explored == 156 * 64 == 9984
    assert runs[7].best_count == 1


# every family, on every host small enough to sweep all 2^C(n,2) colorings
BRUTE_CASES = [
    (label, n)
    for label in ["P_1", "P_2", "P_3", "P_4", "P_5", "C_3", "C_4", "C_5",
                  "S_1", "S_2", "S_3", "S_4", "K2", "K3", "K4"]
    for n in range(6)
] + [("K3", 6), ("C_4", 6)]


@pytest.mark.parametrize("text,n", BRUTE_CASES)
def test_exhaustive_matches_brute_force(text: str, n: int) -> None:
    pattern = parse_pattern(text)
    res = exhaustive_min(pattern, n)
    assert res.best_count == brute_min(pattern, n)
    assert mono_copies(copy_edge_masks(pattern, n), res.witness.red_bits) == res.best_count


def test_exhaustive_rejects_large_hosts() -> None:
    with pytest.raises(CapabilityError):
        exhaustive_min(parse_pattern("K3"), 8)


def test_graph_isomorphism_class_counts() -> None:
    assert [len(canonical_graph_reps(n)) for n in range(1, 6)] == [1, 2, 4, 11, 34]


def test_canonical_reps_are_pairwise_distinct() -> None:
    reps = canonical_graph_reps(5)
    assert len(set(reps)) == len(reps)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_anneal_is_deterministic_per_seed(seed: int) -> None:
    cfg = SearchConfig(seed=seed, restarts=2, steps_per_restart=200)
    a = anneal_min(parse_pattern("K3"), 6, cfg)
    b = anneal_min(parse_pattern("K3"), 6, cfg)
    assert a.best_count == b.best_count
    assert a.witness == b.witness


def test_anneal_reports_consistent_witness() -> None:
    cfg = SearchConfig(seed=7)
    res = anneal_min(parse_pattern("P_6"), 8, cfg)
    assert not res.exact
    assert res.method == "anneal"
    assert count_mono(res.witness, parse_pattern("P_6")) == res.best_count


def test_anneal_never_beats_exhaustive_minimum() -> None:
    pattern = parse_pattern("K3")
    floor = exhaustive_min(pattern, 6).best_count
    for seed in range(5):
        res = anneal_min(pattern, 6, SearchConfig(seed=seed, restarts=2, steps_per_restart=500))
        assert res.best_count >= floor


def test_anneal_matches_exhaustive_on_small_instances() -> None:
    pattern = parse_pattern("S_3")
    floor = exhaustive_min(pattern, 6).best_count
    hits = sum(
        anneal_min(pattern, 6, SearchConfig(seed=s, restarts=4, steps_per_restart=800)).best_count
        == floor
        for s in range(10)
    )
    assert hits >= 9


def test_anneal_accepts_warm_start() -> None:
    pattern = parse_pattern("P_6")
    start = split_coloring(6, 2)
    res = anneal_min(pattern, 8, SearchConfig(seed=3, restarts=2, steps_per_restart=400), initial=start)
    assert res.best_count <= count_mono(split_coloring(6, 2), pattern)


def test_anneal_with_worker_pool_stays_deterministic() -> None:
    cfg = SearchConfig(seed=11, restarts=4, steps_per_restart=300)
    solo = anneal_min(parse_pattern("K3"), 6, cfg, threads=1)
    pooled = anneal_min(parse_pattern("K3"), 6, cfg, threads=2)
    assert solo.best_count == pooled.best_count
    assert solo.witness == pooled.witness


def test_anneal_refuses_threads_before_building_the_engine(monkeypatch) -> None:
    def unbuilt(*args):
        raise AssertionError("copy engine built for a refused run")

    monkeypatch.setattr(search, "_CopyEngine", unbuilt)
    with pytest.raises(DomainError, match="threads must be >= 1"):
        anneal_min(parse_pattern("K3"), 6, SearchConfig(seed=1), threads=0)


def test_ramsey_search_agrees_with_path_formula() -> None:
    res = ramsey_via_search(parse_pattern("P_4"), 6)
    assert res.value == r_path(4).value == 5
    assert res.provenance == "search"


def test_ramsey_search_reports_lower_bound_when_capped() -> None:
    res = ramsey_via_search(parse_pattern("P_4"), 4)
    assert res.value is None
    assert res.lower == 5
