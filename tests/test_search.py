import hashlib
import time
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    CapabilityError,
    DomainError,
    EdgeColoring,
    MinimizationResult,
    Pattern,
    RamseyValue,
    SearchConfig,
    anneal_min,
    canonical_graph_reps,
    canonical_key,
    count_mono,
    exhaustive_min,
    parse_pattern,
    r_cycle,
    r_path,
    ramsey_via_search,
    split_coloring,
    threshold_multiplicity,
)
from ramseykit import search
from ramseykit.coloring import _apply_perm, _least_labeling, job_seed, pair_count, payload_bytes
from ramseykit.counting import copy_edge_masks, total_copies_in_complete
from ramseykit.search import _CopyEngine

from .oracles import brute_canonical, brute_min, goodman_min_triangles, mono_copies


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


def _delta(engine, e: int) -> int:
    """The change flipping edge e would make, read from ``fall`` or ``rise``
    as ``_anneal_restart`` reads it."""
    return engine.fall[e] if engine.bits >> e & 1 else engine.rise[e]


def _walk_matches_mask_recount(engine, masks, bits, moves) -> None:
    """Start at ``bits`` and flip each move's edge; every count and every
    delta, before and after the flip, must match the copy-mask recount, and
    so must both deltas of every edge and every copy's red count once the
    walk ends."""

    def recount(bits: int) -> int:
        return sum((m & bits == m) + (m & bits == 0) for m in masks)

    cur = engine.start(bits)
    assert type(cur) is int and cur == recount(bits)
    for e in moves:
        d = _delta(engine, e)
        assert type(d) is int and d == recount(bits ^ 1 << e) - recount(bits)
        engine.flip(e)
        bits ^= 1 << e
        cur += d
        assert engine.bits == bits
        assert _delta(engine, e) == -d  # the reverse move undoes it
    s = engine.size
    for e in range(engine.nbits):  # in either color, no delta is ever stale
        through = [(m & bits).bit_count() for m in masks if m >> e & 1]
        assert engine.rise[e] == through.count(s - 1) - through.count(0)
        assert engine.fall[e] == through.count(1) - through.count(s)
    assert list(engine.red) == [(m & bits).bit_count() for m in masks]
    assert engine.start(bits) == cur == recount(bits)


# the largest host drawn for each label, so the mask recount stays cheap;
# P_6, C_6 and S_5 (s >= 5 edges) can run the numpy kernel's filter of the
# moves that change no delta
ENGINE_LABELS = {"P_1": 12, "P_2": 12, "P_3": 12, "P_4": 12, "C_3": 12, "C_4": 12, "C_5": 12,
                 "S_1": 12, "S_3": 12, "K3": 12, "K4": 12, "P_6": 8, "C_6": 8, "S_5": 10}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_copy_engine_matches_mask_recount(data) -> None:
    label = data.draw(st.sampled_from(sorted(ENGINE_LABELS)))
    n = data.draw(st.integers(0, ENGINE_LABELS[label]))
    pattern = parse_pattern(label)
    masks = copy_edge_masks(pattern, n)
    nbits = pair_count(n)
    colorings = st.integers(0, (1 << nbits) - 1)
    engine = _CopyEngine(pattern, n)
    # either flip kernel, and numpy with or without the unread-cell filter,
    # each with or without the memo of colorings seen, whatever the row length
    engine.lists = data.draw(st.booleans())
    engine.skip = not engine.lists and engine.size >= 5 and data.draw(st.booleans())
    engine.memo = data.draw(st.booleans())
    states = data.draw(st.lists(colorings, min_size=1, max_size=6))
    red = [search._red_counts(engine.edges, engine.nbits, b).tolist() for b in states]
    assert red == [[(m & b).bit_count() for m in masks] for b in states]
    moves = data.draw(st.lists(st.integers(0, max(nbits - 1, 0)), max_size=12 if nbits else 0))
    _walk_matches_mask_recount(engine, masks, data.draw(colorings), moves + moves[::-1])


@pytest.mark.parametrize("lists", [False, True])
@pytest.mark.parametrize(
    "label,n", [("C_5", 9), ("P_5", 8), ("P_6", 8), ("C_6", 8), ("K4", 10), ("S_5", 9)]
)
def test_copy_engine_long_rows_match_mask_recount(label: str, n: int, lists: bool) -> None:
    pattern = parse_pattern(label)
    engine = _CopyEngine(pattern, n)
    assert engine.inc.shape[1] * engine.size > search._LIST_FLIP_MAX and not engine.lists
    engine.lists = lists
    rng = Random(n)
    nbits = pair_count(n)
    moves = [rng.randrange(nbits) for _ in range(40)]
    moves += moves[::-1]  # walk back through the same cells
    masks, bits = copy_edge_masks(pattern, n), rng.getrandbits(nbits)
    for skip in [False, True] if not lists and engine.size >= 5 else [False]:
        engine.skip = skip
        _walk_matches_mask_recount(engine, masks, bits, moves)


def test_copy_engine_memo_is_per_walk_and_bounded(monkeypatch) -> None:
    # a host memoizes when restoring its 2 * C(n,2) deltas is no more work
    # than the c_e * s updates of a flip
    assert [_CopyEngine(parse_pattern(label), n).memo for label, n in
            [("S_3", 6), ("C_5", 9), ("P_7", 9), ("K3", 12), ("K3", 60)]] == [
        True, True, True, False, False]
    pattern, n = parse_pattern("C_5"), 9
    nbits, masks = pair_count(n), copy_edge_masks(pattern, n)
    rng = Random(9)
    bits, moves = rng.getrandbits(nbits), rng.sample(range(nbits), 8)
    engine = _CopyEngine(pattern, n)
    engine.start(bits)
    for e in moves:
        engine.flip(e)
    assert len(engine._seen) == len(moves)  # every coloring after the start
    engine.start(bits)
    assert engine._seen == {}
    # room for three colorings' deltas beside the engine's own cells
    cells = engine.copies * engine.size + nbits * (engine.size + 1)
    monkeypatch.setattr(search, "ENGINE_CELL_BUDGET", cells + 3 * 2 * nbits)
    small = _CopyEngine(pattern, n)
    for lists in (False, True):
        small.lists = lists
        small.start(bits)
        sizes = []
        for e in moves:
            small.flip(e)
            sizes.append(len(small._seen))
        assert sizes == [1, 2, 3, 1, 2, 3, 1, 2]
        _walk_matches_mask_recount(small, masks, bits, moves + moves[::-1])


def test_copy_engine_rows_list_the_copies_through_each_edge_in_order() -> None:
    for label, n in [("P_4", 6), ("S_3", 7), ("K4", 8)]:
        masks = copy_edge_masks(parse_pattern(label), n)
        engine = _CopyEngine(parse_pattern(label), n)
        assert engine.inc.tolist() == [
            [c for c, m in enumerate(masks) if m >> e & 1] for e in range(pair_count(n))
        ]
    # the engine lists its copies from vertex sequences, the masks by their
    # own walk: row c of edges is the ascending edges of mask c, on every
    # host up to K_9, with no copy or (P_1) no edge among them
    def edge_list(mask: int) -> list[int]:
        return [e for e in range(mask.bit_length()) if mask >> e & 1]

    for kind, ks in (("path", range(1, 7)), ("cycle", range(3, 7)), ("star", range(1, 7)),
                     ("clique", range(2, 6))):
        for k in ks:
            pattern = Pattern(kind, k)
            for n in range(10):
                edges = _CopyEngine(pattern, n).edges
                masks = copy_edge_masks(pattern, n)
                assert edges.shape == (len(masks), pattern.edge_count), (kind, k, n)
                assert edges.tolist() == [edge_list(m) for m in masks], (kind, k, n)


# sha256 of repr(shape) + tobytes() of _copy_edges on hosts past the row-for-row
# check above: the anneal bench host P_7/9 and threshold hosts, recorded while
# copies were still listed from itertools tuples
COPY_EDGES_SHA256 = {
    ("P_7", 9): "ff2124bfb3d97537fd5a7b2baa3ce2023cdc86a666341a36ea10e82c18431585",
    ("C_7", 10): "02efbcec2769a2f809cc5e265021e556e2e3cc08a132f9fc795c598e8922f9e5",
    ("C_8", 11): "5894510a712e273d090fc1787ff025f774d3cadf99806ebec26102101d4435c0",
    ("S_5", 12): "816efbe489e1100834cc01f5f9c47b91cb9b11a5d6b8579560cae7466c655466",
    ("K5", 12): "006967853e64cee98f3353836e450fd8ca9ee35e422e37438068f5e800c0ede8",
}


@pytest.mark.parametrize("label,n", sorted(COPY_EDGES_SHA256))
def test_copy_edges_are_pinned_on_large_hosts(label: str, n: int) -> None:
    edges = search._copy_edges(parse_pattern(label), n)
    assert edges.flags.c_contiguous  # the flip kernel gathers whole rows
    digest = hashlib.sha256(repr(edges.shape).encode() + edges.tobytes()).hexdigest()
    assert digest == COPY_EDGES_SHA256[label, n]


# the anneal bench instances, three long-row hosts, one short and one edgeless
RESTART_PIN_CASES = [
    ("P_4", 5), ("S_3", 6), ("K3", 6), ("C_5", 9), ("P_6", 8), ("K3", 12),
    ("C_4", 12), ("P_7", 9), ("S_3", 12), ("K4", 14), ("P_2", 4), ("P_1", 3),
]
# sha256 of repr(_restart_outcomes()), recorded while proposals still
# gathered short rows and called rng.randrange
RESTART_OUTCOMES_SHA256 = "49f39f7a83c67237a218dea0467109b7bcc8d7b5eebf1fdf16956a9387b1adb1"


def _restart_outcomes() -> list:
    out = []
    for label, n in RESTART_PIN_CASES:
        pattern = parse_pattern(label)
        engine = _CopyEngine(pattern, n)
        nbits = pair_count(n)
        for seed in (1, 2, 3):
            warm = Random(seed).getrandbits(nbits)
            for config, initial in [
                (SearchConfig(seed=seed), None),
                (SearchConfig(seed=seed, steps_per_restart=0), None),
                (SearchConfig(seed=seed, initial_temperature=50.0, cooling_rate=0.999), warm),
            ]:
                out.append(search._anneal_restart(engine, job_seed(seed, 0), config, initial))
        res = anneal_min(pattern, n, SearchConfig(seed=4, restarts=1), initial=EdgeColoring(n, 0))
        out.append((res.best_count, res.witness.serialize()))
    return out


def test_anneal_restart_outcomes_are_pinned() -> None:
    digest = hashlib.sha256(repr(_restart_outcomes()).encode()).hexdigest()
    assert digest == RESTART_OUTCOMES_SHA256


class _ZeroDeltas:
    """Engine stand-in: every proposal reads delta 0, so it is accepted with
    no acceptance draw, and each flipped edge is recorded."""

    def __init__(self, nbits: int, copies: int = 1, size: int = 2):
        self.nbits, self.size, self.copies, self.flips = nbits, size, copies, []

    def start(self, bits: int) -> int:
        self.rise = self.fall = [0] * self.nbits
        return 0

    def flip(self, e: int) -> None:
        self.flips.append(e)


def test_anneal_draws_each_edge_as_randrange() -> None:
    for nbits in range(1, 67):
        engine = _ZeroDeltas(nbits)
        search._anneal_restart(engine, nbits, SearchConfig(seed=0, steps_per_restart=200), 0)
        rng = Random(nbits)
        assert engine.flips == [rng.randrange(nbits) for _ in range(200)]
    # a host with no copy, such as P_5 in K_4, or only copies of one edge or
    # none (P_2, S_1, P_1), runs no step at all
    for copies, size in [(0, 4), (6, 1), (4, 0)]:
        engine = _ZeroDeltas(6, copies, size)
        search._anneal_restart(engine, 6, SearchConfig(seed=0, steps_per_restart=200), 0)
        assert engine.flips == []


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


EXHAUSTIVE_PIN_LABELS = (
    [f"P_{k}" for k in range(1, 8)] + [f"C_{k}" for k in range(3, 8)]
    + [f"S_{k}" for k in range(1, 6)] + [f"K{k}" for k in range(2, 6)]
)
# sha256 of repr over the 168 outcomes of exhaustive_min(p, n), p in
# EXHAUSTIVE_PIN_LABELS and n = 0..7, and over P_6/8 and C_6/8, recorded while
# copies with no edge at the last vertex were still counted apart
EXHAUSTIVE_SHA256 = "62049769febd2b5c4901f757373f81371db4169ae06d488e6ea660597ffc68e2"
EXHAUSTIVE_N8_SHA256 = "390a6a04b3fd0ee0308f27d092336cce6ec0c59b85ae9241fa0c4fcc531c31e8"


def _exhaustive_outcome(label: str, n: int) -> tuple:
    res = exhaustive_min(parse_pattern(label), n)
    return (res.best_count, res.witness.serialize(), res.exact, res.explored, res.method)


def test_exhaustive_outcomes_are_pinned() -> None:
    out = [_exhaustive_outcome(label, n) for label in EXHAUSTIVE_PIN_LABELS for n in range(8)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == EXHAUSTIVE_SHA256


def test_exhaustive_outcomes_past_the_guard_are_pinned() -> None:
    out = [_exhaustive_outcome(label, 8) for label in ("P_6", "C_6")]
    assert [best for best, *_ in out] == [300, 10]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == EXHAUSTIVE_N8_SHA256


# the sweep holds every class in one int and ENGINE_CELL_BUDGET bounds the
# annealing engine only, so no budget batches it: these check that the
# pinned outcomes do not depend on the budget (1 once swept a state at a
# time, and 3,500 the 156 classes on 6 vertices in uneven batches)
@pytest.mark.parametrize("budget", [1, 3500])
def test_batched_sweeps_keep_the_pinned_outcomes(monkeypatch, budget: int) -> None:
    monkeypatch.setattr(search, "ENGINE_CELL_BUDGET", budget)
    out = [_exhaustive_outcome(label, n) for label in EXHAUSTIVE_PIN_LABELS for n in range(8)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == EXHAUSTIVE_SHA256
    out = [_exhaustive_outcome(label, 8) for label in ("P_6", "C_6")]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == EXHAUSTIVE_N8_SHA256


# every kind, on hosts up to K_9 (P_7/9: 90,720 copies)
WALK_PATTERNS = (
    [Pattern("path", k) for k in range(1, 8)] + [Pattern("cycle", k) for k in range(3, 8)]
    + [Pattern("star", k) for k in range(1, 7)] + [Pattern("clique", k) for k in range(2, 6)]
)


def test_exhaustive_walk_lists_each_copy_once_in_bounded_counters(monkeypatch) -> None:
    # with weight 1 << e the walk yields each copy's edge mask: the copies of
    # _copy_edges, each once, in the same order
    for pattern in WALK_PATTERNS:
        for n in range(10):
            masks = list(search._walk_copies(pattern, n, [1 << e for e in range(pair_count(n))]))
            assert len(masks) == total_copies_in_complete(n, pattern), (pattern.label, n)
            rows = [[e for e in range(m.bit_length()) if m >> e & 1] for m in masks]
            assert rows == search._copy_edges(pattern, n).tolist(), (pattern.label, n)
    # a count is at most the copies in each color, and a sum of the two at
    # most twice that: no counter needs more planes than that
    sums = []
    sliced_add = search._sliced_add

    def spy(a, b):
        sums.append((a, b, sliced_add(a, b)))
        return sums[-1][2]

    monkeypatch.setattr(search, "_sliced_add", spy)
    pattern = parse_pattern("C_6")
    copies = total_copies_in_complete(9, pattern)
    planes_max = copies.bit_length() + 1  # ceil(log2(copies + 1)) + 1
    table = list(search._extension_counts(pattern, 9))
    assert len(table) == 1 << 8
    assert all(len(planes) <= planes_max for planes in table)
    assert all(max(map(len, counters)) <= planes_max for counters in sums)
    res = exhaustive_min(pattern, 9)
    assert res.best_count == 64 and res.explored == 12346 << 8


def test_exhaustive_triangle_minima_are_goodmans() -> None:
    for n in range(3, search.EXHAUSTIVE_MAX_N + 1):
        assert exhaustive_min(parse_pattern("K3"), n).best_count == goodman_min_triangles(n)


def test_exhaustive_reads_the_copy_list_without_an_engine(monkeypatch) -> None:
    def refuse(pattern, n):
        raise AssertionError("exhaustive_min built an annealing engine")

    monkeypatch.setattr(search, "_CopyEngine", refuse)
    assert exhaustive_min(parse_pattern("P_5"), 7).best_count == 96


def test_exhaustive_builds_each_class_list_once(monkeypatch) -> None:
    first = exhaustive_min(parse_pattern("P_5"), 7)
    calls = []
    build = search.canonical_graph_reps
    monkeypatch.setattr(search, "canonical_graph_reps", lambda n: calls.append(n) or build(n))
    again = exhaustive_min(parse_pattern("P_5"), 7)
    assert calls == []
    assert (again.best_count, again.witness, again.explored) == (
        first.best_count, first.witness, first.explored
    )


def test_class_table_is_in_witness_order() -> None:
    # bit j of every class set is the j-th least serialized class, so the
    # lowest tied bit at a neighbourhood is its least serialized tie
    for n in range(1, 9):
        states, planes = search._class_table(n)
        assert len(states) == len(canonical_graph_reps(n - 1))
        payload = [payload_bytes(n)(bits) for bits in states]
        assert all(a < b for a, b in zip(payload, payload[1:])), n
        assert len(planes) == pair_count(n)
        for e, plane in enumerate(planes):
            assert all((plane >> j & 1) == (bits >> e & 1) for j, bits in enumerate(states))


@pytest.mark.parametrize("label", ["P_2", "S_1"])
def test_exhaustive_hands_finish_one_candidate_per_neighbourhood(monkeypatch, label) -> None:
    # every coloring of K_7 ties for P_2 and S_1: 156 classes times 64
    # neighbourhoods, of which the sweep hands on each neighbourhood's least
    finish, handed = search._finish, []

    def spy(pattern, n, best, candidates, *rest):
        handed.append(list(candidates))
        return finish(pattern, n, best, handed[-1], *rest)

    monkeypatch.setattr(search, "_finish", spy)
    res = exhaustive_min(parse_pattern(label), 7)
    assert len(handed) == 1 and len(handed[0]) <= 1 << 6
    assert res.witness.serialize() == b"RMC1 7\n000000\n"
    assert res.explored == 156 << 6


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


def test_exhaustive_rejects_large_hosts(monkeypatch) -> None:
    assert search.EXHAUSTIVE_MAX_N == search.CLASS_REPS_MAX_N + 1 == 9

    def refuse(*args):
        raise AssertionError("the refused sweep built its copies or classes")

    monkeypatch.setattr(search, "_walk_copies", refuse)
    monkeypatch.setattr(search, "_class_table", refuse)
    with pytest.raises(CapabilityError, match=r"limited to n <= 9, one past the graph classes"):
        exhaustive_min(parse_pattern("K3"), 10)


def test_graph_isomorphism_class_counts() -> None:
    assert [len(canonical_graph_reps(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]


# sha256 of repr(canonical_graph_reps(n)) for n = 0..7, recorded while each
# level was still built by canonical relabeling and a dict: the exhaustive
# witnesses depend on these exact labels and this order
CLASS_LIST_SHA256 = [
    "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
    "3639c5501f6c3f516eb14a915d6ae1583a1c70be2c1a5b8618c0ad78858d6ace",
    "b47aa914fd7f2a63688ff13c4a3513a29f7e4464081a496eb8a4257b0e6b9b32",
    "335bfe9c819f870673e3c414845904bf8c8f6529752c7bb65d91be33d9b27da4",
    "0026a11c3b89b769021e2710d788a6261501703a99961d57fd00e95c395bab59",
    "3da8217166819d238a1b3c71826a8f05b0a4d2cab2ceb6a3ece54fbfaa19e3ef",
    "7bcd025c566b00384b92521209eeccdfbc8e8661610d15dbd5366676828166f0",
]


def test_class_lists_are_pinned() -> None:
    digests = [
        hashlib.sha256(repr(canonical_graph_reps(n)).encode()).hexdigest() for n in range(8)
    ]
    assert digests == CLASS_LIST_SHA256


def test_class_reps_are_their_own_brute_canonical_form() -> None:
    for n in range(7):
        for rep in canonical_graph_reps(n):
            assert brute_canonical(rep, n) == rep


def test_class_reps_are_the_brute_forms_of_every_small_graph() -> None:
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        forms = set()
        for bits in range(1 << len(pairs)):
            adj = [0] * n
            for k, (i, j) in enumerate(pairs):
                if bits >> k & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            forms.add(brute_canonical(adj, n))
        assert forms == set(canonical_graph_reps(n))


def test_own_mode_returns_automorphisms_that_generate_the_group() -> None:
    for n in range(8):
        for rep in canonical_graph_reps(n):
            gens = _least_labeling(rep, n, own=True)
            assert all(_apply_perm(rep, g) == rep for g in gens)
            if n <= 6:
                group = {tuple(range(n))}
                frontier = list(group)
                while frontier:
                    a = frontier.pop()
                    for g in gens:
                        b = tuple(a[v] for v in g)
                        if b not in group:
                            group.add(b)
                            frontier.append(b)
                autos = {p for p in permutations(range(n)) if _apply_perm(rep, p) == rep}
                assert group == autos


def _tested_extensions(monkeypatch, n: int) -> list[tuple[int, ...]]:
    """Every graph that ``canonical_graph_reps(n)`` runs the canonicity test on."""
    tested = []
    test = search._least_labeling

    def spy(adj, m, own=False):
        tested.append(adj)
        return test(adj, m, own)

    monkeypatch.setattr(search, "_least_labeling", spy)
    canonical_graph_reps(n)
    return tested


def test_extensions_dropped_before_the_test_are_not_canonical(monkeypatch) -> None:
    tested = set(_tested_extensions(monkeypatch, 6))  # every level up to 6
    for m in range(1, 7):
        for adj in canonical_graph_reps(m - 1):
            for ext in range(1 << (m - 1)):
                adj2 = tuple(a | (ext >> i & 1) << (m - 1) for i, a in enumerate(adj)) + (ext,)
                if adj2 not in tested:
                    assert brute_canonical(adj2, m) != adj2


def test_canonicity_tests_per_level_are_pinned(monkeypatch) -> None:
    # a rule that stops dropping extensions leaves the class lists as they
    # are but moves these counts
    for n, per_level in [
        (6, [1, 2, 4, 11, 36, 184]),
        (7, [1, 2, 4, 11, 36, 184, 1311]),
    ]:
        sizes = Counter(len(adj) for adj in _tested_extensions(monkeypatch, n))
        assert [sizes[m] for m in range(1, n + 1)] == per_level


def test_canonical_key_leaves_every_class_rep_unchanged() -> None:
    for n in range(7):
        for rep in canonical_graph_reps(n):
            red = [(i, j) for i, j in combinations(range(n), 2) if rep[i] >> j & 1]
            coloring = EdgeColoring.from_red_edges(n, red)
            assert canonical_key(coloring) == coloring.serialize()


@pytest.mark.parametrize("n", [-1, -2])
def test_class_reps_reject_negative_n(n: int) -> None:
    with pytest.raises(DomainError):
        canonical_graph_reps(n)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exhaustive_min(Pattern.path(3), -1), "n must be nonnegative"),
        (
            lambda: anneal_min(Pattern.path(3), 5, SearchConfig(seed=1), initial=EdgeColoring(4)),
            "wrong vertex count",
        ),
    ],
    ids=["exhaustive_min-n", "anneal_min-initial"],
)
def test_searches_refuse_bad_arguments(call, message: str) -> None:
    with pytest.raises(DomainError, match=message):
        call()


def test_finish_refuses_a_witness_the_dp_recounts_differently(monkeypatch) -> None:
    monkeypatch.setattr(search, "count_mono", lambda coloring, pattern: -1)
    with pytest.raises(AssertionError, match="exhaustive-canonical said 1, DP says -1"):
        exhaustive_min(Pattern.path(3), 3)


def test_class_reps_refuse_hosts_above_the_cap() -> None:
    with pytest.raises(CapabilityError):
        canonical_graph_reps(search.CLASS_REPS_MAX_N + 1)


def test_canonical_reps_are_pairwise_distinct() -> None:
    reps = canonical_graph_reps(5)
    assert len(set(reps)) == len(reps)


@pytest.mark.parametrize(
    "field,value",
    [
        ("restarts", 0),
        ("steps_per_restart", -1),
        ("initial_temperature", 0.0),
        ("initial_temperature", -1.0),
        ("initial_temperature", float("nan")),
        ("initial_temperature", float("inf")),
        ("cooling_rate", 0.0),
        ("cooling_rate", 1.0),
        ("cooling_rate", float("nan")),
        ("initial_temperature", True),
        ("initial_temperature", None),
        ("initial_temperature", "2.0"),
        ("initial_temperature", 2j),
        ("cooling_rate", True),
        ("cooling_rate", None),
        ("cooling_rate", "0.9"),
        ("restarts", True),
        ("restarts", 1.5),
        ("restarts", "2"),
        ("steps_per_restart", False),
        ("steps_per_restart", 10.0),
        ("seed", None),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "1"),
    ],
)
def test_search_config_refuses_bad_schedules(field: str, value: float) -> None:
    with pytest.raises(DomainError):
        SearchConfig(**{"seed": 1, field: value}).validate()


def test_anneal_refuses_a_host_past_the_copy_budget_quickly() -> None:
    # P_8 in K_14 has 60,540,480 copies; the refusal comes before any is listed
    started = time.perf_counter()
    with pytest.raises(CapabilityError, match="60,540,480 copies"):
        anneal_min(parse_pattern("P_8"), 14, SearchConfig(seed=1))
    assert time.perf_counter() - started < 1


class _Admitted(Exception):
    pass


def test_engine_budget_admits_the_threshold_host_of_p8(monkeypatch) -> None:
    # r(P_8) = 11: 3,326,400 copies of 7 edges fit the budget; nothing is listed here
    def admitted(pattern, n):
        raise _Admitted

    monkeypatch.setattr(search, "_copy_edges", admitted)
    with pytest.raises(_Admitted):
        _CopyEngine(parse_pattern("P_8"), 11)


@pytest.mark.parametrize(
    "text,n,estimate",
    [
        pytest.param("P_8", 12, "9,979,200 copies of P_8 in K_12 (69,854,400 copy-edge cells",
                     id="P_8-12"),
        # no copy-edge cell at all, but a histogram cell per edge of K_n
        pytest.param("P_1", 10_000, "(0 copy-edge cells and 49,995,000 histogram cells)",
                     id="P_1-10000"),
    ],
)
def test_engine_refuses_a_host_past_the_cell_budget_quickly(
    text: str, n: int, estimate: str
) -> None:
    started = time.perf_counter()
    with pytest.raises(CapabilityError) as refused:
        anneal_min(parse_pattern(text), n, SearchConfig(seed=1))
    assert time.perf_counter() - started < 1
    assert estimate in str(refused.value)
    assert f"budget {search.ENGINE_CELL_BUDGET:,} cells" in str(refused.value)


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
    # at cooling rate 0.5 the temperature reaches 0.0 after 1,076 steps, and
    # from there no uphill move is taken
    cold = SearchConfig(seed=0, restarts=2, steps_per_restart=1500, cooling_rate=0.5)
    assert anneal_min(pattern, 6, cold).best_count >= floor


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


# every path and cycle with r(H) <= 7; C_5 and P_7, at 9, have tests below
@pytest.mark.parametrize("label", ["P_2", "P_3", "P_4", "P_5", "C_3", "C_4"])
def test_ramsey_search_agrees_with_path_formula(label: str) -> None:
    pattern = parse_pattern(label)
    closed = (r_path if pattern.kind == "path" else r_cycle)(pattern.k)
    res = ramsey_via_search(pattern, 7)
    assert res.value == closed.value
    assert (res.provenance, closed.provenance) == ("search", "formula")
    for answer in (res, closed):
        assert isinstance(answer, RamseyValue)
        assert answer.pattern == pattern and answer.lower == answer.value


def test_ramsey_search_reports_lower_bound_when_capped() -> None:
    res = ramsey_via_search(parse_pattern("P_4"), 4)
    assert res.value is None
    assert res.lower == 5


# the n = 9 sweeps take seconds, so the tests below share each one
_sweep = lru_cache(maxsize=None)(exhaustive_min)


def test_ramsey_search_certifies_past_the_exhaustive_range(monkeypatch) -> None:
    # r(C_7) = 13: the exhaustive minimum at 9 and the split (6, 6) at 12 are
    # zero, and no split of 13 is, so only lower = 13 is certified
    monkeypatch.setattr(search, "exhaustive_min", _sweep)
    pattern = parse_pattern("C_7")
    assert _sweep(pattern, 9).best_count == 0
    assert count_mono(split_coloring(6, 6), pattern) == 0
    assert all(count_mono(split_coloring(a, 13 - a), pattern) > 0 for a in range(14))
    res = ramsey_via_search(pattern, 13)
    assert (res.lower, res.value) == (r_cycle(7).value, None) == (13, None)

    calls = []
    anneal = search.anneal_min
    monkeypatch.setattr(search, "anneal_min", lambda p, n, c: calls.append(n) or anneal(p, n, c))
    res = ramsey_via_search(pattern, 13, SearchConfig(seed=0, restarts=1, steps_per_restart=200))
    assert (res.lower, res.value, calls) == (13, None, [13])


def test_ramsey_search_decides_r_c5_exhaustively(monkeypatch) -> None:
    monkeypatch.setattr(search, "exhaustive_min", _sweep)
    res = ramsey_via_search(parse_pattern("C_5"), 9)
    assert (res.lower, res.value) == (r_cycle(5).value, r_cycle(5).value) == (9, 9)


def test_one_sweep_decides_r_p7_and_its_multiplicity(monkeypatch) -> None:
    monkeypatch.setattr(search, "exhaustive_min", _sweep)
    value, res = search._locate(Pattern.path(7), 9, None)
    assert (value.lower, value.value) == (r_path(7).value, r_path(7).value) == (9, 9)
    assert (res.n, res.best_count, res.exact, res.method) == (9, 720, True, "exhaustive-canonical")
    assert count_mono(res.witness, Pattern.path(7)) == 720


# the annealed values were recorded on the four-field result type
# threshold_multiplicity returned before, when r(H) = 8 or 9 was past the
# exhaustive range; P_6/8 anneals to 310 above its exact 300
EXACT_THRESHOLDS = {"P_6": 300, "C_5": 12, "P_7": 720}


@pytest.mark.parametrize("label,n,annealed", [("P_6", 8, 310), ("C_5", 9, 12), ("P_7", 9, 720)])
def test_threshold_multiplicity_past_the_exhaustive_range(
    monkeypatch, label: str, n: int, annealed: int
) -> None:
    pattern, config, exact = parse_pattern(label), SearchConfig(seed=1), EXACT_THRESHOLDS[label]
    res = anneal_min(pattern, n, config)
    assert (res.pattern, res.n, res.best_count, res.exact, res.method) == (
        pattern, n, annealed, False, "anneal"
    )
    assert res.explored == config.restarts * config.steps_per_restart
    assert res.witness.n == n and count_mono(res.witness, pattern) == annealed

    monkeypatch.setattr(search, "exhaustive_min", _sweep)
    res = threshold_multiplicity(pattern, config)
    assert isinstance(res, MinimizationResult)
    assert (res.pattern, res.n, res.best_count, res.exact, res.method) == (
        pattern, n, exact, True, "exhaustive-canonical"
    )
    assert res.witness.n == n and count_mono(res.witness, pattern) == exact


# P_1 has no path formula (r_path needs k >= 2), so its r comes from search
@pytest.mark.parametrize("label,n,best", [("P_4", 5, 10), ("P_1", 1, 2)])
def test_threshold_multiplicity_is_the_exhaustive_result_in_range(
    label: str, n: int, best: int
) -> None:
    pattern = parse_pattern(label)
    res = threshold_multiplicity(pattern)
    assert res == exhaustive_min(pattern, n)
    assert (res.n, res.best_count, res.exact) == (n, best, True)
    assert res.method == "exhaustive-canonical"
    assert count_mono(res.witness, pattern) == best


def test_threshold_multiplicity_refusals() -> None:
    with pytest.raises(CapabilityError, match=r"r\(P_8\) = 11 > 9: supply a SearchConfig"):
        threshold_multiplicity(parse_pattern("P_8"))
    with pytest.raises(CapabilityError, match=r"cannot certify r\(S_5\)"):
        threshold_multiplicity(parse_pattern("S_5"))


def test_threshold_multiplicity_sweeps_each_n_once(monkeypatch) -> None:
    # the sweep that decides r(H) ends with the result at n = r(H), which is
    # the answer; no n is searched twice
    calls = []
    exhaustive = search.exhaustive_min
    monkeypatch.setattr(
        search, "exhaustive_min", lambda p, n: calls.append((p.label, n)) or exhaustive(p, n)
    )
    for label, r in (("K3", 6), ("S_3", 6), ("S_4", 7)):
        pattern = parse_pattern(label)
        calls.clear()
        res = threshold_multiplicity(pattern)
        assert calls == [(label, n) for n in range(pattern.vertex_count, r + 1)]
        assert res == exhaustive(pattern, r) and res.n == r
