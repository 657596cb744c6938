import hashlib
import random
import time
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
    InvalidSpecError,
    SimpleGraph,
    canonical_key,
    split_coloring,
)
from ramseykit.coloring import _apply_perm, _bits_from_adj, _least_labeling, job_seed

from .oracles import brute_canonical


def colorings(max_n: int = 9) -> st.SearchStrategy[EdgeColoring]:
    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            EdgeColoring, st.just(n), st.integers(0, max(0, 2 ** (n * (n - 1) // 2) - 1))
        )
    )


@given(colorings())
def test_serialize_parse_round_trip(c: EdgeColoring) -> None:
    assert EdgeColoring.parse(c.serialize()) == c


@given(colorings())
def test_edge_counts_partition_complete_graph(c: EdgeColoring) -> None:
    assert c.red_edge_count + c.blue_edge_count == c.n * (c.n - 1) // 2


@given(colorings(40), st.integers(0, 40), st.randoms(use_true_random=False))
def test_edge_layout_round_trips_through_adjacency_rows(
    c: EdgeColoring, m: int, rng: random.Random
) -> None:
    n = c.n
    red, blue = c.adj_masks(RED), c.adj_masks(BLUE)
    assert not any((red[v] | blue[v]) >> v & 1 for v in range(n))
    for i, j in combinations(range(n), 2):
        assert bool(red[i] >> j & 1) == bool(red[j] >> i & 1) == c.is_red(i, j)
        assert bool(blue[i] >> j & 1) == bool(blue[j] >> i & 1) != c.is_red(i, j)
    assert _bits_from_adj(red, n) == c.red_bits
    # an m-vertex adjacency embedded in K_n sets exactly its own pairs
    m = min(m, n)
    own = {e for e in combinations(range(m), 2) if rng.random() < 0.5}
    embedded = EdgeColoring(n, _bits_from_adj(SimpleGraph.from_edges(m, own).adj, n))
    assert {e for e in combinations(range(n), 2) if embedded.is_red(*e)} == own


@given(colorings(7))
def test_complement_swaps_colors(c: EdgeColoring) -> None:
    comp = c.complemented()
    assert comp.red_edge_count == c.blue_edge_count
    assert comp.complemented() == c
    for i, j in combinations(range(c.n), 2):
        assert comp.is_red(i, j) != c.is_red(i, j)


@given(colorings(7), st.randoms(use_true_random=False))
def test_relabeling_preserves_canonical_key(c: EdgeColoring, rng: random.Random) -> None:
    perm = list(range(c.n))
    rng.shuffle(perm)
    relab = c.relabeled(perm)
    assert relab.red_edge_count == c.red_edge_count
    assert canonical_key(relab) == canonical_key(c)


@given(colorings(6))
def test_is_canonical_agrees_with_the_brute_form(c: EdgeColoring) -> None:
    adj = c.adj_masks(RED)
    form = brute_canonical(adj, c.n)
    assert (_least_labeling(adj, c.n, own=True) is not None) == (form == adj)
    assert all(_apply_perm(form, g) == form for g in _least_labeling(form, c.n, own=True))
    assert _apply_perm(adj, _least_labeling(adj, c.n)) == form


def test_twin_swaps_keep_canonical_searches_small() -> None:
    # every labeling of these graphs ties, and 9! = 362,880 of them would
    # take seconds; skipping twins leaves one branch per depth
    n = 9
    full = (1 << n) - 1
    graphs = [
        (0,) * n,
        tuple(full ^ (1 << v) for v in range(n)),
        tuple(full ^ 0b1111 if v < 4 else 0b1111 for v in range(n)),  # K_{4,5}
    ]
    start = time.perf_counter()
    for adj in graphs:
        form = _apply_perm(adj, _least_labeling(adj, n))
        assert all(_apply_perm(form, g) == form for g in _least_labeling(form, n, own=True))
    assert time.perf_counter() - start < 1.0


def _red_graph(n: int, joined) -> EdgeColoring:
    return EdgeColoring.from_red_edges(n, [e for e in combinations(range(n), 2) if joined(*e)])


# K_3 box K_4 (cell v = (v // 4, v % 4)), C_12, the Petersen graph (outer
# 5-cycle 0..4, spokes v-v+5, inner pentagram) and 3K_4, as red graphs
ROOK = _red_graph(12, lambda a, b: a // 4 == b // 4 or a % 4 == b % 4)
C12 = _red_graph(12, lambda a, b: (b - a) % 12 in (1, 11))
PETERSEN = _red_graph(
    10,
    lambda a, b: (b < 5 and (b - a) % 5 in (1, 4))
    or b == a + 5
    or (a >= 5 and (b - a) % 5 in (2, 3)),
)
THREE_K4 = _red_graph(12, lambda a, b: a // 4 == b // 4)

# sha256 over the keys, with and without swap_colors, of 20 random colorings
# for each n = 8..12 and the four symmetric graphs above, recorded while the
# key came from a separate branch-and-bound with a degree-refinement hint
KEY_PANEL_SHA256 = "699ca7876fe2426193d64bf6238c4423f784668d2b156cd8bf99405816c33e9d"


def test_canonical_keys_are_pinned() -> None:
    panel = [
        EdgeColoring.random(n, random.Random(f"key:{n}:{i}"))
        for n in range(8, 13)
        for i in range(20)
    ] + [ROOK, C12, PETERSEN, THREE_K4]
    digest = hashlib.sha256()
    for c in panel:
        for swap in (False, True):
            digest.update(canonical_key(c, swap_colors=swap))
    assert digest.hexdigest() == KEY_PANEL_SHA256


def test_canonical_key_is_fast_on_symmetric_graphs() -> None:
    # many labelings tie on these rows; comparing every candidate at a node
    # before descending keeps each search to tens of ms, not seconds
    start = time.perf_counter()
    canonical_key(ROOK)
    canonical_key(C12)
    assert time.perf_counter() - start < 1.0


def _shuffled(adj: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return _apply_perm(adj, perm)


def _multipartite(parts: tuple[int, ...], clique_parts: bool = False) -> tuple[int, ...]:
    # complete multipartite on the given part sizes; with clique_parts every
    # part is a clique as well, so its vertices are adjacent twins
    side = [p for p, size in enumerate(parts) for _ in range(size)]
    n = len(side)
    return tuple(
        sum(1 << w for w in range(n) if w != v and (side[w] != side[v] or clique_parts))
        for v in range(n)
    )


def _labeling_panel() -> list[tuple[int, ...]]:
    graphs = [
        EdgeColoring.random(n, random.Random(f"label:{n}:{i}")).adj_masks(RED)
        for n in range(12)
        for i in range(8)
    ]
    for n in range(5, 13):
        for jumps in ((1,), (1, 2), (1, n // 2), (2, 3)):
            circ = tuple(
                sum(1 << w for w in range(n) if (w - v) % n in jumps or (v - w) % n in jumps)
                for v in range(n)
            )
            graphs.append(_shuffled(circ, random.Random(f"circ:{n}:{jumps}")))
    for parts in ((2, 3), (1, 2, 3), (3, 3, 3), (2, 2, 2, 2), (4, 5), (1, 1, 4, 4)):
        for clique_parts in (False, True):
            graphs.append(_shuffled(_multipartite(parts, clique_parts), random.Random(str(parts))))
    # path P_4 and cycle C_5 blown up: each vertex a set of three twins
    for base in (((1,), (0, 2), (1, 3), (2,)), tuple(((v - 1) % 5, (v + 1) % 5) for v in range(5))):
        n = 3 * len(base)
        blown = tuple(sum(7 << 3 * u for u in base[v // 3]) for v in range(n))
        graphs.append(_shuffled(blown, random.Random(f"blow:{n}")))
    forms = [_apply_perm(adj, _least_labeling(adj, len(adj))) for adj in graphs]
    return graphs + forms


# sha256 over the perm and the own-mode result (generator list or None) of
# _least_labeling on every graph of _labeling_panel, recorded while each
# node rebuilt one row per vertex; a faster descent must walk the same tree,
# not only reach the same keys
LABELING_PANEL_SHA256 = "017e9d0d5d5111f80636ee369540bcd9fe31eb0beb10c8adc9ae332633f08906"


def test_labelings_are_pinned() -> None:
    digest = hashlib.sha256()
    for adj in _labeling_panel():
        n = len(adj)
        digest.update(repr((_least_labeling(adj, n), _least_labeling(adj, n, own=True))).encode())
    assert digest.hexdigest() == LABELING_PANEL_SHA256
    # seven vertices is past the hypothesis test's reach of the brute oracle
    for i in range(6):
        adj = EdgeColoring.random(7, random.Random(f"brute:{i}")).adj_masks(RED)
        assert _apply_perm(adj, _least_labeling(adj, 7)) == brute_canonical(adj, 7)
    for adj in (_multipartite((2, 2, 3)), _multipartite((1, 2, 4), True)):
        assert _apply_perm(adj, _least_labeling(adj, 7)) == brute_canonical(adj, 7)


@given(colorings(7))
def test_color_swap_key_matches_complement(c: EdgeColoring) -> None:
    assert canonical_key(c, swap_colors=True) == canonical_key(
        c.complemented(), swap_colors=True
    )


@given(colorings(7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=4))
def test_flip_twice_is_identity(c: EdgeColoring, pairs: list[tuple[int, int]]) -> None:
    seen: set[frozenset[int]] = set()
    deduped = []
    for i, j in pairs:
        key = frozenset((i, j))
        if i != j and i < c.n and j < c.n and key not in seen:
            seen.add(key)
            deduped.append((i, j))
    twice = c.with_flipped(deduped).with_flipped(deduped)
    assert twice == c and hash(twice) == hash(c)
    assert len({twice, c}) == 1  # equal colorings collapse to one set element


def test_flip_changes_single_edge_color() -> None:
    c = split_coloring(4, 3)
    flipped = c.with_flipped([(0, 1)])
    assert c.color_of(0, 1) != flipped.color_of(0, 1)
    for i, j in combinations(range(7), 2):
        if {i, j} != {0, 1}:
            assert c.color_of(i, j) == flipped.color_of(i, j)


def test_split_coloring_structure() -> None:
    c = split_coloring(4, 2)
    for i, j in combinations(range(6), 2):
        in_a = i < 4 and j < 4
        in_b = i >= 4 and j >= 4
        expected = BLUE if in_a or in_b else RED
        assert c.color_of(i, j) == expected


def test_views_partition_edges() -> None:
    c = EdgeColoring.random(8, random.Random(11))
    red, blue = c.view(RED), c.view(BLUE)
    assert red.edge_count + blue.edge_count == 28
    assert repr(c) == f"EdgeColoring(n=8, red={red.edge_count}, blue={blue.edge_count})"
    assert red.edge_count == c.red_edge_count
    for u in range(8):
        assert red.adj[u] & blue.adj[u] == 0
        assert red.adj[u] | blue.adj[u] == (255 ^ (1 << u))
        assert red.degree(u) == bin(red.adj[u]).count("1")


@given(st.integers(0, 12), st.integers(0, 2**66), st.booleans())
@settings(max_examples=60, deadline=None)
def test_view_is_the_graph_of_its_color(n: int, bits: int, blue_first: bool) -> None:
    c = EdgeColoring(n, bits % (1 << (n * (n - 1) // 2)))
    # blue rows complement the cached red rows, so try both fill orders
    for color in (BLUE, RED) if blue_first else (RED, BLUE):
        edges = [e for e in combinations(range(n), 2) if c.color_of(*e) == color]
        assert c.view(color) == SimpleGraph.from_edges(n, edges)


def test_view_does_not_share_the_cached_masks() -> None:
    c = split_coloring(3, 2)
    c.view(RED).adj[0] = 0
    assert c.view(RED).adj[0] == 0b11000


def test_random_is_deterministic_per_seed() -> None:
    a = EdgeColoring.random(9, random.Random(3))
    b = EdgeColoring.random(9, random.Random(3))
    other = EdgeColoring.random(9, random.Random(4))
    assert a == b
    assert a != other


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"RMC2 3\n7\n",
        b"RMC1 -1\n0\n",
        b"RMC1 3\nzz\n",
        b"RMC1 3\n",
        b"RMC1 3\n7\nextra\n",
        b"RMC1 two\n0\n",
        b"RMC1 03\n80\n",
        b"RMC1 00\n\n",
        b"RMC1 3\n7\n",
        b"RMC1 5\n0f0\n",
        b"RMC1 4\nA0\n",
    ],
)
def test_parse_rejects_malformed_payloads(payload: bytes) -> None:
    with pytest.raises(DomainError):
        EdgeColoring.parse(payload)


def test_parse_rejects_out_of_range_bits() -> None:
    with pytest.raises(DomainError):
        EdgeColoring.parse(b"RMC1 3\nff\n")


@pytest.mark.parametrize("bad", [-1, -5])
def test_negative_vertex_count_rejected(bad: int) -> None:
    with pytest.raises(DomainError):
        EdgeColoring(bad)


def test_red_bits_must_fit_edge_count() -> None:
    with pytest.raises(DomainError):
        EdgeColoring(3, red_bits=1 << 3)


def test_split_rejects_negative_sides() -> None:
    with pytest.raises(InvalidSpecError):
        split_coloring(-1, 2)


def test_flip_rejects_loops_and_foreign_vertices() -> None:
    c = split_coloring(3, 1)
    with pytest.raises(InvalidSpecError):
        c.with_flipped([(0, 0)])
    with pytest.raises(InvalidSpecError):
        c.with_flipped([(0, 9)])



@pytest.mark.parametrize(
    "flips, message",
    [
        ([(0, 1, 2)], r"flip \(0, 1, 2\) is not a pair"),
        ([(0, 0)], r"flip \(0,0\) is not an edge of K_4"),
        ([(1, 4)], r"flip \(1,4\) is not an edge of K_4"),
        ([(0, 1), (1, 0)], r"duplicate flip \(1,0\)"),
    ],
)
def test_split_flip_errors_keep_their_messages(flips, message) -> None:
    with pytest.raises(InvalidSpecError, match=message):
        split_coloring(3, 1, flips=flips)

@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: split_coloring(2, 1).adj_masks("green"), DomainError, "unknown color 'green'"),
        (lambda: split_coloring(2, 1).relabeled([0, 0, 1]), DomainError, "permutation"),
        (lambda: canonical_key(EdgeColoring(13)), CapabilityError, r"n <= 12 \(got 13\)"),
    ],
    ids=["adj_masks-color", "relabeled-perm", "canonical_key-n"],
)
def test_guards_refuse_bad_arguments(call, error, message) -> None:
    with pytest.raises(error, match=message):
        call()


def test_job_seeds_are_pinned() -> None:
    # anneal restart i of seed 7, and the red sample of parts 1, 2 at seed 0
    assert job_seed(7, 3) == 12296769318780836496
    assert job_seed(0, 1, 2, "red") == 10834123606138540087
