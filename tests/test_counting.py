import hashlib
import inspect
import random
import sys
from functools import cache
from itertools import combinations, permutations
from math import factorial, perm

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
from ramseykit import counting
from ramseykit.coloring import pair_index
from ramseykit.counting import (
    DENSE_LOADED_MIN_STATES,
    DENSE_MAX_VERTICES,
    DENSE_MIN_STATES,
    DP_STATE_BUDGET,
    _dense_walks,
    _dict_walks,
    _layer_states,
    copy_edge_masks,
    count_walks,
)
from ramseykit.regularity import _alternating_falling, _pair
from ramseykit.structure import SimpleGraph, _bits

from .oracles import brute_cycles, brute_paths, brute_stars, brute_triangles, brute_walks


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
    for k in range(2, 6):
        assert Pattern.clique(k) == parse_pattern(f"K{k}")


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


COPY_COUNT_LABELS = (
    [f"P_{k}" for k in range(1, 13)] + [f"C_{k}" for k in range(3, 13)]
    + [f"S_{k}" for k in range(1, 11)] + [f"K{k}" for k in range(2, 6)]
)


def test_complete_graph_copy_counts_are_pinned() -> None:
    # sha256 of repr over 36 patterns x n = 0..40, recorded on the per-kind
    # closed forms before they became one automorphism count
    out = [total_copies_in_complete(n, parse_pattern(label))
           for label in COPY_COUNT_LABELS for n in range(41)]
    assert len(out) == 1476
    assert (hashlib.sha256(repr(out).encode()).hexdigest()
            == "1bc621c5a3041cbae1a333437ee294715340b7118c263951f6939d3dfd5be843")


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


_PATH3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Pattern("clique", 6), r"2 <= k <= 5"),
        (lambda: Pattern("wheel", 4), "unknown pattern kind 'wheel'"),
        (lambda: count_paths(_PATH3, 0), "k must be at least 1"),
        (lambda: count_cycles(_PATH3, 2), "cycles need k >= 3"),
        (lambda: count_stars(_PATH3, 0), "stars need k >= 1 leaves"),
        (lambda: count_cliques(_PATH3, 1), r"2 <= k <= 5"),
        (lambda: count_cliques(_PATH3, 6), r"2 <= k <= 5"),
        (lambda: formula_split_paths(-1, 2, 3), "must be nonnegative"),
        (lambda: formula_split_paths(2, 2, -1), "must be nonnegative"),
        (lambda: total_copies_in_complete(-1, Pattern.path(3)), "n must be nonnegative"),
    ],
    ids=[
        "Pattern-K6", "Pattern-kind", "count_paths-k", "count_cycles-k", "count_stars-k",
        "count_cliques-1", "count_cliques-6", "formula_split_paths-a", "formula_split_paths-k",
        "total_copies_in_complete-n",
    ],
)
def test_guards_refuse_bad_arguments(call, message: str) -> None:
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (2, 3), (5, 4)])
def test_split_path_formula_below_two_vertices(a: int, b: int) -> None:
    # P_0 has no copy, and each vertex is a P_1 in both views
    assert formula_split_paths(a, b, 0) == 0
    assert formula_split_paths(a, b, 1) == count_mono(split_coloring(a, b), Pattern.path(1))


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


def _walk_shapes(adj: list[int], n: int, rng: random.Random):
    """(starts, inner, end): the shapes `count_walks` is called with, and edge cases."""
    u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
    yield range(n), -1, -1  # count_paths
    for a in sorted({0, n // 2, n - 1}):
        yield (a,), -1 << (a + 1), adj[a]  # cycle anchor
    yield (u,), -1, -1  # rooted walk
    yield (u,), ~(1 << v), adj[v]  # endpoint walk
    yield (u,), 0, -1  # empty inner
    yield range(n), 0, -1
    yield [u, v, u, u], -1, -1  # repeated starts
    yield rng.sample(range(n), (n + 1) // 2), rng.getrandbits(n), rng.getrandbits(n)


def test_dense_and_dict_walk_kernels_agree_with_brute_walks() -> None:
    # every n <= 10, every shape, every length; brute force where it is cheap
    rng = random.Random(2016)
    for n in range(1, 11):
        for color in (RED, BLUE):
            view = random_coloring(n, n).view(color)
            for starts, inner, end in _walk_shapes(view.adj, n, rng):
                want0 = brute_walks(view.has_edge, n, starts, 0)
                assert count_walks(view.adj, starts, 0, inner, end) == want0
                for edges in range(1, n + 1):
                    got = _dense_walks(view.adj, starts, edges, inner, end)
                    assert got == _dict_walks(view.adj, starts, edges, inner, end)
                    if color == RED and perm(n, edges + 1) <= 20_000:
                        want = brute_walks(view.has_edge, n, starts, edges, inner=inner, last=end)
                        assert got == want, (n, list(starts), edges, inner, end)
    # a Hamiltonian walk of K_20 from every start listed four times: each of
    # the 20! vertex orders once, as from the distinct starts
    k20 = [((1 << 20) - 1) ^ (1 << v) for v in range(20)]
    assert count_walks(k20, list(range(20)) * 4, 19) == factorial(20)


@pytest.mark.parametrize("n", range(12, 19))
def test_dense_walks_match_dict_walks_on_random_and_split_hosts(n: int) -> None:
    # the path and cycle-anchor walks of P_k and C_k, k about n/2, and k = n
    # up to 14, on a balanced random coloring and a split coloring
    rng = random.Random(n)
    pairs = n * (n - 1) // 2
    balanced = EdgeColoring(n, sum(1 << e for e in rng.sample(range(pairs), pairs // 2)))
    split = split_coloring(n - n // 3, n // 3)
    for coloring, color in ((balanced, rng.choice((RED, BLUE))), (split, RED), (split, BLUE)):
        adj = coloring.view(color).adj
        for k in {n // 2, n} if n <= 14 else {n // 2}:
            calls = [(range(n), -1, -1)]
            calls += [((a,), -1 << (a + 1), adj[a]) for a in range(n - k + 1)]
            for starts, inner, end in calls:
                assert _dense_walks(adj, starts, k - 1, inner, end) == _dict_walks(
                    adj, starts, k - 1, inner, end
                )


def _dense_number_types(monkeypatch) -> list[str]:
    """The number types of the dense layers built from here on, by name."""
    import numpy

    seen, zeros = [], numpy.zeros

    def spy(shape, dtype=float, *args, **kwargs):
        if numpy.dtype(dtype).kind != "u":  # not the subset tables
            seen.append(numpy.dtype(dtype).name)
        return zeros(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(numpy, "zeros", spy)
    return seen


@pytest.mark.parametrize("m", [19, 20])
def test_dense_kernel_counts_hamiltonian_paths_and_cycles_of_complete_graphs(
    monkeypatch, m: int
) -> None:
    # The all-start walks bound their sums by m! >= 2**53, so they run on
    # int64 layers.  A cycle's anchor walk has m - 1 seeds over m - 1
    # vertices and bound (m - 1)!: 19! takes int64 too, while 18! lies
    # just below 2**53, so K_19's cycles are float64 with entries near it.
    assert factorial(18) < 2**53 <= factorial(19)
    k = EdgeColoring(m, 0).view(BLUE)
    types = _dense_number_types(monkeypatch)
    assert count_paths(k, m) == factorial(m) // 2
    assert set(types) == {"int64"}
    types.clear()
    assert count_cycles(k, m) == factorial(m - 1) // 2
    assert set(types) == {"float64" if m == 19 else "int64"}


@pytest.mark.parametrize("seed", [1, 3])
def test_dense_walks_match_dict_walks_with_float64_bound_just_below_2_53(
    monkeypatch, seed: int
) -> None:
    # all-start walks of 14 steps on 19 vertices bound every sum by
    # 19 * perm(18, 14), in [2**52, 2**53): the last float64 layers
    n, edges = 19, 14
    assert 2**52 <= n * perm(n - 1, edges) < 2**53
    rng = random.Random(seed)
    pairs = n * (n - 1) // 2
    adj = EdgeColoring(n, sum(1 << e for e in rng.sample(range(pairs), pairs // 4))).view(RED).adj
    types = _dense_number_types(monkeypatch)
    assert _dense_walks(adj, range(n), edges, -1, -1) == _dict_walks(adj, range(n), edges, -1, -1)
    assert set(types) == {"float64"}


@cache
def _closing_marks() -> dict[int, str]:
    """The line opening each of `_dict_walks`'s two closing forms."""
    lines, first = inspect.getsourcelines(_dict_walks)
    marks = {
        first + i: form
        for i, text in enumerate(lines)
        for form, mark in (("direct", "ways = 0"), ("degrees", "ways = two.get(x)"))
        if text.strip() == mark
    }
    assert sorted(marks.values()) == ["degrees", "direct"]
    return marks


def _closing_forms(adj, starts, edges: int, inner: int = -1, end: int = -1) -> tuple[int, set[str]]:
    """`_dict_walks`'s count, and the forms its states closed in, read from
    the lines it ran: "direct" (a popcount per middle vertex) or "degrees"."""
    code, marks, seen = _dict_walks.__code__, _closing_marks(), set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno in marks:
            seen.add(marks[frame.f_lineno])
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        got = _dict_walks(adj, starts, edges, inner, end)
    finally:
        sys.settrace(old)
    return got, seen


def test_dict_walks_close_the_last_two_steps_in_both_forms() -> None:
    # every state of K_{8,8} rooted in V at l = 5 ends in U with two V
    # vertices used, so six remain to step to, more than the 5 edges: the
    # degree form, exact at the pair's alternating falling product
    k88 = SimpleGraph.from_edges(16, ((u, v) for u in range(8) for v in range(8, 16)))
    umask, vmask, cross = _pair(k88, range(8), range(8, 16))
    assert _closing_forms(cross, (8,), 5, umask | vmask) == (
        _alternating_falling(8, 5), {"degrees"})
    assert _alternating_falling(8, 5) == 14_112
    # P_12 on a 12-vertex host leaves at most two vertices after 9 steps, so
    # every state closes directly; on K_12 each of the 12! vertex orders is
    # a walk
    k12 = [((1 << 12) - 1) ^ (1 << v) for v in range(12)]
    assert _closing_forms(k12, range(12), 11) == (factorial(12), {"direct"})


def _pair_hosts(rng: random.Random):
    """(cross rows, U mask, V mask) of random bipartite pairs read by `_pair`:
    pairs that are their whole host, and pairs inside a larger host, which
    leaves the rows of the other vertices empty."""
    for nu, nv, extra in ((3, 3, 0), (4, 5, 0), (3, 4, 4), (6, 6, 0), (5, 7, 6), (8, 8, 0)):
        for p in (0.5, 0.85, 1.0):
            n = nu + nv + extra
            verts = rng.sample(range(n), nu + nv)
            us, vs = verts[:nu], verts[nu:]
            edges = [(u, v) for u in us for v in vs if rng.random() < p]
            if extra:  # edges among the other vertices and into the pair
                edges += [(a, b) for a, b in combinations(range(n), 2)
                          if (a not in verts or b not in verts) and rng.random() < 0.5]
            umask, vmask, cross = _pair(SimpleGraph.from_edges(n, edges), us, vs)
            if extra:
                assert not any(cross[w] for w in range(n) if not (umask | vmask) >> w & 1)
            yield cross, umask, vmask


def test_dict_walks_match_dense_and_brute_walks_on_bound_checker_shapes() -> None:
    # the rooted, endpoint and per-V-start walks of the bound checkers on
    # `_pair` cross rows, at 1 to 7 edges
    rng = random.Random(29)
    forms = set()
    for cross, umask, vmask in _pair_hosts(rng):
        n, both = len(cross), umask | vmask
        u, v = rng.choice(list(_bits(umask))), rng.choice(list(_bits(vmask)))
        shapes = [((v,), both, -1), ((u,), both & ~(1 << v), cross[v])]
        shapes += [((w,), both, -1) for w in _bits(vmask)]
        for edges in range(1, 8):
            for i, (starts, inner, end) in enumerate(shapes):
                if i < 2:  # the rooted and endpoint walks, traced
                    got, seen = _closing_forms(cross, starts, edges, inner, end)
                    forms |= seen
                else:
                    got = _dict_walks(cross, starts, edges, inner, end)
                assert got == _dense_walks(cross, starts, edges, inner, end)
                if perm(n, edges + 1) <= 20_000:
                    want = brute_walks(lambda a, b: cross[a] >> b & 1, n, starts, edges,
                                       inner=inner, last=end)
                    assert got == want, (n, starts, edges, inner, end)
    assert forms == {"direct", "degrees"}


def test_count_walks_refuses_negative_edges_before_estimating(monkeypatch) -> None:
    def estimate(*args):
        raise AssertionError("estimated a walk of negative length")

    monkeypatch.setattr(counting, "_layer_states", estimate)
    k4 = [0b1111 ^ (1 << v) for v in range(4)]
    for edges in (-1, -5):
        with pytest.raises(DomainError, match="edges"):
            count_walks(k4, range(4), edges)


def test_count_walks_runs_dense_only_on_large_walks_over_few_vertices(monkeypatch) -> None:
    import numpy

    calls = []
    monkeypatch.setattr(counting, "_dense_walks", lambda *a: calls.append("dense") or 0)
    monkeypatch.setattr(counting, "_dict_walks", lambda *a: calls.append("dict") or 0)
    # the gate reads whether numpy is loaded; start from a process without it
    monkeypatch.delitem(sys.modules, "numpy")

    def complete(n: int) -> list[int]:
        return [((1 << n) - 1) ^ (1 << v) for v in range(n)]

    k12, k16, k20, k21, k27 = map(complete, (12, 16, 20, 21, 27))
    assert sum(_layer_states(k20, 20, 4, -1)) >= DENSE_MIN_STATES
    assert sum(_layer_states(k20, 20, 2, -1)) < DENSE_MIN_STATES
    assert DENSE_MAX_VERTICES == 20
    count_walks(k20, range(20), 4)  # large walk on 20 vertices
    count_walks(k20, range(20), 2)  # small walk
    count_walks(k21, range(21), 4)  # large walk on 21 vertices
    count_walks(k21, range(20), 4, inner=(1 << 20) - 1)  # 20 of its 21 vertices
    count_walks(k21, (20,), 5, inner=(1 << 20) - 1)  # the start makes 21
    # repeated starts count once, so 80 listed starts bound no more walks
    # than 20 distinct ones: 20! < 2**63 <= 80 * perm(19, 19)
    count_walks(k20, list(range(20)) * 4, 19)
    assert calls == ["dense", "dict", "dict", "dense", "dict", "dense"]

    # The gate reads the states of all layers, so long walks whose every
    # layer is small run dense: P_12 on 12 vertices (largest layer 5,544)
    # and the anchor-0 walk of C_12 there.  One start taking 5 steps on 16
    # vertices, the largest walk of `verify --suite bounds` under the vertex
    # cap, stays on the dict kernel while numpy is not loaded.
    shapes = [
        ((k12, range(12), 11), {}, 5_544, 24_564),
        ((k12, (0,), 11), {"inner": -1 << 1, "end": k12[0]}, 2_772, 11_254),
        ((k16, (0,), 5), {}, 7_280, 9_217),
    ]
    calls.clear()
    for (adj, starts, edges), kw, largest, total in shapes:
        layers = _layer_states(adj, len(starts), edges, kw.get("inner", -1))
        assert (max(layers), sum(layers)) == (largest, total)
        count_walks(adj, starts, edges, **kw)
    assert calls == ["dense", "dense", "dict"]

    # Once numpy is loaded, its import is paid, and walks from
    # DENSE_LOADED_MIN_STATES run dense: the bounds-suite walk, and the
    # all-start P_8 walk on a random 11-vertex color class (9,328 states,
    # the threshold host of P_8), but not a walk below the crossover.
    monkeypatch.setitem(sys.modules, "numpy", numpy)
    host = random_coloring(11, 11).view(RED).adj
    assert sum(_layer_states(host, 11, 7, -1)) == 9_328
    assert sum(_layer_states(k20, 20, 2, -1)) < DENSE_LOADED_MIN_STATES <= 2_000
    calls.clear()
    count_walks(k16, (0,), 5)
    count_walks(host, range(11), 7)
    count_walks(k20, range(20), 2)
    assert calls == ["dense", "dense", "dict"]

    # The budget reads the largest layer alone: P_7 on 27 vertices sums past
    # it over its layers but holds at most 1,776,060 states in one.
    layers = _layer_states(k27, 27, 6, -1)
    assert max(layers) <= DP_STATE_BUDGET < sum(layers)
    calls.clear()
    count_walks(k27, range(27), 6)
    assert calls == ["dict"]
