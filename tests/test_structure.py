import hashlib
import random
import time
from itertools import combinations
from math import comb
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (
    RED,
    CapabilityError,
    DisjointPathCert,
    DomainError,
    SimpleGraph,
    disjoint_short_paths,
    erdos_gallai_max_edges,
    konig_edge_bound_check,
    max_matching,
    split_coloring,
    verify_erdos_gallai,
    well_connected_check,
)
from ramseykit.structure import _exact_subsets

from .oracles import matching_number, max_disjoint_short_paths, menger_paths


def graphs(max_n: int = 8) -> st.SearchStrategy[SimpleGraph]:
    def build(n: int, bits: int) -> SimpleGraph:
        edges = [
            e for idx, e in enumerate(combinations(range(n), 2)) if bits >> idx & 1
        ]
        return SimpleGraph.from_edges(n, edges)

    return st.integers(0, max_n).flatmap(
        lambda n: st.builds(
            build, st.just(n), st.integers(0, max(0, 2 ** comb(n, 2) - 1))
        )
    )


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_matching_is_valid_and_maximum(g: SimpleGraph) -> None:
    m = max_matching(g)
    used: set[int] = set()
    for u, v in m:
        assert g.has_edge(u, v)
        assert u not in used and v not in used
        used.update((u, v))
    assert len(m) == matching_number(g.n, list(g.edges()))


def test_matching_handles_odd_cycles_and_blossoms() -> None:
    # Two triangles joined by a bridge force an augmenting path through
    # shrunken blossoms.
    g = SimpleGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    )
    assert len(max_matching(g)) == 3
    assert repr(g) == "SimpleGraph(n=6, edges=7)"


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_edge_count_never_exceeds_matching_bound(g: SimpleGraph) -> None:
    report = verify_erdos_gallai(g)
    assert report.ok
    assert report.edge_count == g.edge_count
    assert report.bound == erdos_gallai_max_edges(g.n, report.matching_number)
    assert report.edge_count <= report.bound


def test_matching_bound_is_tight_on_its_extremal_graphs() -> None:
    # A clique on 2k+1 vertices plus isolated vertices has matching number k
    # and meets the bound exactly.
    for k in (1, 2, 3):
        n = 2 * k + 3
        clique = list(combinations(range(2 * k + 1), 2))
        g = SimpleGraph.from_edges(n, clique)
        rep = verify_erdos_gallai(g)
        assert rep.matching_number == k
        assert rep.edge_count == erdos_gallai_max_edges(n, k) or rep.edge_count <= rep.bound
        assert rep.edge_count == comb(2 * k + 1, 2)
        assert erdos_gallai_max_edges(n, k) >= rep.edge_count


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16 - 1))
@settings(max_examples=80, deadline=None)
def test_bipartite_edge_bound_holds(a: int, b: int, bits: int) -> None:
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    edges = [e for idx, e in enumerate(pairs) if bits >> idx & 1]
    g = SimpleGraph.from_edges(a + b, edges)
    report = konig_edge_bound_check(g, (list(range(a)), list(range(a, a + b))))
    assert report.ok
    assert report.edge_count <= report.bound


def test_bipartite_check_rejects_edges_inside_a_part() -> None:
    g = SimpleGraph.from_edges(4, [(0, 1)])
    with pytest.raises(DomainError):
        konig_edge_bound_check(g, ([0, 1], [2, 3]))


@given(st.integers(2, 9), st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_disjoint_path_certificates_validate_and_exact_is_optimal(
    n: int, seed: int, max_len: int
) -> None:
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
    g = SimpleGraph.from_edges(n, edges)
    u, v = rng.sample(range(n), 2)
    adj = [list(g.neighbors(w)) for w in range(n)]
    want = max_disjoint_short_paths(adj, u, v, max_len)

    exact = disjoint_short_paths(g, u, v, max_len, method="exact")
    exact.validate(g)
    assert len(exact.paths) == want

    greedy = disjoint_short_paths(g, u, v, max_len, method="greedy")
    greedy.validate(g)
    assert len(greedy.paths) <= want


def seeded_graph(label: str, n: int, p: float) -> tuple[SimpleGraph, int, int]:
    """G(n, p) and a random pair of its vertices, seeded by the label."""
    rng = random.Random(f"{label}:{n}:{p}")
    g = SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
    u, v = rng.sample(range(n), 2)
    return g, u, v


@pytest.mark.parametrize("n", range(10, 15))
def test_exact_paths_of_any_length_match_the_max_flow(n: int) -> None:
    # at max_len n - 1 no simple path is cut short, so the exact family is
    # Menger's maximum: the candidate-listing oracle is out of reach here
    for p in (0.2, 0.35, 0.5, 0.7, 0.9):
        for i in range(3):
            g, u, v = seeded_graph(f"menger{i}", n, p)
            cert = disjoint_short_paths(g, u, v, n - 1, method="exact")
            cert.validate(g)
            assert cert.count == menger_paths([g.neighbors(w) for w in range(n)], u, v)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_exact_paths_past_length_four_match_the_packer_on_sparse_graphs(n: int) -> None:
    # at p <= 0.3 every pair has a few hundred candidate paths at most
    for p in (0.15, 0.2, 0.25, 0.3):
        for i in range(5):
            g, u, v = seeded_graph(f"sparse{i}", n, p)
            adj = [g.neighbors(w) for w in range(n)]
            for max_len in range(5, n - 1):
                cert = disjoint_short_paths(g, u, v, max_len, method="exact")
                cert.validate(g)
                assert cert.count == max_disjoint_short_paths(adj, u, v, max_len)


def complete_graph(n: int, missing: tuple[tuple[int, int], ...] = ()) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if e not in missing])


@pytest.mark.parametrize("n, max_len, want", [(10, 5, 9), (11, 8, 10), (14, 13, 13)])
def test_exact_paths_answer_on_complete_graphs(n: int, max_len: int, want: int) -> None:
    # a packer recursing once per candidate path overflowed the stack on
    # K_10's 2,081 candidates, and K_11 at length 8 has 260,650 candidates;
    # the subset tables hold 2^(n - 2) entries, so K_14 is the largest case
    g = complete_graph(n)
    start = time.perf_counter()
    cert = disjoint_short_paths(g, 0, 1, max_len, method="exact")
    assert time.perf_counter() - start < 1.0
    cert.validate(g)
    assert cert.count == want


def test_exact_paths_answer_on_a_random_pair_within_the_guard() -> None:
    rng = random.Random(1405)
    g = SimpleGraph.from_edges(14, [e for e in combinations(range(14), 2) if rng.random() < 0.5])
    start = time.perf_counter()
    cert = disjoint_short_paths(g, 0, 1, 5, method="exact")
    assert time.perf_counter() - start < 1.0
    cert.validate(g)
    assert cert.paths == ((0, 1), (0, 2, 1), (0, 5, 1), (0, 9, 1), (0, 10, 1))


@pytest.mark.parametrize("n, t, max_len", [(10, 9, 5), (11, 10, 8)])
def test_well_connected_check_refutes_complete_graphs_minus_the_pair(
    n: int, t: int, max_len: int
) -> None:
    # the greedy finds the n - 2 common neighbors, and the exact family is
    # no larger
    report = well_connected_check(complete_graph(n, ((0, 1),)), [0, 1], t, max_len)
    assert (report.status, report.failing_pair, report.failing_count) == ("refuted", (0, 1), n - 2)


def test_exact_paths_refuse_past_the_size_guard() -> None:
    # the greedy finds 13 < t paths in K_15 minus {0, 1}, and the exact
    # family is refused at n = 15 before any table is built
    with pytest.raises(CapabilityError, match="n <= 14"):
        disjoint_short_paths(complete_graph(15), 0, 1, 5, method="exact")
    report = well_connected_check(complete_graph(15, ((0, 1),)), [0, 1], 14, 5)
    assert (report.status, report.unknown_pairs) == ("unknown", [(0, 1)])
    assert report.failing_pair is None and report.certificates == {}


def exact_panel() -> Iterator[tuple[int, SimpleGraph, int, int, int]]:
    for i in range(400):
        rng = random.Random(f"exact:{i}")
        n = rng.randint(2, 12)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g = SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        u, v = rng.sample(range(n), 2)
        yield i, g, u, v, rng.randint(5, 7)


# sha256 of the exact families of exact_panel, recorded on the packer of
# enumerated candidate paths; it raised RecursionError on 45 inputs and ran
# past 3 s on five more, listed here, whose families are validated instead
EXACT_PATHS_SHA256 = "01304b7078382478e88930f8dac4feff9c5381e5ea44f9edb3b86296fd0dba2a"
EXACT_PANEL_UNANSWERED = frozenset({
    3, 8, 14, 29, 53, 57, 67, 69, 70, 76, 83, 85, 89, 92, 99, 100, 101, 107, 127, 129,
    145, 161, 171, 178, 187, 189, 193, 194, 195, 202, 231, 235, 243, 285, 298, 302, 314,
    322, 323, 326, 347, 351, 356, 358, 359, 370, 372, 376, 391, 394,
})


def test_exact_families_past_length_four_are_pinned() -> None:
    digest = hashlib.sha256()
    for i, g, u, v, max_len in exact_panel():
        cert = disjoint_short_paths(g, u, v, max_len, method="exact")
        if i in EXACT_PANEL_UNANSWERED:
            cert.validate(g)
            assert cert.count >= disjoint_short_paths(g, u, v, max_len).count
        else:
            digest.update(repr((i, cert.paths)).encode())
    assert digest.hexdigest() == EXACT_PATHS_SHA256


def test_subset_dp_agrees_with_the_matching_up_to_length_four() -> None:
    # two independent exact methods for the same maximum
    for i in range(300):
        rng = random.Random(f"le4:{i}")
        n = rng.randint(2, 12)
        g = SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        u, v = rng.sample(range(n), 2)
        for max_len in range(1, 5):
            cert = DisjointPathCert(u, v, max_len, tuple(_exact_subsets(g, u, v, max_len)), True)
            cert.validate(g)
            assert cert.count == disjoint_short_paths(g, u, v, max_len, method="exact").count


# sha256 of greedy families and well-connectedness reports on seeded random
# graphs, recorded while the breadth-first search still took the direct edge
GREEDY_PATHS_SHA256 = "a3232247476f78cc0dbfaeeeb2218da1a1ac69e785a7210749817f1e1a637235"
WELL_CONNECTED_SHA256 = "71a5916f01415f26fb59dd6b9270eb2f681c7877bb67e58781b01987c2aa3881"


def random_graph(rng: random.Random, n: int) -> SimpleGraph:
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    return SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def greedy_panel_digest() -> str:
    # t_target None, -1 and 0 through 3 and max_len 1 to 6 on each graph
    digest = hashlib.sha256()
    for i in range(100):
        rng = random.Random(f"greedy:{i}")
        g = random_graph(rng, rng.randint(2, 16))
        u, v = rng.sample(range(g.n), 2)
        for t_target in (None, -1, 0, 1, 2, 3):
            for max_len in range(1, 7):
                cert = disjoint_short_paths(g, u, v, max_len, t_target=t_target)
                digest.update(repr((t_target, max_len, cert.paths)).encode())
    return digest.hexdigest()


def well_connected_panel_digest() -> str:
    digest = hashlib.sha256()
    for i in range(60):
        rng = random.Random(f"well:{i}")
        g = random_graph(rng, rng.randint(2, 16))
        witness = rng.sample(range(g.n), rng.randint(1, g.n))
        for t in (1, 2, 3):
            for max_len in range(1, 7):
                r = well_connected_check(g, witness, t, max_len)
                certs = sorted((k, c.paths, c.exact) for k, c in r.certificates.items())
                record = (r.status, r.failing_pair, r.failing_count, r.unknown_pairs, certs)
                digest.update(repr(record).encode())
    return digest.hexdigest()


def test_greedy_path_families_are_pinned() -> None:
    assert greedy_panel_digest() == GREEDY_PATHS_SHA256


def test_well_connected_reports_are_pinned() -> None:
    assert well_connected_panel_digest() == WELL_CONNECTED_SHA256


def test_exact_paths_use_the_middle_layer_at_length_four() -> None:
    g = SimpleGraph.from_edges(
        8, [(0, 2), (0, 5), (1, 4), (1, 5), (1, 7), (2, 4), (5, 6), (6, 7)]
    )
    adj = [g.neighbors(w) for w in range(8)]
    exact = disjoint_short_paths(g, 0, 7, 4, method="exact")
    exact.validate(g)
    assert exact.count == max_disjoint_short_paths(adj, 0, 7, 4) == 2
    assert (0, 2, 4, 1, 7) in exact.paths
    assert disjoint_short_paths(g, 0, 7, 4, method="greedy").count == 1
    assert disjoint_short_paths(g, 0, 7, 3, method="exact").count < 2


def test_certificate_validation_rejects_tampering() -> None:
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    cert = disjoint_short_paths(g, 0, 3, 2, method="exact")
    broken = type(cert)(
        u=cert.u,
        v=cert.v,
        max_len=cert.max_len,
        paths=cert.paths + ((0, 1, 3),),
        exact=cert.exact,
    )
    with pytest.raises(DomainError):
        broken.validate(g)


def test_certificate_validation_rejects_missing_edges() -> None:
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 3)])
    cert = disjoint_short_paths(g, 0, 3, 2, method="exact")
    fake = type(cert)(u=0, v=3, max_len=2, paths=((0, 2, 3),), exact=False)
    with pytest.raises(DomainError):
        fake.validate(g)


@pytest.mark.parametrize("u, v, path", [(-1, 2, (-1, 2)), (3, 2, (3, -4, 2)), (0, 4, (0, 4))])
def test_certificate_validation_rejects_vertices_out_of_range(u, v, path) -> None:
    # on the path 0-1-2-3, adj[-1] would read vertex 3's row
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cert = DisjointPathCert(u, v, 4, (path,), True)
    with pytest.raises(DomainError, match="out of range"):
        cert.validate(g)


@pytest.mark.parametrize(
    "paths, message",
    [
        (((0, 1, 2),), "does not run from 0 to 3"),
        (((0, 1, 2, 1, 3),), "exceeds length bound 3"),
        (((0, 1, 2, 3), (0, 2, 2, 3)), "repeats a vertex"),
        # a path through an end repeats it, as both ends are fixed
        (((0, 3, 1, 3),), "repeats a vertex"),
        (((0, 3), (0, 3)), "listed twice"),
    ],
)
def test_certificate_validation_rejects_bad_paths(paths, message) -> None:
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (0, 2)])
    with pytest.raises(DomainError, match=message):
        DisjointPathCert(0, 3, 3, paths, True).validate(g)


@pytest.mark.parametrize("witness", [[0], [], [0, 1]])
def test_well_connected_check_rejects_max_len_below_one(witness) -> None:
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError, match="max_len"):
        well_connected_check(g, witness, 1, 0)


_PATH3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SimpleGraph(-1), "vertex count must be nonnegative"),
        (lambda: SimpleGraph(3, [0, 0]), "length must equal n"),
        (lambda: SimpleGraph.from_edges(3, [(1, 1)]), "self-loops"),
        (lambda: SimpleGraph.from_edges(3, [(0, 3)]), r"edge \(0,3\) out of range for n=3"),
        (lambda: erdos_gallai_max_edges(-1, 0), "n and k must be nonnegative"),
        (lambda: erdos_gallai_max_edges(3, -1), "n and k must be nonnegative"),
        (lambda: konig_edge_bound_check(_PATH3, ([0], [2])), "must partition the vertex set"),
        (lambda: disjoint_short_paths(_PATH3, 0, 0, 2), "distinct vertices of g"),
        (lambda: disjoint_short_paths(_PATH3, 0, 3, 2), "distinct vertices of g"),
        (lambda: disjoint_short_paths(_PATH3, 0, 2, 0), "max_len must be at least 1"),
        (lambda: disjoint_short_paths(_PATH3, 0, 2, 2, method="fast"), "unknown method 'fast'"),
        (lambda: well_connected_check(_PATH3, [0, 3], 1, 2), "witness_set must be vertices"),
        (lambda: well_connected_check(_PATH3, [0, 2], 0, 2), "t must be at least 1"),
    ],
    ids=[
        "graph-n", "graph-adj", "graph-loop", "graph-edge", "erdos_gallai-n", "erdos_gallai-k",
        "konig-parts", "paths-u-v", "paths-range", "paths-max_len", "paths-method",
        "well_connected-witness", "well_connected-t",
    ],
)
def test_guards_refuse_bad_arguments(call, message: str) -> None:
    with pytest.raises(DomainError, match=message):
        call()


def test_cross_pair_vertices_in_split_graph_are_well_connected() -> None:
    red = split_coloring(8, 8).view(RED)
    report = well_connected_check(red, list(range(16)), t=7, max_len=3)
    assert report.status == "certified"
    assert report.failing_pair is None
    for (u, v), cert in report.certificates.items():
        cert.validate(red)
        assert len(cert.paths) >= 7


def test_disconnected_cliques_are_refuted() -> None:
    edges = list(combinations(range(4), 2)) + [
        (a + 4, b + 4) for a, b in combinations(range(4), 2)
    ]
    g = SimpleGraph.from_edges(8, edges)
    report = well_connected_check(g, list(range(8)), t=1, max_len=3)
    assert report.status == "refuted"
    u, v = report.failing_pair
    assert (u < 4) != (v < 4)
    assert report.failing_count == 0


def test_ball_and_induced_subgraph() -> None:
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert g.ball(0, 1) == [0, 1]
    assert g.ball(0, 2) == [0, 1, 2]
    assert g.ball(0, 9) == [0, 1, 2, 3]
    sub, originals = g.induced([1, 2, 4])
    assert sub.n == 3
    assert sub.edge_count == 1
    assert originals == [1, 2, 4]
    assert sub.has_edge(0, 1) and not sub.has_edge(0, 2)
