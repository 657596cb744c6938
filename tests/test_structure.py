import hashlib
import random
from itertools import combinations
from math import comb

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

from .oracles import matching_number, max_disjoint_short_paths


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


def test_exact_paths_refuse_past_the_candidate_cap() -> None:
    # K_11 has 260,650 candidate 0-1 paths of length <= 8, past
    # BACKTRACK_MAX_PATHS = 200,000, so the exact packing refuses; without
    # the edge {0, 1} the greedy finds 9 < t paths and the pair stays unknown
    edges = list(combinations(range(11), 2))
    with pytest.raises(CapabilityError, match="more than 200000 candidate paths"):
        disjoint_short_paths(SimpleGraph.from_edges(11, edges), 0, 1, 8, method="exact")
    g = SimpleGraph.from_edges(11, [e for e in edges if e != (0, 1)])
    report = well_connected_check(g, [0, 1], 10, 8)
    assert (report.status, report.unknown_pairs) == ("unknown", [(0, 1)])
    assert report.failing_pair is None and report.certificates == {}


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


@pytest.mark.parametrize("witness", [[0], [], [0, 1]])
def test_well_connected_check_rejects_max_len_below_one(witness) -> None:
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError, match="max_len"):
        well_connected_check(g, witness, 1, 0)


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
