import hashlib
from dataclasses import replace
from random import Random

import pytest

from ramseykit import DomainError, SimpleGraph, verify
from ramseykit.cli import main
from ramseykit.verify import SUITES, run_suite


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes(suite: str) -> None:
    results = run_suite(suite, seed=0)
    assert results
    failing = [r.name for r in results if not r.passed]
    assert failing == []


@pytest.mark.parametrize("suite", SUITES)
def test_suites_are_deterministic(suite: str) -> None:
    first = run_suite(suite, seed=42)
    second = run_suite(suite, seed=42)
    assert first == second


def test_check_names_are_unique_within_a_suite() -> None:
    for suite in SUITES:
        names = [r.name for r in run_suite(suite, seed=0)]
        assert len(set(names)) == len(names)


def test_unknown_suite_is_rejected() -> None:
    with pytest.raises(DomainError):
        run_suite("nope", seed=0)


# sha256 of repr(run_suite(name, seed)) for seeds 0-3, recorded before the
# regularity and structure layers stopped re-deriving densities, counterpart
# sizes and the direct edge; any drift in a check's detail fails here
SUITE_SHA256 = {
    "formulas": "1beda1892417d4139a625331935acdf554958f7b8c446bb2ea5fb108d2535e36",
    "structure": "6bd6732af4c7774ebcd75fde4899c41139a6d1798d8b98a32a073667dbfaf4e3",
    "bounds": "34020ef313c9bc5afdec28516765612c866eec931cb546e706264e198233c545",
    "stability": "016625e4851873a42da828a1ced4292dbeb944b9eb305c751ed1b1ee837a4516",
}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_outputs_are_pinned(suite: str) -> None:
    digest = hashlib.sha256()
    for seed in range(4):
        digest.update(repr(run_suite(suite, seed)).encode())
    assert digest.hexdigest() == SUITE_SHA256[suite]


# the branches where a check fails: each test breaks the one function a check
# relies on and calls that check alone, so the rest of its suite is untouched


def test_disjoint_paths_check_fails_on_an_invalid_certificate(monkeypatch) -> None:
    real, families = verify.disjoint_short_paths, []

    def with_a_broken_path(g, u, v, max_len, **kwargs):
        cert = real(g, u, v, max_len, **kwargs)
        families.append(replace(cert, paths=(*cert.paths, (u,))))  # a path that never reaches v
        return families[-1]

    monkeypatch.setattr(verify, "disjoint_short_paths", with_a_broken_path)
    [(name, passed, _)] = verify._disjoint_paths_greedy_vs_exact(Random(0), 0)
    assert name == "disjoint-paths-greedy-vs-exact" and not passed
    assert len(families) == 2  # greedy and exact of the first trial, which ends the check


def test_rooted_random_suite_fails_when_no_trial_has_a_root(monkeypatch) -> None:
    # edgeless pairs: no vertex reaches the root degree, so every trial is void
    monkeypatch.setattr(
        verify, "_bipartite", lambda a, b, keep: SimpleGraph.from_edges(a + b, [])
    )
    [(name, passed, detail)] = verify._rooted_random_suite(Random(0), 0)
    assert name == "rooted-random-suite" and not passed
    assert detail.startswith("0 confirmed, 0 violated")


def test_subset_inheritance_fails_on_an_irregular_subset(monkeypatch) -> None:
    real, subsets = verify.eps_regular_exact, []

    def subsets_irregular(g, xs, ys, eps):
        pair = real(g, xs, ys, eps)
        if isinstance(xs, range):  # the whole parts are ranges, subsets lists
            return pair
        subsets.append(xs)
        return replace(pair, regular=False)

    monkeypatch.setattr(verify, "eps_regular_exact", subsets_irregular)
    [(name, passed, _)] = verify._regularity_subset_inheritance(Random(0), 0)
    assert name == "regularity-subset-inheritance" and not passed
    assert len(subsets) == 1  # the first irregular subset ends the check


def test_degree_deviation_check_fails_on_a_failing_report(monkeypatch) -> None:
    real, reports = verify.degree_deviation_check, []

    def failing(*args):
        reports.append(real(*args)._replace(passed=False))
        return reports[-1]

    monkeypatch.setattr(verify, "degree_deviation_check", failing)
    [(name, passed, _)] = verify._degree_deviation_on_regular_pairs(Random(0), 0)
    assert name == "degree-deviation-on-regular-pairs" and not passed
    assert len(reports) == 1  # the first failing report ends the check


def _one_below(exhaustive_min):
    """``exhaustive_min`` with every minimum one below the sweep's."""

    def wrong(pattern, n):
        res = exhaustive_min(pattern, n)
        return replace(res, best_count=res.best_count - 1)

    return wrong


def _wrong_report(**fields):
    """A maker of a bound or check function whose reports take each of
    ``fields`` from a function of the true report."""

    def maker(bound):
        def wrong(*args, **kwargs):
            rep = bound(*args, **kwargs)
            return replace(rep, **{name: field(rep) for name, field in fields.items()})

        return wrong

    return maker


def _one_edge_short(max_matching):
    """``max_matching`` with the last edge of every matching dropped."""
    return lambda g: max_matching(g)[:-1]


def _exact_one_short(disjoint_short_paths):
    """``disjoint_short_paths`` whose exact families lack their last path."""

    def wrong(g, u, v, max_len, **kwargs):
        cert = disjoint_short_paths(g, u, v, max_len, **kwargs)
        return replace(cert, paths=cert.paths[:-1]) if kwargs.get("method") == "exact" else cert

    return wrong


# (suite, check, the verify function the check reads, a maker of a wrong
# version of it); the sweep-backed minima one low read P_3/3 and S_2/3 as 0
# and K3/5 as -1.  Every endpoint-random-suite trial is vacuous, with bound
# 0, so only a report that claims its hypotheses and a bound above its count
# can fail that check.  The matching row fails once a graph has an edge, and
# the disjoint-paths row once greedy and exact agree on a nonempty family
WRONG_INPUTS = [
    ("formulas", "path-threshold-positivity", "exhaustive_min", _one_below),
    ("formulas", "star-thresholds", "exhaustive_min", _one_below),
    ("formulas", "triangle-threshold", "exhaustive_min", _one_below),
    ("bounds", "rooted-complete-product", "rooted_path_bound",
     _wrong_report(exact_count=lambda rep: rep.exact_count + 1)),
    ("bounds", "rooted-random-suite", "rooted_path_bound",
     _wrong_report(exact_count=lambda rep: 0)),
    ("bounds", "endpoint-random-suite", "endpoint_path_bound",
     _wrong_report(hypotheses=lambda rep: dict.fromkeys(rep.hypotheses, True),
                   bound=lambda rep: rep.exact_count + 1)),
    ("bounds", "dense-complete-exact", "dense_bipartite_bound",
     _wrong_report(exact_count=lambda rep: rep.exact_count - 1)),
    ("bounds", "dense-near-complete", "dense_bipartite_bound",
     _wrong_report(exact_count=lambda rep: 0)),
    ("structure", "matching-oracle-sweep", "max_matching", _one_edge_short),
    ("structure", "edge-bound-matching-sweep", "verify_erdos_gallai",
     _wrong_report(ok=lambda rep: False)),
    ("structure", "bipartite-edge-bound-sweep", "konig_edge_bound_check",
     _wrong_report(ok=lambda rep: False)),
    ("structure", "disjoint-paths-greedy-vs-exact", "disjoint_short_paths", _exact_one_short),
    ("structure", "well-connected-split-vs-cliques", "well_connected_check",
     _wrong_report(status=lambda rep: "refuted" if rep.status == "certified" else "certified")),
]


@pytest.mark.parametrize(
    "suite, name, function, wrong", WRONG_INPUTS, ids=[row[1] for row in WRONG_INPUTS]
)
def test_check_fails_on_a_wrong_input(monkeypatch, suite, name, function, wrong) -> None:
    monkeypatch.setattr(verify, function, wrong(getattr(verify, function)))
    [passed] = [r.passed for r in run_suite(suite, seed=0) if r.name == name]
    assert not passed
    assert main(["verify", "--suite", suite]) == 1
