import hashlib

import pytest

from ramseykit import DomainError
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
