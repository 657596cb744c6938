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
