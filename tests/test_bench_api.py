"""The benchmark in ``perfbench/`` still builds against the package.

``perfbench/workloads.py`` imports names from ramseykit that nothing in the
package uses (``ColorView``, ``RAW_ENUM_MAX_N``, ...).  Building every
workload for one round catches a rename of any of them here rather than in
a bench run, and running the cheap count ops exercises ``ColorView``.  The
benchmark files are only read.
"""

import sys
from pathlib import Path

import pytest

from ramseykit import parse_pattern

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return workloads, tracing


def test_every_workload_builds_its_ops_and_cli_call(workloads) -> None:
    wl, _ = workloads
    assert set(wl.WORKLOADS) == {"anneal", "exhaustive", "exact-count", "certify"}
    for workload in wl.WORKLOADS.values():
        assert workload.build(1, 1)
        assert workload.cli(1).argv


def test_star_and_clique_count_ops_run_and_check(workloads) -> None:
    wl, tracing = workloads
    tracer = tracing.Tracer(False)
    ran = 0
    for op in wl.WORKLOADS["exact-count"].build(1, 1):
        label = op.kind.split()[-1].split("/")[0]
        if parse_pattern(label).kind in ("star", "clique"):
            assert op.check(op.run(tracer)) is None, op.kind
            ran += 1
    assert ran > 0


def test_seed0_path_and_cycle_count_ops_run_and_check(workloads) -> None:
    # at seed 0 every subset-DP count is pinned (reference.SEED0_COUNTS,
    # PANEL_COUNTS or an independent count), so a kernel routing error that
    # changes a count fails here
    wl, tracing = workloads
    tracer = tracing.Tracer(False)
    ran = 0
    for op in wl.WORKLOADS["exact-count"].build(0, 1):
        label = op.kind.split()[-1].split("/")[0]
        if parse_pattern(label).kind in ("path", "cycle"):
            assert op.check(op.run(tracer)) is None, op.kind
            ran += 1
    assert ran == 28
