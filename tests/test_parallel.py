import concurrent.futures

import pytest

from ramseykit.errors import DomainError
from ramseykit import parallel
from ramseykit.parallel import job_seed, parallel_map


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, its initializer
    arguments and the jobs it is handed, and runs them in process."""

    sizes: list[int] = []
    initargs: list[tuple] = []
    jobs: list[list] = []

    def __init__(self, max_workers: int, mp_context, initializer, initargs) -> None:
        assert mp_context.get_start_method() == "spawn"
        RecordingPool.sizes.append(max_workers)
        RecordingPool.initargs.append(initargs)
        initializer(*initargs)

    def __enter__(self) -> "RecordingPool":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def map(self, fn, jobs):
        jobs = list(jobs)
        RecordingPool.jobs.append(jobs)
        return map(fn, jobs)


def test_pool_size_is_capped_by_threads_jobs_and_cpus(monkeypatch) -> None:
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert parallel_map(str, range(3), 8) == ["0", "1", "2"]  # jobs
    assert parallel_map(str, range(10), 8) == [str(i) for i in range(10)]  # cpus
    assert parallel_map(str, range(10), 2) == [str(i) for i in range(10)]  # threads
    assert RecordingPool.sizes == [3, 4, 2]
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert parallel_map(str, range(10), 8) == [str(i) for i in range(10)]
    assert RecordingPool.sizes == [3, 4, 2]


def test_one_thread_or_one_job_runs_inline(monkeypatch) -> None:
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert parallel_map(str, range(5), 1) == [str(i) for i in range(5)]
    assert parallel_map(str, [7], 8) == ["7"]
    assert parallel_map(str, [], 8) == []
    assert RecordingPool.sizes == []


def scaled(table: dict, job: int) -> int:
    return table[job] * job


def test_shared_arguments_go_once_to_each_worker(monkeypatch) -> None:
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for name in ("sizes", "initargs", "jobs"):
        monkeypatch.setattr(RecordingPool, name, [])
    monkeypatch.setattr(parallel, "_shared", ())
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    table = {j: j + 1 for j in range(6)}
    want = [scaled(table, j) for j in range(6)]
    assert parallel_map(scaled, range(6), 1, table) == want  # inline
    assert RecordingPool.sizes == []
    assert parallel_map(scaled, range(6), 3, table) == want
    # the table reaches the pool once, as initializer arguments, and the
    # jobs the pool sends to its workers are the bare jobs
    assert RecordingPool.sizes == [3]
    assert len(RecordingPool.initargs) == 1 and RecordingPool.initargs[0][0] is table
    assert RecordingPool.jobs == [list(range(6))]


@pytest.mark.parametrize("threads", [0, -5])
def test_fewer_than_one_thread_is_refused(threads) -> None:
    with pytest.raises(DomainError):
        parallel_map(str, range(3), threads)


def test_job_seeds_are_pinned() -> None:
    # anneal restart i of seed 7, and the red sample of parts 1, 2 at seed 0
    assert job_seed(7, 3) == 12296769318780836496
    assert job_seed(0, 1, 2, "red") == 10834123606138540087
