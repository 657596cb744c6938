"""Host-speed scaling for wall times measured on a shared machine.

On a shared host, other tenants slow Python code by up to about 2x, in
episodes that last from under a second to minutes, so raw wall times of the
same work differ between runs far more than any change worth detecting.  A
fixed pure-Python kernel measures that slowdown.  While a ``HostSpeed`` is
active, a SIGALRM timer samples the kernel every ``SAMPLE_EVERY_S`` of wall
time, also in the middle of long calls; the time a sample takes is left out
of the interval it falls in.  A measured interval is reported as

    (wall seconds - sampling seconds) * REFERENCE_KERNEL_S / median(kernel samples near it)

that is, the time the interval would have taken on a host where the kernel
takes ``REFERENCE_KERNEL_S`` (about its uncontended time on the two-core
Xeon virtual machine the benchmark was defined on).

The kernel is benchmark code and works on a small dictionary it builds
afresh on every pass, so it holds no data that ramseykit's memory traffic
could push out of cache; each sample also follows an untimed warm-up pass.
What moves the reading is the host's contention, not what ramseykit did
just before.  (A variant that also read a 4 MiB buffer at scattered offsets
tracked the benchmark's op times worse on that machine, and a buffer left
cold by the previous op read about 2 ms slower.)  Run reports print the
unscaled times next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

# the C module behind `signal`, loaded at interpreter start-up: importing it
# loads nothing that `import ramseykit.cli` would otherwise load and time
import _signal

REFERENCE_KERNEL_S = 0.003
SAMPLE_EVERY_S = 0.25
# a sample is the median of this many passes, after one warm-up pass
KERNEL_PASSES = 3
# Contention changes within a second, so only the samples in an interval
# and just before and after it count for it.
WINDOW_S = 0.25
MIN_SAMPLES = 2


def _median(values: list[float]) -> float:
    # statistics.median without importing statistics, which would load
    # modules ramseykit imports before timed_cli.py times that import
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scale_for(kernel_times: list[float]) -> float:
    """Factor that turns wall seconds into reference seconds, given kernel times."""
    return REFERENCE_KERNEL_S / _median(kernel_times)


def kernel() -> int:
    """Dictionary and integer work shaped like the subset DP's inner loop."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(20000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + i
        total += key.bit_length()
    return total


def timed_kernel() -> float:
    """One sample: the median seconds of KERNEL_PASSES passes after a warm-up pass."""
    kernel()
    times = []
    for _ in range(KERNEL_PASSES):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return _median(times)


class HostSpeed:
    """Kernel samples taken on a timer while active (``with HostSpeed() as speed:``)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time taken, kernel seconds)
        self.pauses: list[tuple[float, float]] = []  # (start, end) of each sample

    def sample(self) -> None:
        start = perf_counter()
        seconds = timed_kernel()
        end = perf_counter()
        self.samples.append((end, seconds))
        self.pauses.append((start, end))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> HostSpeed:
        self.sample()
        _signal.signal(_signal.SIGALRM, self._on_alarm)
        _signal.setitimer(_signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        _signal.setitimer(_signal.ITIMER_REAL, 0)
        _signal.signal(_signal.SIGALRM, _signal.SIG_DFL)
        self.sample()

    def paused(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent taking samples."""
        return sum(max(0.0, min(e, end) - max(s, start)) for s, e in self.pauses)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds in [start, end] into reference seconds."""
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            near = [k for _, k in nearest]
        return scale_for(near)

    def factor(self) -> float:
        """Median slowdown over the whole run: kernel time / reference."""
        return _median([k for _, k in self.samples]) / REFERENCE_KERNEL_S
