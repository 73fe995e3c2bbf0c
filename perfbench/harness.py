"""Host-time measurement: the segment-median estimator and the machine gauge.

A run of the benchmark repeats one fixed, seeded *segment* of work (a
training run, a trace replay) for as long as it is given, and times a
short reference loop between segments.  On a shared machine the speed of
the host drifts by up to ~1.8x over spans of seconds, so a whole-run rate
does not repeat; the median over many short segments does, because a slow
spell costs a few segments instead of the whole run.

Each segment's time is also scaled by a pure-Python reference loop timed
on either side of it, against a fixed nominal loop time, so a run that
falls wholly inside a slow spell reports what the same work costs on a
machine running the loop at its nominal speed.  Measured over three
minutes of repeated segments (README.md), the median of 15-second windows
spread 0.106 (quartile distance over median) raw and 0.022 normalised by
this loop; a loop that also timed ``np.add.at`` tracked the machine worse
(0.042), so the gauge is Python alone.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List

#: Reference-loop time, in seconds, that normalised segment times are
#: expressed against (the loop's median on the machine in README.md).
NOMINAL_REF_S = 0.008

_REF_ITERS = 100_000


def reference_loop() -> float:
    """Run a fixed pure-Python loop that gauges host speed; returns its wall time."""
    start = time.perf_counter()
    acc = 0
    for i in range(_REF_ITERS):
        acc += i * i
    elapsed = time.perf_counter() - start
    if acc <= 0:  # consume the result
        raise RuntimeError("reference loop produced nothing")
    return elapsed


@dataclass
class SegmentTimes:
    """Wall times of the timed segments and the reference loops around them.

    ``refs`` has one more entry than ``segments``: loop *i* ran just before
    segment *i* and loop *i + 1* just after it.
    """

    segments: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)

    def normalised(self) -> List[float]:
        """Each segment time scaled by its adjacent reference loops."""
        return [
            t * NOMINAL_REF_S / (0.5 * (self.refs[i] + self.refs[i + 1]))
            for i, t in enumerate(self.segments)
        ]

    def median_segment_s(self) -> float:
        """The estimator every host rate is built on."""
        return statistics.median(self.normalised())


def time_segments(
    segment: Callable[[], object],
    seconds: float,
    on_result: Callable[[object], None],
    min_segments: int = 3,
) -> SegmentTimes:
    """Repeat ``segment`` for ``seconds`` (at least ``min_segments`` times).

    Every call runs whole: the loop only decides before a segment whether
    another one fits.  ``on_result`` receives each segment's return value
    outside the timed region.
    """
    times = SegmentTimes(refs=[reference_loop()])
    deadline = time.perf_counter() + seconds
    while len(times.segments) < min_segments or time.perf_counter() < deadline:
        start = time.perf_counter()
        result = segment()
        times.segments.append(time.perf_counter() - start)
        times.refs.append(reference_loop())
        on_result(result)
    return times


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
