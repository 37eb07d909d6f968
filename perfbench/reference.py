"""Fixed reference job that measures how fast the host runs right now.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts by 20% or more over tens of seconds,
for minutes at a time. Raw call times inherit that drift. Running this
fixed job between calls, for a fixed share of each call's duration,
samples the same host phases the calls saw; the ratio of call time to
reference time cancels most of the drift.

The job mixes the two kinds of work the pipeline does: an interpreted
loop over a dict of tuple keys (like the scatter stage's hash-grid
dedup) and vectorised numpy over arrays with one row per pixel of a
view (like the ray caster). The array size follows the workload's view
size, up to 60k rows, because the drift hits numpy differently by
array size. Measured as the quartile spread of ``run_ref`` over ten
runs: on the 80-view 160x120 workload, 13.7% with 60k-row arrays and
3.8% with 19.2k-row arrays; on the 640x480 workload, 4.8% with 60k-row
arrays and 8.1% with 307k-row arrays. The job never changes with the
package, so its ratio to the pipeline compares commits fairly.
"""

from __future__ import annotations

import time

import numpy as np

# Array rows one repetition processes, in passes over one view's pixels,
# capped at _MAX_ROWS per pass.
_ROWS_PER_REP = 480_000
_MAX_ROWS = 60_000
_AXIS = np.array([0.3, -0.2, 0.9])


class Reference:
    """Accumulated reference time, interleaved with the measured calls."""

    def __init__(self, view_pixels: int):
        rows = min(view_pixels, _MAX_ROWS)
        self._points = np.random.default_rng(0).random((rows, 3))
        self._passes = max(1, round(_ROWS_PER_REP / rows))
        self.seconds = 0.0
        self.reps = 0

    def job(self) -> float:
        """One repetition: 15-30 ms on one core of a 2-vCPU Intel Xeon VM."""
        cells: dict[tuple[int, int, int], list[int]] = {}
        acc = 0.0
        for i in range(16_000):
            key = (i % 31, i % 29, i % 23)
            bucket = cells.get(key)
            if bucket is None:
                cells[key] = [i]
            else:
                bucket.append(i)
            acc += (i * 0.37) % 1.0
        for _ in range(self._passes):
            p = np.cross(self._points, _AXIS)
            d = p @ _AXIS
            hit = (p[:, 0] > 0.1) & (p[:, 1] < 0.5) & (d > -1.0)
            acc += float(np.where(hit, p[:, 2], 0.0).sum())
        return acc

    def run_for(self, target_s: float) -> float:
        """Repeat the job until at least ``target_s`` seconds are spent;
        returns the mean time of these repetitions."""
        spent = 0.0
        reps = 0
        while True:
            start = time.perf_counter()
            self.job()
            spent += time.perf_counter() - start
            reps += 1
            if spent >= target_s:
                break
        self.seconds += spent
        self.reps += reps
        return spent / reps

    @property
    def rep_s(self) -> float:
        """Mean wall time of one repetition."""
        return self.seconds / self.reps
