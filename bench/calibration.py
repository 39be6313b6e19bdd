"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a small shared VM the wall-clock time of interpreter-bound code can
move by 1.5-1.9x over tens of seconds as neighbouring load comes and
goes, which no run length averages away.  A fixed reference loop,
independent of dmdgp, is timed right before and right after each op and
each pool member built during set-up; the measured time is scaled by
`nominal / reference time`, which reports it at the speed the machine
had when the reference loop took its nominal time.  A change to dmdgp
moves the op's time and not the reference's, so it still shows in full.  Each workload is timed against
a reference of the same kind as its op (`Workload.calibrator`):
interpreter work for the CLI and BP ops, numpy streaming over freshly
allocated arrays for the statevector op.
"""

from __future__ import annotations

import time

import numpy as np

#: The median reference pass time over 8247 ops of thirty 20 s runs on the
#: 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4) the benchmark was defined
#: on (deciles 0.70-1.56 ms), so that the scale is about 1 on average and a
#: calibrated time is close to the wall-clock time there.
NOMINAL_MS = 1.07
REPEATS = 3


class Calibrator:
    """Times a fixed mix of interpreter work, small numpy calls and one pass
    over a cache-resident 512 KiB array, as in the interpreter-bound ops."""

    nominal_ms = NOMINAL_MS

    def __init__(self) -> None:
        self._eye = np.eye(4)
        self._vec = np.linspace(0.0, 1.0, 1 << 16)

    def _once_ms(self) -> float:
        start = time.perf_counter_ns()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        q = self._eye
        for _ in range(300):
            q = q @ self._eye
        float(np.abs(self._vec - 0.5).sum())
        return (time.perf_counter_ns() - start) / 1e6

    def reference_ms(self) -> float:
        """The fastest of REPEATS back-to-back passes: the first pass warms the
        caches an op has just evicted, and a pause that hits one pass is dropped."""
        return min(self._once_ms() for _ in range(REPEATS))

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor that takes a time measured between two reference runs to nominal speed."""
        return self.nominal_ms / (0.5 * (before_ms + after_ms))


class StreamingCalibrator(Calibrator):
    """Times numpy streaming over a freshly allocated 2 MiB complex array, as
    in the Grover statevector updates, whose time follows memory and page
    allocation speed rather than interpreter speed.  Around grover-wide ops
    it halved the spread of one member's op time within a 90 s window
    (coefficient of variation 0.148 raw, 0.071 scaled), where the
    interpreter reference left it unchanged (0.137)."""

    #: The median pass time over 225 grover-wide ops on the VM above.
    nominal_ms = 1.18

    def _once_ms(self) -> float:
        start = time.perf_counter_ns()
        amps = np.full(1 << 17, 0.5, dtype=complex)
        for _ in range(4):
            amps = 2.0 * amps.mean() - amps
        return (time.perf_counter_ns() - start) / 1e6
