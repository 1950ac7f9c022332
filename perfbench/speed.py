"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small virtual machine the same op can take 300 ms in one minute and
600 ms in the next, because other tenants share the physical cores.  A
fixed calibration kernel, run every CALIBRATE_EVERY seconds between ops,
tracks that drift: each op's wall time is scaled by REFERENCE_S divided
by the kernel times measured just before and after it.  The reported
timings are therefore milliseconds at the reference speed, the speed at
which the kernel takes REFERENCE_S.  The raw wall times are printed
beside them.

The kernel is owned by the benchmark and never changes with the
library: small int64 eliminations over Z_p driven from a Python loop,
the same mix of interpreter and numpy overhead as the library's hot
path, so both slow down together when the host is busy.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.005
CALIBRATE_EVERY = 0.2
_P = 31991
_MATRICES = [np.random.default_rng(tag).integers(0, _P, size=(10, 10), dtype=np.int64)
             for tag in range(30)]


def _eliminate(a: np.ndarray, p: int) -> int:
    a = a.copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        below = a[r + 1:]
        f = below[:, c]
        mask = f != 0
        if mask.any():
            below[mask] = (below[mask] * a[r, c] - np.outer(f[mask], a[r])) % p
        r += 1
    return r


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    ranks = sum(_eliminate(a, _P) for a in _MATRICES)
    elapsed = time.perf_counter() - t0
    if ranks <= 0:
        raise RuntimeError("calibration kernel computed nothing")
    return elapsed


class SpeedTrack:
    """Kernel times along the run, and the scaling of intervals by them."""

    def __init__(self):
        self.times: list[float] = []    # midpoints, perf_counter
        self.kernel: list[float] = []   # kernel seconds

    def sample(self) -> None:
        t0 = time.perf_counter()
        k = kernel_seconds()
        self.times.append(t0 + k / 2)
        self.kernel.append(k)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples bracketing
        [start, end]: the nearest one before it and the nearest after."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        near = [self.kernel[k] for k in (i, j) if 0 <= k < len(self.kernel)]
        return REFERENCE_S / (sum(near) / len(near))

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self.kernel)
