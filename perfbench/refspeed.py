"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared VM the same pass can run 25% faster or slower for minutes at a
time, because other tenants load the physical cores under the vCPUs.  The
benchmark times this kernel next to every timed piece of work and reports
times scaled to reference speed:

    time * NOMINAL_S / kernel time

The kernel does what blindim does: small complex SVDs, FFTs and products,
plus interpreter-bound Python loops.  It uses no blindim code, so a change to
the program never changes the scale.
"""

from __future__ import annotations

import statistics
import time

# the kernel's typical duration on the 2-vCPU Xeon VM the benchmark was tuned
# on; it only fixes the unit, so reference seconds are close to wall seconds
NOMINAL_S = 0.021


def kernel():
    import numpy as np

    rng = np.random.default_rng(12345)
    A = rng.standard_normal((28, 24)) + 1j * rng.standard_normal((28, 24))
    acc = 0.0
    for i in range(200):
        acc += float(np.linalg.svd(A, compute_uv=False)[0])
        acc += float(np.abs(np.fft.fft(A[:, i % 24])).sum())
        acc += float(np.abs(A.conj().T @ A[:, :4]).sum())
        x = 0
        for j in range(200):
            x += j * j
        acc += x
    return acc


def kernel_seconds(repeats=1):
    """Median wall time of `repeats` runs of the kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
