"""Host-speed calibration kernel, run in a process of its own.

    python3 bench/calibrate.py BATCH TIME WIDTH LAYERS

Each line read from stdin is a number of calls; the kernel runs that many
times and the median seconds per call is written back as one line. The
kernel is fixed float32 numpy work shaped like LAYERS small transformer
blocks on a (BATCH, TIME, WIDTH) activation, and never changes with actlm.
A workload picks the shape of its dominant op: the host's speed moves tiny,
dispatch-bound arrays and larger, compute-bound ones differently.

The kernel runs in its own process, started with the environment the
benchmark had before it imported actlm, so a change to actlm's process-wide
state (allocator settings, thread settings, heap use) cannot speed it up or
slow it down: only the speed of the host moves it.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np


def make_kernel(batch: int, time_len: int, width: int, layers: int):
    rng = np.random.default_rng(0)
    x0 = (rng.standard_normal((batch, time_len, width)) * 0.5).astype(
        np.float32)
    w1 = (rng.standard_normal((width, 2 * width)) * 0.1).astype(np.float32)
    w2 = (rng.standard_normal((2 * width, width)) * 0.1).astype(np.float32)

    def kernel():
        x = x0
        for _ in range(layers):
            h = x @ w1
            h = h / (1.0 + np.exp(-h))
            y = h @ w2
            s = y @ np.swapaxes(y, -1, -2)
            s = np.exp(s - s.max(-1, keepdims=True))
            x = x + (s / s.sum(-1, keepdims=True)) @ y
            x = x / np.sqrt((x * x).mean(-1, keepdims=True) + 1e-5)
        return x
    return kernel


def main() -> int:
    kernel = make_kernel(*map(int, sys.argv[1:5]))
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        sys.stdout.write(f"{statistics.median(times)!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
