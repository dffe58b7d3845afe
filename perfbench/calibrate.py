"""Machine-speed calibration for the benchmark's timings.

Shared machines run the same code at speeds that differ by up to 2x, in
periods from milliseconds to tens of seconds, because of other tenants on the
host.  The worker therefore runs a fixed kernel of small numpy calls and
interpreted arithmetic, the same mix the program spends its time on, around
every operation, and each timing is scaled by REFERENCE_S / (kernel time
measured around it): a time "at reference speed".  The ratio of an
operation's time to the kernel's time changes little when the machine slows
down, while raw times swing with it.  The kernel shares no code with the
program, so a faster program still shows as a faster ratio.
"""

import time

import numpy as np

# Kernel time on an otherwise idle 2-vCPU Intel Xeon (Sapphire Rapids) KVM
# guest with Python 3.11 and numpy 2.4; only a scale, so timings read in
# familiar units.
REFERENCE_S = 4.5e-4

_M = np.arange(36.0).reshape(6, 6) / 36.0 + 3.0 * np.eye(6)
_I = np.eye(6)
_V = np.linspace(-1.0, 1.0, 6)


def kernel():
    total = 0.0
    for i in range(40):
        x = np.linalg.solve(_M + i * _I, _V)
        total += float(x @ x)
        for j in range(20):
            total += j * 0.5
    return total


def measure():
    """Seconds one kernel() call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds, kernel_seconds):
    """`seconds` measured while the kernel took kernel_seconds, at reference speed."""
    return seconds * REFERENCE_S / kernel_seconds
