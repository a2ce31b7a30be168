"""Host-speed probe: how fast this CPU runs a fixed kernel, sampled during a call.

A VM that shares its cores with other tenants (the 2-core Xeon the
benchmark was built on) runs every process up to 75 % slower while they
are busy, for seconds to minutes at a time, so a wall time read minutes
later on the same code can differ by more than any useful regression
bound.  A fixed kernel run next to the pipeline in the same thread is
slowed alike: ten ``verify-baseline`` runs whose measured times spread by
0.19 (quartile distance over median) spread by 0.028 once scaled as
below.

So a timed call runs with a timer signal: every ``INTERVAL_S`` the
handler runs the probe and records how long it took.  The probe is
``MATRIX_STEPS`` steps of an RK4-shaped loop over 60x60 complex matrices
(the size of the baseline's hot path: small BLAS calls) followed by a
pure-interpreter loop of about the same length (the stage assembly and
the adjoint probe are bound by interpreter overhead).  The handler's own
time is taken out of the call's time; the rest is scaled to the
reference host speed, the speed at which one probe takes
``REFERENCE_S``:

    reported = (measured - time in probes) * REFERENCE_S / mean(probe time)

The probe's code and inputs are fixed in the benchmark, so the scale is
the same for every version of the package.  The raw times are kept in
the run's record next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
# matrix part and pure-interpreter part take about the same time
MATRIX_STEPS = 20
LOOP_STEPS = 20000
DIM = 60
# one probe's wall (and CPU) time on an uncontended 2-core Xeon VM
REFERENCE_S = 0.005


class HostSpeed:
    """Fixed probe kernel, run on demand or from a timer during a call."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
        self.a = a / DIM
        self.b = self.a.conj().T.copy()
        self.eye = np.eye(DIM, dtype=complex)
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def probe(self, *_signal_args):
        """Run the kernel once and record its wall and CPU time."""
        w0, c0 = time.perf_counter(), time.process_time()
        a, b, x = self.a, self.b, self.eye
        for _ in range(MATRIX_STEPS):
            y = a @ x + x @ b
            y += 0.1 * (a @ x @ b)
            x = x + 1e-3 * y
        acc, table = 0.0, {}
        for i in range(LOOP_STEPS):
            acc += (i * 0.5) % 7.0
            table[i & 255] = acc
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    def reset(self):
        self.wall.clear()
        self.cpu.clear()

    def timed(self, fn):
        """Call ``fn()`` under the probe timer; return its result and times.

        One probe runs just before and one just after the timed interval,
        so that even a call shorter than ``INTERVAL_S`` has a speed.
        """
        self.reset()
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        inside_wall, inside_cpu = sum(self.wall[1:]), sum(self.cpu[1:])
        self.probe()
        return result, {
            "wall_s": (wall - inside_wall) / self.slowdown(self.wall),
            "cpu_s": (cpu - inside_cpu) / self.slowdown(self.cpu),
            "raw_wall_s": wall,
            "raw_cpu_s": cpu,
            "probes": len(self.wall),
            "slowdown": self.slowdown(self.wall),
        }

    def sample(self, count: int) -> float:
        """Run ``count`` probes now; return the slowdown they show."""
        self.reset()
        for _ in range(count):
            self.probe()
        return self.slowdown(self.wall)

    @staticmethod
    def slowdown(times: list[float]) -> float:
        """Mean probe time over the reference probe time."""
        return statistics.fmean(times) / REFERENCE_S
