"""How fast the host runs right now, from a fixed probe kernel.

The benchmark's hosts share their CPUs, and their speed drifts over
minutes: a fixed BLAS kernel timed in consecutive 10 s windows on one of
them varied from 63 to 95 ms, and a pipeline's wall time moves with it.
The probe is a fixed mix of what the workloads spend their time in (a tall
Gram product, Cholesky factors, interpreted Python), built only on numpy,
so a change to ``osplines`` cannot change it.  Timed between the pipelines
of a run, it gives the run a host factor, ``REFERENCE_PROBE_S`` over the
median probe time, and a wall time times that factor is the time on a host
running at the reference speed.  The factor is taken over a whole run, not
per pipeline: within seconds the probe and a pipeline do not slow together
(the log correlation of a repeated ``poisson_od_cli`` pipeline with the
probes around it was 0.2), over a run they do (0.65 over 17 s windows).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the host where the benchmark was defined (2 vCPU Xeon,
# single-threaded OpenBLAS).  Only a scale: it makes the adjusted times read
# as seconds on that host.
REFERENCE_PROBE_S = 0.009
# After a pipeline, probe for at least this share of its time (and at least
# MIN_PROBES times), so long pipelines get a longer look at the host.
PROBE_SHARE = 0.05
MIN_PROBES = 3
# After set-up, probe this long to adjust the set-up time.
SETUP_PROBE_S = 0.1

_rng = np.random.default_rng(0)
_TALL = _rng.random((5_000, 100))
_SQUARE = _rng.random((300, 300))
_SPD_LARGE = _SQUARE @ _SQUARE.T + 300.0 * np.eye(300)
_SMALL = _rng.random((100, 100))
_SPD_SMALL = _SMALL @ _SMALL.T + 100.0 * np.eye(100)


def probe() -> float:
    """Seconds for one pass of the fixed kernel.

    Its five parts take about 2 ms each at the reference speed: weighted
    by time, not by flops.  When the host slows, small-matrix and
    interpreted code slows more than large BLAS calls.  Against
    ``gmm_batch`` pipelines, whose 10th and 90th percentile times were
    1.9x apart on the reference host, this probe moved 1.4x with a log
    correlation of 0.9; a probe made mostly of the two large BLAS calls
    left a normalised spread of 0.27 instead of 0.21.
    """
    t0 = time.perf_counter()
    _TALL.T @ _TALL
    np.linalg.cholesky(_SPD_LARGE)
    for _ in range(12):
        np.linalg.cholesky(_SPD_SMALL)
    for _ in range(40):
        np.sum(_SMALL @ _SMALL)
    acc = 0.0
    for i in range(30_000):
        acc += i * 0.5
    return time.perf_counter() - t0


def sample(at_least_s: float = 0.0) -> list[float]:
    """Probe times: at least MIN_PROBES passes and ``at_least_s`` seconds."""
    times = [probe() for _ in range(MIN_PROBES)]
    while sum(times) < at_least_s:
        times.append(probe())
    return times


def factor(probe_times: list[float]) -> float:
    """A run's host factor: the reference probe time over the run's median."""
    return REFERENCE_PROBE_S / statistics.median(probe_times)
