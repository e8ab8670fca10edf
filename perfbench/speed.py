"""Machine-speed probe that lets timings on a shared host be compared.

On a small shared VM the speed of the same single-threaded code drifts by up
to 2x over tens of seconds as other tenants come and go, on every vCPU, with
no steal time reported.  Fixed numpy kernels slow down with it, so the ratio
of a workload's rate to the kernels' rate, measured over the same seconds,
spreads far less than the raw rate.

Which kernel tracks a workload best depends on what the workload and the
other tenants stress, so the probe times three parts and combines their
rates by geometric mean: a GEMV over a 2 MiB matrix (cache and memory
traffic), small LAPACK and ufunc calls (numpy call overhead), and frozen
mini-trials that seed a generator, draw, factor a 4x4 channel and scan
candidates (the shape of one simulated channel use).  Over 150 s traces on
each workload this combination kept the spread of 20 s medians within 5%,
where single kernels reached 7-18% on some workload.

:class:`SpeedProbe` runs the parts from a timer signal every
:data:`INTERVAL_S` while the workload runs, so long sweeps are sampled
throughout.  The kernels are benchmark code: changes to csmimo do not move
them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Geometric-mean part rate on the reference machine (a 2-vCPU x86 VM at
# 2.1 GHz, single-threaded OpenBLAS).  Rates are scaled by
# REFERENCE_HZ / measured rate, so results read as if run at that speed.
REFERENCE_HZ = 700.0

INTERVAL_S = 0.2

_rng = np.random.default_rng(20160403)
_M = _rng.standard_normal((2, 65536)) + 1j * _rng.standard_normal((2, 65536))
_W = _rng.standard_normal(2) + 0j
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_V = _rng.standard_normal(4) + 0j
_C = _rng.standard_normal((2, 256)) + 1j * _rng.standard_normal((2, 256))


def _gemv() -> int:
    return sum(int(np.argmin(np.real(_W.conj() @ _M))) for _ in range(4))


def _small_calls() -> int:
    x = 0
    for _ in range(60):
        x += int(np.argmin(np.linalg.svd(_A, compute_uv=False)))
        x += int(np.argmin(np.abs(_A @ _V)))
    return x


def _mini_trials() -> int:
    x = 0
    for t in range(15):
        g = np.random.default_rng([1, t])
        bits = g.integers(0, 2, size=16, dtype=np.uint8)
        h = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        u, s, vh = np.linalg.svd(h, full_matrices=False)
        z = vh.conj().T @ ((u.conj().T @ _V) / s)
        x += int(np.argmin(np.real(z[:2].conj() @ _C))) + int(bits.sum())
    return x


_PARTS = (_gemv, _small_calls, _mini_trials)


def _run_parts() -> tuple[int, ...]:
    """Run each part once; their durations in ns."""
    durations = []
    for part in _PARTS:
        start = time.perf_counter_ns()
        part()
        durations.append(time.perf_counter_ns() - start)
    return tuple(durations)


def _combined_hz(runs: list[tuple[int, ...]]) -> float:
    """Geometric mean over parts of each part's median rate."""
    rates = [1e9 / statistics.median(d[k] for d in runs) for k in range(len(_PARTS))]
    return math.prod(rates) ** (1.0 / len(rates))


def kernel_hz(repeats: int) -> float:
    """Combined rate of ``repeats`` runs of the parts, after one untimed run."""
    _run_parts()
    return _combined_hz([_run_parts() for _ in range(repeats)])


class SpeedProbe:
    """Runs the parts every :data:`INTERVAL_S` inside a ``with`` block.

    :meth:`clock` is a nanosecond clock that stands still while they run,
    so wall times taken with it leave the probe out.
    """

    def __init__(self) -> None:
        self._runs: list[tuple[int, tuple[int, ...]]] = []
        self._busy_ns = 0

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        durations = _run_parts()
        self._runs.append((start, durations))
        self._busy_ns += time.perf_counter_ns() - start

    def clock(self) -> int:
        busy = self._busy_ns
        return time.perf_counter_ns() - busy

    def hz_between(self, start_ns: int, end_ns: int) -> float | None:
        """Combined rate of the probe runs that started in ``[start_ns, end_ns)``."""
        inside = [d for s, d in self._runs if start_ns <= s < end_ns]
        return _combined_hz(inside) if inside else None

    def __enter__(self) -> "SpeedProbe":
        _run_parts()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
