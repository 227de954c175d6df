"""Calibration of timings against the speed the host gives the benchmark.

On a shared host the speed of a CPU drifts with its neighbours' load, for
seconds to minutes at a time, by far more than the changes the benchmark
must resolve, and the drift is not the same for all kinds of work. So
every timed operation of an untraced run is bracketed by fixed calibration
kernels, run on the same pinned CPU and independent of basisopt, and its
time is reported in calibrated seconds:

    calibrated = measured * reference time / (mean kernel time around it)

that is, the time the operation would take on a host where the kernel
takes its reference time. An operation is calibrated with the kernel whose
kind of work dominates it:

  interp  interpreter-bound calls on small arrays (small eigensolves,
          block assembly, Python loops), like basisopt's reduced layer,
          optimizer, evaluation and command start-up
  array   long-vector and LAPACK work on an 8000-point grid, like the FD
          layer that builds the offline data

A change to basisopt moves the measured time and not the kernel's, so it
moves the calibrated time in the same proportion.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.linalg

# Kernel times on a 2.1 GHz Xeon vCPU with one BLAS thread, so that
# calibrated seconds read close to wall-clock seconds there.
REFERENCE_S = {"interp": 0.016, "array": 0.017}

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((20, 20))
_A = _M @ _M.T + 20.0 * np.eye(20)
_V = _rng.standard_normal(2000)
_X = np.linspace(-25.0, 25.0, 8000)
_H = (_X[1] - _X[0]) ** -2
_DIAG = 2.0 * _H - 1.0 / np.sqrt(1.0 + _X**2)
_OFFDIAG = np.full(_X.size - 1, -_H)
_CENTRES = 0.1 * np.arange(20.0)


def _interp() -> float:
    acc = 0.0
    for _ in range(180):
        w, v = np.linalg.eigh(_A)
        B = np.block([[_A, v], [v.T, _A]])
        acc += float(B.trace()) + float(_V @ _V) + sum(j * j for j in range(60))
    return acc


def _array() -> float:
    # column by column, so that the kernel adds little to the peak memory
    acc = 0.0
    for _ in range(2):
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            _DIAG, _OFFDIAG, select="i", select_range=(0, 1)
        )
        acc += float(vals[0])
        for c in _CENTRES:
            b = np.exp(-0.5 * (_X - c) ** 2)
            acc += float(b @ b) + float(b @ vecs[:, 0])
    return acc


_KERNELS = {"interp": _interp, "array": _array}


def kernel_seconds() -> dict[str, float]:
    """Wall time of one pass of each calibration kernel."""
    times = {}
    for name, kernel in _KERNELS.items():
        start = time.perf_counter()
        value = kernel()
        times[name] = time.perf_counter() - start
        if not np.isfinite(value):
            raise ArithmeticError(f"calibration kernel {name} is not finite")
    return times


def calibrated(seconds: float, kernel: str, kernel_s: float) -> float:
    return seconds * REFERENCE_S[kernel] / kernel_s


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the processes it starts, to one CPU, so that
    the kernels run where the operations run. Returns the CPU, or None
    where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
