"""Adaptive explicit Runge-Kutta integration (Dormand-Prince 5(4)).

A compact embedded-pair integrator for complex-valued ODE systems.  The
5th-order solution propagates; the difference to the embedded 4th-order
solution drives standard step-size control.  Sample times are hit exactly
by capping the step.  The pair is first-same-as-last: the 7th stage is
evaluated at the accepted step's end point, so it is reused as the next
step's first stage and an accepted step costs six evaluations of f.
Every run reports its work: evaluations of f, accepted and rejected steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError
from .params import require_positive

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # 1/5
_SNAP = 1e-12


class IntegrationStats(NamedTuple):
    """The work of one :func:`integrate` run."""

    nfev: int
    accepted: int
    rejected: int


def _error_norm(err, y_old, y_new, rtol, atol, parts):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    squares = np.abs(err / scale) ** 2
    return math.sqrt(squares.reshape(parts, -1).mean(axis=1).max())


def _initial_step(f, t0, y0, f0, rtol, atol):
    # Hairer-style h0 guess from the size of y and dy/dt
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = np.sqrt(np.mean(np.abs((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1)


def integrate(f, t0: float, y0: np.ndarray, t_samples, rtol: float = 1e-8,
              atol: float = 1e-10, sample_callback=None,
              parts: int = 1) -> tuple[np.ndarray, IntegrationStats]:
    """Integrate dy/dt = f(t, y); return the state at each sample time and
    the run's :class:`IntegrationStats`.

    ``t_samples`` must be strictly increasing and >= t0; a sample exactly at
    t0 returns the initial state.  ``sample_callback(t, y)`` is invoked as
    each sample is recorded and may raise to abort.  f is evaluated at most
    once per distinct (t, y): the last stage of an accepted step is the
    first stage of the next.  ``rtol`` must be finite and > 0, ``atol``
    finite and >= 0, and every time finite (ValueError).  Raises
    IntegrationError on a non-finite step or step-size underflow.

    The error of a step is the RMS of err / (atol + rtol |y|).  When y is
    ``parts`` equal parts, such as a state followed by its sensitivities,
    it is the largest of the parts' RMS norms (as in CVODES), so adding
    parts never loosens the control of the first.
    """
    rtol = require_positive("rtol", rtol)
    atol = require_positive("atol", atol, allow_zero=True)
    t_samples = np.asarray(t_samples, dtype=float)
    if t_samples.ndim != 1 or t_samples.size == 0:
        raise ValueError("need at least one sample time")
    if not (math.isfinite(t0) and np.isfinite(t_samples).all()):
        raise ValueError("t0 and the sample times must be finite")
    if np.any(np.diff(t_samples) <= 0) or t_samples[0] < t0:
        raise ValueError("sample times must be strictly increasing and >= t0")

    dtype = np.result_type(np.asarray(y0).dtype, np.float64)
    y = np.array(y0, dtype=dtype)
    t = float(t0)
    n = t_samples.size
    out = np.empty((n, y.size), dtype=dtype)
    k = np.empty((7, y.size), dtype=dtype)

    def record_due():
        nonlocal isample
        while isample < n and t_samples[isample] - t <= _SNAP * max(1.0, abs(t_samples[isample])):
            out[isample] = y
            if sample_callback is not None:
                sample_callback(t_samples[isample], y)
            isample += 1

    isample = 0
    accepted = rejected = 0
    record_due()
    if isample >= n:
        return out, IntegrationStats(0, 0, 0)

    k[0] = f(t, y)
    h = min(_initial_step(f, t, y, k[0], rtol, atol), t_samples[-1] - t)

    while isample < n:
        h_try = min(h, t_samples[isample] - t)
        if h_try < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t:g}")

        for i in range(1, 7):
            yi = y + h_try * (_A[i] @ k[:i])
            k[i] = f(t + _C[i] * h_try, yi)
        # _A[6] is the 5th-order weight row: the last stage's input is the
        # step's result, and k[6] = f(t + h, y_new)
        y_new = yi
        err = _error_norm(h_try * (_E @ k), y, y_new, rtol, atol, parts)
        if not math.isfinite(err):   # a NaN step would be retried forever
            raise IntegrationError(f"non-finite step from t={t:g}")

        if err <= 1.0:
            accepted += 1
            t += h_try
            y = y_new
            record_due()
            k[0] = k[6]  # row copy: a rejected next step must not overwrite it
            factor = _MAX_FACTOR if err == 0 else min(
                _MAX_FACTOR, _SAFETY * err ** -_ORDER_EXP)
            h = h_try * factor
        else:
            rejected += 1
            h = h_try * max(_MIN_FACTOR, _SAFETY * err ** -_ORDER_EXP)

    # the first stage and the initial-step probe, then six stages per step
    nfev = 2 + 6 * (accepted + rejected)
    return out, IntegrationStats(nfev, accepted, rejected)
