"""Adaptive integration of dy/dt = f(t, y): explicit Dormand-Prince 5(4),
handing over to a stiff variable-order NDF/BDF when the Jacobian is given.

:func:`integrate` is the one entry point.  Both integrators share its
boundary checks, the error norm (the RMS of err / (atol + rtol |y|), per
part when y is a state followed by its sensitivities) and the
:class:`IntegrationStats` of a run.

The explicit step is an embedded Dormand-Prince 5(4) pair: the 5th-order
solution propagates, the difference to the embedded 4th-order solution
drives the step size, and sample times are hit exactly by capping the
step.  The pair is first-same-as-last: the 7th stage is evaluated at the
accepted step's end point and reused as the next step's first stage, so
an accepted step costs six evaluations of f.  It needs no linear algebra,
which makes it the cheaper choice while accuracy, not stability, limits
the step: over a short window, or in a fast oscillating start.

With ``jac`` the pair runs until its steps are held at the edge of its
stability region by the stiffest mode of J at the start (its spectral
radius, by power iteration), and a numerical differentiation formula
(NDF) of order 1-5 in backward-difference form, after Shampine &
Reichelt, "The MATLAB ODE Suite", SIAM J. Sci. Comput. 18 (1997), takes
over (LSODA switches from Adams to BDF in the same way).  Where the NDF's
own steps then stay below half the pair's bound, as when a slowly damped
oscillation must be resolved, it hands the rest of the run back.

The NDF starts from what the pair computed, as LSODA keeps the method
history when it switches (Petzold, SIAM J. Sci. Stat. Comput. 4, 1983):
its backward differences are those, on the pair's last accepted step h,
of the polynomial through the pair's last _MAX_ORDER + 1 accepted points,
and it starts at the order whose error estimate from them allows the
longest step.  h shrinks when that step is shorter and never grows, so
the hand-over evaluates no f, probes for no initial step and does not
climb from order 1.

An NDF step is a prediction from the backward differences, then
simplified Newton iterations with W = I - c J, c = h/alpha_k.  numpy has
no LU factorisation, so W is inverted with ``np.linalg.inv`` and the
inverse kept across Newton iterations and steps: as in CVODE (Hindmarsh
et al., ACM TOMS 31, 2005) it is renewed only when c has moved more than
30% from the c_W it was built with, or J is renewed, which happens only
when a Newton iteration fails to converge; in between, each correction is
scaled by 2 / (1 + c/c_W).  Samples are interpolated from the
backward-difference polynomial of the step that passed them; the
interpolant is affine in the stored values, so a linear functional that
f conserves (such as a trace) holds at every sample.  For a state
followed by ``parts - 1`` sensitivities, the corrector applies the
state's W to every part (the block-diagonal simultaneous corrector of
CVODES, Hindmarsh et al., ACM TOMS 31, 2005), so ``jac`` receives only
the state part.
"""

from __future__ import annotations

import collections
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
_DP5_ORDER = 4
_SNAP = 1e-12
# the pair's stability region reaches about -3.3 on the real axis
_STIFF_H_LAMBDA = 3.25
# DOPRI5's counts: steps at the bound that hand over, and steps below it
# that restart the count
_STIFF_STEPS = 15
_CALM_STEPS = 6
# the NDF hands the rest of a run back to the pair when its mean step over
# this many accepted steps stays below half the pair's stability bound.
# An NDF step costs 2-3 evaluations of f and each change of h an inversion
# of W; a pair's step 6 evaluations.  Measured: on the dark-state transients
# the NDF's first 100 steps average h |lambda|max = 1.9-5, and it takes
# 1/5-1/10 of the pair's evaluations; on weak-drive evolves detuned by 4-20
# MHz, where a slowly damped oscillation must be resolved, they average
# 1.1-1.3, and the NDF took 1-2.7 times the pair's wall time
_HANDBACK_STEPS = 100

# NDF of orders 1..5: kappa from Shampine & Reichelt's Table 1 (order 5
# is the plain BDF), gamma_k = sum_{j<=k} 1/j, alpha_k = (1 - kappa_k)
# gamma_k, and the local error is _NDF_ERROR[k] times the (k+1)-th
# backward difference
_MAX_ORDER = 5
_KAPPA = np.array([0.0, -0.1850, -1 / 9, -0.0823, -0.0415, 0.0])
_GAMMA = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))))
_NDF_ALPHA = (1.0 - _KAPPA) * _GAMMA
_NDF_ERROR = _KAPPA * _GAMMA + 1.0 / np.arange(1, _MAX_ORDER + 2)
_NEWTON_MAXITER = 4
_NDF_MAX_FACTOR = 10.0
# W^-1 is kept while c = h / alpha_k stays within this fraction of the c it
# was built with (CVODE's dgmax)
_W_KEEP = 0.3
# a growth of h below this is not taken while the order stays (CVODE's
# threshold).  W^-1 is kept within 30% of its c, so only a growth of
# 1.3-1.5 would cost an inversion; but every change of h also restarts
# the count of equal steps before the next order change.  Measured on the
# 35 us bubble transients: without it nmax 2/4/6 take 20/23/25 inversions
# instead of 18/16/20, for 2-4% fewer evaluations of f
_NDF_KEEP_GROWTH = 1.5


class IntegrationStats(NamedTuple):
    """The work of one :func:`integrate` run; the Jacobian evaluations and
    inversions of W are 0 without ``jac``."""

    nfev: int
    accepted_steps: int
    rejected_steps: int
    jacobian_evals: int = 0
    inversions: int = 0


def _norm(scaled, parts):
    """Largest of the parts' RMS norms of an already scaled vector; NaN if
    any part is NaN."""
    size = scaled.size // parts
    if parts == 1:
        return math.sqrt(np.vdot(scaled, scaled).real / size)
    worst = 0.0
    for part in scaled.reshape(parts, size):
        square = np.vdot(part, part).real
        if square > worst or square != square:   # a NaN stays
            worst = square
    return math.sqrt(worst / size)


def _error_norm(err, y_old, y_new, rtol, atol, parts):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return _norm(err / scale, parts)


def _step_factor(err, order):
    """err ** (-1 / (order + 1)), the step factor an error estimate allows
    at ``order``; inf at err = 0.  It takes numpy's power: with numpy's
    SIMD loops, Python's ``**`` rounds some values to a different last
    bit, and the step sequence follows every bit of the factor."""
    return math.inf if err == 0.0 else float(np.power(err, -1.0 / (order + 1)))


def _initial_step(f, t0, y0, f0, rtol, atol):
    # Hairer-style h0 guess for the pair from the size of y and dy/dt
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
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (_DP5_ORDER + 1))
    return min(100 * h0, h1)


def integrate(f, t0: float, y0: np.ndarray, t_samples, rtol: float = 1e-8,
              atol: float = 1e-10, parts: int = 1,
              jac=None) -> tuple[np.ndarray, IntegrationStats]:
    """Integrate dy/dt = f(t, y); return the state at each sample time and
    the run's :class:`IntegrationStats`.

    ``t_samples`` must be strictly increasing and >= t0; a sample exactly at
    t0 returns the initial state.  ``rtol`` and ``atol`` must be finite
    and > 0, and every time finite (ValueError).  Raises
    IntegrationError on a non-finite step or step-size underflow.

    The error of a step is the RMS of err / (atol + rtol |y|).  When y is
    ``parts`` equal parts, such as a state followed by its sensitivities,
    it is the largest of the parts' RMS norms (as in CVODES), so adding
    parts never loosens the control of the first; a NaN in any part is a
    non-finite step.

    Without ``jac`` the explicit Dormand-Prince pair runs; it hits every
    sample exactly and evaluates f at most once per distinct (t, y).
    ``jac(t, y_state)``, the Jacobian of the first part's f with respect
    to that part, lets the run hand over to the stiff NDF/BDF once the
    pair's steps are held by stability; the NDF starts from the pair's
    last accepted points and step, at no evaluation of f, and interpolates
    its samples (see the module docstring).
    """
    rtol = require_positive("rtol", rtol)
    atol = require_positive("atol", atol)
    t_samples = np.asarray(t_samples, dtype=float)
    if t_samples.ndim != 1 or t_samples.size == 0:
        raise ValueError("need at least one sample time")
    if not (math.isfinite(t0) and np.isfinite(t_samples).all()):
        raise ValueError("t0 and the sample times must be finite")
    if np.any(np.diff(t_samples) <= 0) or t_samples[0] < t0:
        raise ValueError("sample times must be strictly increasing and >= t0")

    dtype = np.result_type(np.asarray(y0).dtype, np.float64)
    y = np.array(y0, dtype=dtype)
    out = np.empty((t_samples.size, y.size), dtype=dtype)
    isample = _record_due(float(t0), y, t_samples, 0, out)
    if isample == t_samples.size:
        return out, IntegrationStats(0, 0, 0)
    radius = None
    if jac is not None:
        radius = _spectral_radius(jac(t0, y[:y.size // parts]))
    stats, points, h, isample = _dopri5(f, float(t0), y, t_samples, isample,
                                        out, rtol, atol, parts, radius)
    stats = stats._replace(jacobian_evals=int(jac is not None))
    if isample < t_samples.size:      # stability holds the pair's step
        stiff, t, y, isample = _ndf(f, jac, points, h, t_samples, isample, out,
                                    rtol, atol, parts, radius)
        stats = IntegrationStats(*(a + b for a, b in zip(stats, stiff)))
        if isample < t_samples.size:  # the NDF's steps stayed short
            rest, _, _, isample = _dopri5(f, t, y, t_samples, isample, out,
                                          rtol, atol, parts, None)
            stats = IntegrationStats(*(a + b for a, b in zip(stats, rest)))
    return out, stats


def _due(t_sample, t):
    """Whether integration to t has reached t_sample."""
    return t_sample - t <= _SNAP * max(1.0, abs(t_sample))


def _record_due(t, y, t_samples, isample, out):
    """Record y at every sample from ``isample`` on that t has reached;
    return the index of the next sample."""
    while isample < t_samples.size and _due(t_samples[isample], t):
        out[isample] = y
        isample += 1
    return isample


def _dopri5(f, t, y, t_samples, isample, out, rtol, atol, parts, radius):
    """Dormand-Prince steps to the last sample, or, given the spectral
    ``radius`` of the Jacobian, until stability holds the step; returns
    (stats, points, h, index of the next sample): ``points`` holds the last
    _MAX_ORDER + 1 accepted (t, y), the start included, the last of them
    where the run stopped, and h is the last accepted step.

    The step is held when h radius passes _STIFF_H_LAMBDA, the pair's
    stability bound on the negative axis.  _STIFF_STEPS such accepted
    steps, with no _CALM_STEPS in a row below the bound between them, end
    the run: the counts of Hairer & Wanner's stiffness test in DOPRI5
    (Solving ODEs II, IV.2).
    """
    n = t_samples.size
    k = np.empty((7, y.size), dtype=y.dtype)
    accepted = rejected = 0
    stiff_steps = calm_steps = 0
    points = collections.deque([(t, y)], maxlen=_MAX_ORDER + 1)
    k[0] = f(t, y)
    h = min(_initial_step(f, t, y, k[0], rtol, atol), t_samples[-1] - t)
    exponent = 1.0 / (_DP5_ORDER + 1)

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
            points.append((t, y))
            isample = _record_due(t, y, t_samples, isample, out)
            k[0] = k[6]  # row copy: a rejected next step must not overwrite it
            factor = _MAX_FACTOR if err == 0 else min(
                _MAX_FACTOR, _SAFETY * err ** -exponent)
            h_taken, h = h_try, h_try * factor
            if radius is not None:
                if h_try * radius > _STIFF_H_LAMBDA:
                    stiff_steps, calm_steps = stiff_steps + 1, 0
                    if stiff_steps == _STIFF_STEPS:
                        break
                else:
                    calm_steps += 1
                    if calm_steps == _CALM_STEPS:
                        stiff_steps = 0
        else:
            rejected += 1
            h = h_try * max(_MIN_FACTOR, _SAFETY * err ** -exponent)

    # the first stage and the initial-step probe, then six stages per step
    stats = IntegrationStats(2 + 6 * (accepted + rejected), accepted, rejected)
    return stats, points, h_taken, isample


def _spectral_radius(jac_matrix, iterations=40):
    """max |lambda| of a matrix by power iteration: the geometric mean of
    the growth per product, which converges for a complex dominant pair
    too.  The start vector is random (with a fixed seed), as a structured
    one can miss the dominant mode."""
    v = np.random.default_rng(0).standard_normal(jac_matrix.shape[0])
    log_growth = 0.0
    for _ in range(iterations):
        w = jac_matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0 or not math.isfinite(norm):
            return norm
        log_growth += math.log(norm / np.linalg.norm(v))
        v = w / norm
    return math.exp(log_growth / iterations)


def _interpolant_weights(order, x):
    """w(x)[i, j] = prod_{m=1..i} (m - 1 - x j) / m: the weight of the i-th
    backward difference in the interpolant at j steps of x h back."""
    j = np.arange(order + 1)
    w = np.ones((order + 1, order + 1))
    for i in range(1, order + 1):
        w[i] = w[i - 1] * (i - 1 - x * j) / i
    return w


# w(1) of every order, which takes interpolant values back to differences
_UNIT_WEIGHTS = [_interpolant_weights(k, 1.0) for k in range(_MAX_ORDER + 1)]


def _rescaled(diffs, order, factor):
    """Backward differences of the same interpolant on a step ``factor``
    times as long: (w(factor) w(1))^T diffs, with w of
    :func:`_interpolant_weights`."""
    return ((_interpolant_weights(order, factor) @ _UNIT_WEIGHTS[order]).T
            @ diffs[:order + 1])


def _differences(points, h):
    """Backward differences 0..m-1 at the last of the m ``points`` (t, y),
    on steps of h, of the polynomial through them: the Lagrange weights
    at t - j h, then differences of the weights, then one product."""
    t = points[-1][0]
    m = len(points)
    s = np.array([(ti - t) / h for ti, _ in points])
    x = -np.arange(m)[:, None]
    w = np.ones((m, m))      # w[j, i] = l_i(x_j)
    for k in range(m):
        other = np.arange(m) != k
        w[:, other] *= (x - s[k]) / (s[other] - s[k])
    for j in range(1, m):    # row j becomes the weights of the j-th difference
        w[j:] = w[j - 1:-1] - w[j:]
    return w @ np.array([y for _, y in points])


def _warm_start(points, h, rtol, atol, parts):
    """(diffs, order, h) for the NDF's first step from the pair's last
    accepted ``points`` and step h.

    diffs[0] = y, diffs[j] = the j-th backward difference on steps of h of
    the polynomial through the points; the rows beyond hold the next
    differences for the order choice.  The order is the q = 1..m - 2 whose
    estimate |_NDF_ERROR[q] diffs[q + 1]| allows the longest step; h
    shrinks to _SAFETY times that step if it is shorter, and never grows.
    The m points must be at least three: :func:`_dopri5` hands over after
    _STIFF_STEPS accepted steps, so it always holds _MAX_ORDER + 1.
    """
    m = len(points)
    y = points[-1][1]
    diffs = np.zeros((_MAX_ORDER + 3, y.size), dtype=y.dtype)
    diffs[:m] = _differences(points, h)
    factors = {q: _step_factor(_error_norm(_NDF_ERROR[q] * diffs[q + 1], y, y,
                                           rtol, atol, parts), q)
               for q in range(1, m - 1)}
    order = max(factors, key=factors.get)
    if factors[order] < 1.0:
        h *= _SAFETY * factors[order]
        diffs[:m] = _differences(points, h)
    return diffs, order, h


def _ndf(f, jac, points, h, t_samples, isample, out, rtol, atol, parts,
         radius):
    """NDF steps from the last of the pair's accepted ``points`` (t, y), on
    at most its last step h (:func:`_warm_start`), to the last sample, or
    until _HANDBACK_STEPS accepted steps average less than half the pair's
    stability bound _STIFF_H_LAMBDA / radius; returns (stats, t, y, index
    of the next sample)."""
    t, y = points[-1]
    n, size = t_samples.size, y.size
    nstate = size // parts
    t_end = t_samples[-1]
    eye = np.eye(nstate, dtype=y.dtype)
    newton_tol = max(10 * np.finfo(float).eps / rtol, min(0.03, rtol ** 0.5))

    diffs, order, h = _warm_start(points, h, rtol, atol, parts)
    equal_steps = nfev = 0
    J = jac(t, y[:nstate])
    accepted = rejected = 0
    jacobian_evals, inversions = 1, 0
    w_inv, c_w = None, 0.0
    window_start, window_steps = t, 0

    def change_step(factor):
        nonlocal h, equal_steps
        diffs[:order + 1] = _rescaled(diffs, order, factor)
        h *= factor
        equal_steps = 0

    while isample < n:
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t:g}")
        if t + h >= t_end - _SNAP * max(1.0, abs(t_end)):
            if t + h != t_end:
                change_step((t_end - t) / h)
            t_new = t_end
        else:
            t_new = t + h
        y_pred = diffs[:order + 1].sum(axis=0)
        scale = atol + rtol * np.abs(y_pred)
        psi = (_GAMMA[1:order + 1] @ diffs[1:order + 1]) / _NDF_ALPHA[order]
        c = h / _NDF_ALPHA[order]

        fresh_jac = False
        while True:
            if w_inv is None or abs(c / c_w - 1.0) > _W_KEEP:
                w_inv, c_w = np.linalg.inv(eye - c * J), c
                inversions += 1
            converged, iters, y_new, d = _correct(
                f, t_new, y_pred, psi, c, w_inv, 2.0 / (1.0 + c / c_w), scale,
                parts, newton_tol)
            nfev += iters
            if converged or fresh_jac:
                break
            J = jac(t_new, y_pred[:nstate])
            jacobian_evals += 1
            fresh_jac, w_inv = True, None
        if not converged:
            rejected += 1
            change_step(0.5)
            continue

        safety = _SAFETY * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + iters)
        err = _error_norm(_NDF_ERROR[order] * d, y, y_new, rtol, atol, parts)
        if not math.isfinite(err):
            raise IntegrationError(f"non-finite step from t={t:g}")
        if err > 1.0:
            rejected += 1
            change_step(max(_MIN_FACTOR, safety * err ** (-1.0 / (order + 1))))
            continue

        accepted += 1
        equal_steps += 1
        t, y = t_new, y_new
        diffs[order + 2] = d - diffs[order + 1]
        diffs[order + 1] = d
        # diffs[i] += diffs[i + 1] from i = order down to 0: one running sum
        # (np.cumsum's) over the rows in reverse, added in the loop's order
        upward = diffs[order + 1::-1]
        np.add.accumulate(upward, axis=0, out=upward)
        while isample < n and _due(t_samples[isample], t):
            ts = t_samples[isample]
            if t - ts <= _SNAP * max(1.0, abs(ts)):
                out[isample] = y
            else:
                s = (ts - t) / h + np.arange(order)
                out[isample] = y + np.cumprod(s / np.arange(1, order + 1)) \
                    @ diffs[1:order + 1]
            isample += 1
        window_steps += 1
        if window_steps == _HANDBACK_STEPS:
            if (t - window_start) * radius < _HANDBACK_STEPS * _STIFF_H_LAMBDA / 2:
                break
            window_start, window_steps = t, 0

        if equal_steps < order + 1:
            continue
        # order k-1, k, k+1: the step factor each allows (0 for an order
        # out of range); take the largest, the lowest order on a tie
        factors = [
            _step_factor(_error_norm(_NDF_ERROR[order - 1] * diffs[order], y, y,
                                     rtol, atol, parts), order - 1)
            if order > 1 else 0.0,
            _step_factor(err, order),
            _step_factor(_error_norm(_NDF_ERROR[order + 1] * diffs[order + 2], y,
                                     y, rtol, atol, parts), order + 1)
            if order < _MAX_ORDER else 0.0]
        best = max(range(3), key=factors.__getitem__)
        factor = min(_NDF_MAX_FACTOR, safety * factors[best])
        if best == 1 and 1.0 <= factor < _NDF_KEEP_GROWTH:
            equal_steps = 0     # keep h, the order and the inverse of W
            continue
        order += best - 1
        change_step(factor)

    stats = IntegrationStats(nfev, accepted, rejected, jacobian_evals, inversions)
    return stats, t, y, isample


def _correct(f, t_new, y_pred, psi, c, w_inv, gain, scale, parts, tol):
    """Simplified Newton iterations for y_new = y_pred + d with
    d - c f(t_new, y_new) + psi = 0 and the fixed inverse of W.

    ``w_inv`` may be the inverse of I - c_W J for an earlier c_W; each
    correction is then scaled by ``gain`` = 2 / (1 + c / c_W), as in CVODE,
    which makes up for most of the stale c.  A stale W slows convergence
    but does not move the fixed point.

    Returns (converged, iterations, y_new, d).  The iteration stops when
    the estimated remaining error, rate / (1 - rate) times the last
    correction's norm, is below ``tol``, and fails when the rate reaches 1
    or the remaining iterations cannot get below ``tol``.
    """
    d = 0.0
    y = y_pred
    last = None
    for k in range(_NEWTON_MAXITER):
        rhs = c * f(t_new, y) - psi - d
        dy = gain * (rhs.reshape(parts, -1) @ w_inv.T).reshape(-1)
        norm = _norm(dy / scale, parts)
        if not math.isfinite(norm):
            raise IntegrationError(f"non-finite step to t={t_new:g}")
        rate = None if last is None else norm / last
        if rate is not None and (
                rate >= 1.0
                or rate ** (_NEWTON_MAXITER - k) / (1.0 - rate) * norm > tol):
            return False, k + 1, y, d
        d = d + dy
        y = y_pred + d
        if norm == 0.0 or (rate is not None and rate / (1.0 - rate) * norm < tol):
            return True, k + 1, y, d
        last = norm
    return False, _NEWTON_MAXITER, y, d
