"""Nonlinear least-squares extraction of model parameters.

Fits any of the three forward models (closed-form linear spectrum,
mean-field nonlinear spectrum, bubble-model transient) to measured data by
minimizing sum_i w_i (y_i - model(x_i; theta))^2 over a chosen subset of
the physical parameters.  The minimizer is a Levenberg-Marquardt trust
region.  Every model's Jacobian comes from its own evaluation, with no
further model run: the bubble transient integrates the forward
sensitivity of every free parameter next to the state, in the run that
gives the residual; the mean-field curve moves its solved root by
implicit differentiation of the steady-state cubic; the linear spectrum
is the same chain with no root to move.  95% confidence intervals come
from the residual-variance-scaled inverse of J^T J.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import bubble, linear, meanfield
from .errors import IntegrationError, SingularParameterError, SolverError
from .ode import IntegrationStats
from .params import (PhysicalParams, get_path, require_float_paths,
                     require_positive, set_paths)

#: default box constraints by field name; rates that sit in denominators
#: get a small positive floor
_DEFAULT_BOUNDS = {
    "gamma_c": (1e-9, np.inf),
    "gamma_e": (0.0, np.inf),
    "gamma_r": (1e-9, np.inf),
    "gamma_s": (0.0, np.inf),
    "xi": (0.0, np.inf),
    "cooperativity": (0.0, np.inf),
    "omega_cf": (0.0, np.inf),
    "alpha": (0.0, np.inf),
    "cloud_volume": (1e-12, np.inf),
}

_log = logging.getLogger(__name__)

#: the integrator counts of ``evolve(...).metadata["solver"]`` that a fit
#: sums over the model runs that report them
_SOLVER_COUNTS = IntegrationStats._fields

#: the keys ``model_options`` may hold, passed on to the bubble transient
_MODEL_OPTIONS = ("nmax", "rtol", "atol")

#: :func:`fit` stops after this many iterations, or where the largest
#: component of the weighted gradient J^T r falls below _GTOL
_MAX_ITER = 100
_GTOL = 1e-12

#: :func:`poisson_weights` weighs a count below this as this count, so a
#: zero count gets a finite weight
_POISSON_FLOOR = 1e-6


def default_bounds(path: str) -> tuple[float, float]:
    name = path.partition(".")[2]
    return _DEFAULT_BOUNDS.get(name, (-np.inf, np.inf))


def poisson_weights(y) -> np.ndarray:
    """w = 1 / max(y, 1e-6), for photon-counting data.

    A count is never negative: a y below 0 (or NaN) raises ValueError
    naming the first such row, counted from 0, instead of weighing it as
    the floor's million.
    """
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~(y >= 0.0))
    if bad.size:
        raise ValueError(f"poisson weighting needs counts >= 0; row {bad[0]} "
                         f"has y = {y[bad[0]]:g}")
    return 1.0 / np.maximum(y, _POISSON_FLOOR)


def _check_model_options(options: dict) -> None:
    """ValueError unless every key of ``options`` is a model option and
    its value one the bubble transient takes: ``nmax`` an integer >= 1,
    ``rtol`` and ``atol`` finite and > 0."""
    unknown = sorted(set(options) - set(_MODEL_OPTIONS))
    if unknown:
        raise ValueError(f"unknown model option(s) {unknown}; "
                         f"expected {', '.join(_MODEL_OPTIONS)}")
    if "nmax" in options:
        bubble._check_nmax(options["nmax"])
    for key in ("rtol", "atol"):
        if key in options:
            require_positive(key, options[key])


def _run_linear(problem: FitProblem, params: PhysicalParams):
    return (np.asarray(linear.transmission_linear(params, problem.x)),
            lambda: meanfield.transmission_jacobian(params, problem.x, problem.free),
            None)


def _run_meanfield(problem: FitProblem, params: PhysicalParams):
    curve = meanfield.transmission_curve(params, problem.x)
    return curve.transmission, lambda: curve.jacobian(problem.free), None


def _run_transient(problem: FitProblem, params: PhysicalParams):
    opts = problem.model_options
    series = bubble.evolve(params, t_end=float(problem.x[-1]),
                           nmax=opts.get("nmax", bubble.DEFAULT_NMAX),
                           rtol=opts.get("rtol", 1e-6), atol=opts.get("atol", 1e-9),
                           sample_times=problem.x, sensitivity=problem.free)
    return (series.transmission, lambda: series.dT_dtheta,
            series.metadata["solver"])


#: every forward model by name: (run, where its Jacobian comes from).
#: ``run(problem, params)`` returns (curve, jacobian, solver): ``jacobian()``
#: gives the curve's Jacobian in the free parameters from that run alone,
#: and ``solver`` holds the run's integrator counts, or None
MODELS = {"linear_eit": (_run_linear, "closed-form"),
          "meanfield": (_run_meanfield, "implicit-differentiation"),
          "bubble_transient": (_run_transient, "forward-sensitivity")}


@dataclass
class FitProblem:
    """Data, model selector and free-parameter description for one fit.

    The box constraints ``lower``/``upper`` come from :func:`default_bounds`
    and must contain the initial guess, one finite value per free
    parameter; the free paths must be a sequence of distinct float
    parameters (:data:`rydcav.params.FLOAT_PATHS`) with a value
    (:func:`rydcav.params.require_float_paths`: ValueError, or KeyError for
    an unknown path), and the weights positive and finite (ValueError
    naming the first bad row, counted from 0).  ``drive.delta_p`` is the
    data's axis of the linear and mean-field spectra, and free only for the
    bubble transient, whose axis is time.
    ``model_options`` passes ``nmax``, ``rtol`` and ``atol`` to the bubble
    transient and holds no other key; its values are
    checked here, as the transient would check them.  The mean-field
    curve is solved by continuation in data order, so its ``x`` must be
    strictly increasing or strictly decreasing (a down-sweep).  The problem
    keeps what its last model run handed back (:data:`MODELS`): the call
    that gives the run's Jacobian, and the integrator counts
    (``metadata["solver"]``) of a bubble transient, which is run with the
    forward sensitivities of every free parameter.
    """

    x: np.ndarray
    y: np.ndarray
    model: str
    base_params: PhysicalParams
    free: tuple[str, ...]
    weights: np.ndarray | None = None
    initial: np.ndarray | None = None
    model_options: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.model not in MODELS:
            raise ValueError(f"unknown model '{self.model}'")
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("x and y must be finite")
        self.free = require_float_paths(self.base_params, self.free,
                                        f"the {self.model} model")
        if not self.free:
            raise ValueError("at least one free parameter required")
        if "drive.delta_p" in self.free and self.model != "bubble_transient":
            raise ValueError(f"'drive.delta_p' is the data's axis of the "
                             f"{self.model} model, not a free parameter")
        if self.x.size < 2 * len(self.free):
            raise ValueError("need at least 2 data points per free parameter")
        if self.model == "meanfield":
            steps = np.sign(np.diff(self.x))
            bad = np.flatnonzero((steps == 0) | (steps != steps[0]))
            if bad.size:
                k = int(bad[0]) + 1
                raise ValueError(
                    f"mean-field data must be strictly monotonic in x (the "
                    f"continuation follows the data order): row {k} "
                    f"(x = {self.x[k]:g}) breaks the order of the rows before it")
        if self.weights is not None:
            w = self.weights = np.asarray(self.weights, dtype=float)
            what = "weights must be positive, finite and match the data:"
            if w.shape != self.y.shape:
                raise ValueError(f"{what} {w.size} weights for {self.y.size} rows")
            bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
            if bad.size:
                raise ValueError(f"{what} row {bad[0]} has weight {w[bad[0]]:g}")
        if self.initial is None:
            self.initial = np.array([float(get_path(self.base_params, p))
                                     for p in self.free])
        else:
            self.initial = np.asarray(self.initial, dtype=float)
            if (self.initial.shape != (len(self.free),)
                    or not np.isfinite(self.initial).all()):
                raise ValueError(f"initial must hold one finite value per free "
                                 f"parameter ({len(self.free)}), got "
                                 f"{self.initial.tolist()}")
        _check_model_options(self.model_options)
        self.lower, self.upper = np.array([default_bounds(p) for p in self.free]).T
        if np.any(self.initial < self.lower) or np.any(self.initial > self.upper):
            raise ValueError("bounds must contain the initial guess")
        # (theta, jacobian, solver counts) of the last model run
        self._last_run = (None, None, None)

    @property
    def jacobian_source(self) -> str:
        """How the model's evaluation yields its Jacobian: "closed-form"
        (linear spectrum), "implicit-differentiation" (mean-field curve)
        or "forward-sensitivity" (bubble transient)."""
        return MODELS[self.model][1]

    def params_at(self, theta) -> PhysicalParams:
        return set_paths(self.base_params, dict(zip(self.free, theta)))

    def model_curve(self, theta) -> np.ndarray:
        curve, jacobian, solver = MODELS[self.model][0](self, self.params_at(theta))
        self._last_run = (np.array(theta, dtype=float), jacobian, solver)
        return curve

    def exact_jacobian(self, theta) -> np.ndarray:
        """Model Jacobian at theta from the evaluation at theta.

        Calls the Jacobian the last :meth:`model_curve` call kept when it
        ran at theta, so a residual and its Jacobian cost one model run;
        runs the model otherwise.  The bubble transient's Jacobian is the
        one its run integrated; the closed-form models' is computed at the
        call: the mean field's by the curve its run solved along the data's
        detunings, on that curve's grid of constants and populations
        (:meth:`rydcav.meanfield.MeanFieldCurve.jacobian`), the linear
        spectrum's from the parameters
        (:func:`rydcav.meanfield.transmission_jacobian`).
        """
        if not np.array_equal(self._last_run[0], theta):
            self.model_curve(theta)
        return self._last_run[1]()


@dataclass
class FitResult:
    names: tuple[str, ...]
    best_fit: np.ndarray
    residual_norm: float
    ci95: np.ndarray
    covariance: np.ndarray
    converged: bool
    iterations: int
    message: str = ""
    objective_history: list[float] = field(default_factory=list)
    model_evals: int = 0
    #: "closed-form", "implicit-differentiation" or "forward-sensitivity"
    jacobian_source: str = ""
    #: integrator counts summed over a bubble-transient fit's model runs
    solver: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "best_fit": {n: float(v) for n, v in zip(self.names, self.best_fit)},
            "ci95": {n: (float(v) if np.isfinite(v) else None)
                     for n, v in zip(self.names, self.ci95)},
            "residual_norm": float(self.residual_norm),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "message": self.message,
            "model_evals": int(self.model_evals),
            "jacobian_source": self.jacobian_source,
        }
        if self.solver is not None:
            out["solver"] = dict(self.solver)
        return out


def jacobian(fun, theta, rel_step: float) -> np.ndarray:
    """Central-difference Jacobian of fun(theta) -> vector.

    The step adapts to each parameter's magnitude,
    h_j = rel_step * max(|theta_j|, 1e-2).  :func:`fit` does not use it;
    it is a reference to check the models' own Jacobians against.
    """
    theta = np.asarray(theta, dtype=float)
    h = rel_step * np.maximum(np.abs(theta), 1e-2)
    cols = []
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h[j]
        tm[j] -= h[j]
        cols.append((fun(tp) - fun(tm)) / (2.0 * h[j]))
    return np.column_stack(cols)


def _covariance(jac_w, ssr, dof):
    """(covariance, ci95) from the weighted Jacobian at the solution.

    Rank-deficient J^T J marks the affected parameters' intervals as NaN
    instead of inventing a number.
    """
    p = jac_w.shape[1]
    a = jac_w.T @ jac_w
    s2 = ssr / dof if dof > 0 else np.nan
    evals, evecs = np.linalg.eigh(a)
    tol = max(evals.max(), 0.0) * 1e-12 + 1e-300
    keep = evals > tol
    inv = np.zeros_like(evals)
    inv[keep] = 1.0 / evals[keep]
    cov = (evecs * inv) @ evecs.T * s2
    cov = 0.5 * (cov + cov.T)
    ci = 1.96 * np.sqrt(np.maximum(np.diag(cov), 0.0))
    if not keep.all():
        affected = np.any(np.abs(evecs[:, ~keep]) > 1e-8, axis=1)
        ci = np.where(affected, np.nan, ci)
    if dof <= 0:
        ci = np.full(p, np.nan)
    return cov, ci


def fit(problem: FitProblem, ftol: float = 1e-10,
        xtol: float = 1e-8) -> FitResult:
    """Levenberg-Marquardt trust-region minimization of the fit problem.

    The damping parameter follows Nielsen's gain-ratio update; trial steps
    are projected onto the parameter box.  The objective over accepted
    steps is recorded in ``objective_history`` (monotonically decreasing by
    construction).  The fit stops when a step is below ``xtol``, when the
    objective of an accepted or a rejected trial changes by less than
    ``ftol`` relative, or when the largest component of the gradient is
    below 1e-12; it stops unconverged after 100 iterations.  Each model
    run gives one residual; the Jacobian at an accepted point comes from
    the run that gave its residual (:meth:`FitProblem.exact_jacobian`),
    with no further run, so ``model_evals`` counts the residuals and a
    rejected trial costs one run.  ``jacobian_source`` names where the
    Jacobian came from.  ``solver`` sums the integrator counts of the runs
    that report them, a bubble transient's (``nfev``, ``accepted_steps``,
    ``rejected_steps``, ``jacobian_evals``, ``inversions``); it stays None
    for the closed-form models.  Each fit logs one DEBUG record on
    ``rydcav.fitting``.  ``ftol`` and ``xtol`` must be finite and >= 0, or
    it is a ValueError before any model run.
    """
    ftol = require_positive("ftol", ftol, allow_zero=True)
    xtol = require_positive("xtol", xtol, allow_zero=True)
    w = problem.weights if problem.weights is not None else np.ones_like(problem.y)
    sqrt_w = np.sqrt(w)
    lo, hi = problem.lower, problem.upper
    source = problem.jacobian_source
    evals = 0
    solver = {}

    def model(theta):
        nonlocal evals
        evals += 1
        curve = problem.model_curve(theta)
        counts = problem._last_run[2]
        if counts is not None:
            for key in _SOLVER_COUNTS:
                solver[key] = solver.get(key, 0) + counts[key]
        return curve

    def residuals(theta):
        return sqrt_w * (problem.y - model(theta))

    def weighted_jacobian(theta):
        # always at the point of the last residual, so no model run
        return -problem.exact_jacobian(theta) * sqrt_w[:, None]

    theta = np.clip(problem.initial, lo, hi).astype(float)
    r = residuals(theta)
    ssr = float(r @ r)
    if not np.isfinite(ssr):
        raise ValueError("objective is not finite at the initial guess")
    history = [ssr]
    dof = problem.y.size - theta.size

    jac_r = weighted_jacobian(theta)
    a = jac_r.T @ jac_r
    g = jac_r.T @ r
    mu = 1e-3 * max(float(np.max(np.diag(a))), 1e-300)
    nu = 2.0
    converged = False
    message = "max_iter reached"
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        try:
            delta = np.linalg.solve(a + mu * np.eye(theta.size), -g)
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        trial = np.clip(theta + delta, lo, hi)
        step = trial - theta
        if np.linalg.norm(step) < xtol * (np.linalg.norm(theta) + xtol):
            converged, message = True, "step tolerance reached"
            break
        r_trial = residuals(trial)
        ssr_trial = float(r_trial @ r_trial)
        predicted = float(step @ (mu * step - g))
        gain = (ssr - ssr_trial) / predicted if predicted > 0 else -1.0
        rel_change = abs(ssr - ssr_trial) / max(ssr, 1e-300)
        if ssr_trial < ssr:
            theta, r, ssr = trial, r_trial, ssr_trial
            history.append(ssr)
            jac_r = weighted_jacobian(theta)
            if rel_change < ftol:
                converged, message = True, "objective tolerance reached"
                break
            a = jac_r.T @ jac_r
            g = jac_r.T @ r
            if float(np.max(np.abs(g))) < _GTOL:
                converged, message = True, "gradient tolerance reached"
                break
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        elif rel_change < ftol:
            # a rejected trial at the noise floor: no step can do better
            converged, message = True, "objective tolerance reached"
            break
        else:
            mu *= nu
            nu *= 2.0
            if mu > 1e300:
                message = "damping overflow"
                break

    cov, ci = _covariance(jac_r, ssr, dof)
    _log.debug("%s fit of %d parameter(s): %d iteration(s), %d model evaluations, "
               "%s, %s Jacobian", problem.model, theta.size, iterations, evals,
               message, source)
    return FitResult(
        names=problem.free,
        best_fit=theta,
        residual_norm=math.sqrt(ssr),
        ci95=ci,
        covariance=cov,
        converged=converged,
        iterations=iterations,
        message=message,
        objective_history=history,
        model_evals=evals,
        jacobian_source=source,
        solver=solver or None,
    )


@dataclass
class XiEstimate:
    n: int
    xi: float
    ci95: float
    converged: bool
    residual_norm: float


def fit_xi_series(entries, params_by_n, model_options: dict | None = None,
                  **fit_kwargs) -> list[XiEstimate]:
    """Independent single-parameter dark-state-rate fits, one per level.

    ``entries`` is a list of (n, TimeSeries); ``params_by_n`` maps each n to
    its parameter bundle.  Entries whose fit fails are flagged
    (converged=False, xi=NaN) without affecting the others; an unknown
    ``model_options`` key, a bad value of one or a bad ``ftol`` or
    ``xtol`` is a ValueError before any fit.
    """
    opts = dict(model_options or {})
    _check_model_options(opts)
    for name in ("ftol", "xtol"):
        if name in fit_kwargs:
            require_positive(name, fit_kwargs[name], allow_zero=True)

    def run(entry):
        n, series = entry
        try:
            prob = FitProblem(
                x=series.t, y=series.transmission, model="bubble_transient",
                base_params=params_by_n[n], free=("rydberg.xi",),
                model_options=opts,
            )
            res = fit(prob, **fit_kwargs)
            return XiEstimate(n, float(res.best_fit[0]), float(res.ci95[0]),
                              res.converged, res.residual_norm)
        except (SolverError, IntegrationError, SingularParameterError,
                ValueError):
            return XiEstimate(n, float("nan"), float("nan"), False,
                              float("nan"))

    return [run(entry) for entry in entries]
