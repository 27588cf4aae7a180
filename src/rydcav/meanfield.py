"""Self-consistent mean-field steady state with Rydberg blockade.

The collective amplitudes (<a>, <b>, <c>) of cavity field, optical
coherence and Rydberg coherence obey, in steady state,

    D_c <a> = gN <b> + alpha,
    D_e <b> = gN <a> + (Omega/2) <c>,
    (D_r - kappa x) <c> = (Omega/2) <b>,      x = |<c>|^2,

with gN = g sqrt(N) = sqrt(2 gamma_e gamma_c C).  Eliminating <b> and <c>
closes the system into a scalar fixed-point problem F(x) = x, where F is
|<c>|^2 evaluated at the interaction-shifted detuning D_r - kappa x.  The
cavity transmission is T = gamma_c^2 |<a>|^2 / alpha^2, which reduces to
the linear formula for kappa = 0 or alpha -> 0.

Since F(x) = K^2 / |A + B x|^2 for complex constants A, B and real K, the
fixed points are the real roots of a cubic in x, at most three.  Every
solve runs on a grid of (delta_p, alpha) points at once, as arrays: the
constants of the chain, the cubic's coefficients, all its real roots in
closed form (Cardano or the trigonometric form, by the sign of the
discriminant, NaN-padded to three per point), one Newton polish of each,
and each root's residual and singular-denominator test.  So every
coexisting branch is found.  The one sequential step is the continuation
along the grid: each point takes the root nearest the x of the last point
solved, O(1) work per point, and reports how many fixed points coexist.
A single solve is a grid of one point.  A solve along an axis, probe
detuning or photon rate, gives one :class:`MeanFieldCurve`: the flagged
scan of :func:`scan_meanfield` and the raising fit model of
:func:`transmission_curve` are that curve.

The derivative of a curve with respect to the parameters reuses the solve:
the picked root x* of P(x) = |B|^2 x^3 + 2 Re(A B*) x^2 + |A|^2 x - K^2
moves by dx* = -dP/dtheta / dP/dx, and T follows by the chain rule at the
shifted detuning D_r - kappa x*.  At kappa = 0 and x = 0 the same chain is
the linear spectrum's derivative.  The chain's constants are differentiated
in closed form on the grid already built: all but kappa and V_b are linear
maps or products of single parameters, and those two follow by the chain
rule through the dressed two-photon shift.  On a rate axis delta_p is a
parameter and alpha = sqrt(gamma_c R) moves with gamma_c.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import interactions
from .errors import SingularParameterError, SolverError
from .linear import eit_factors
from .params import PhysicalParams, ScanSpec, require_float_paths

_DRX_FLOOR = 1e-300

#: a root is accepted when |F(x) - x| <= _RESIDUAL_TOL * max(1, x)
_RESIDUAL_TOL = 1e-10

_EPS = float(np.finfo(float).eps)
#: dP/dx at a root within this many ulps of the sum of its terms is 0
_FOLD_ULPS = 8.0

#: each axis of a curve: its header name, and how a message names a point
_AXES = {"delta_p": ("delta_p_mhz", "delta_p = {:g} MHz"),
         "rate": ("photon_rate_per_us", "photon rate = {:g} photons/us")}

_log = logging.getLogger(__name__)


def photon_rate_to_alpha(rate, gamma_c: float):
    """Feeding amplitude for a probe photon rate R (photons/us), or an array.

    The rate axis is normalized to the empty-cavity resonant output under
    this package's conventions, R = alpha^2 / gamma_c.  A negative or NaN
    rate raises ValueError.
    """
    rate = np.asarray(rate, dtype=float)
    if not (rate >= 0).all():
        raise ValueError("photon rate must be >= 0")
    alpha = np.sqrt(gamma_c * rate)
    return float(alpha) if alpha.ndim == 0 else alpha


@dataclass(frozen=True)
class _Grid:
    """Constants of the chain on a grid of n points.

    A constant that varies over the grid is an (n, 1) column, one the grid
    holds fixed a numpy scalar, computed once.  Numpy arithmetic keeps the
    kappa = 0 path bit-for-bit identical to the linear module.
    """

    n: int
    D_e: np.ndarray | np.complex128
    D_r: np.ndarray | np.complex128
    D_c: np.ndarray | np.complex128
    kappa: np.ndarray | np.complex128
    v_b: np.ndarray | np.complex128   # blockade volume, 0 without interactions
    alpha: np.ndarray | np.float64
    omega: float
    gamma_c: float
    coop_term: float       # 2 gamma_c gamma_e C
    g_root_n: float


def _grid(params: PhysicalParams, delta_p=None, alpha=None,
          interacting: bool = True) -> _Grid:
    """The chain's constants at probe detunings ``delta_p`` and amplitudes ``alpha``.

    Each is a scalar or a 1-d array (the two broadcast against each other)
    and defaults to the value in ``params``.  A non-finite value raises
    ValueError.  Where the blockade chain is singular kappa is NaN, which
    fails the point.  ``interacting=False`` leaves the blockade out
    (kappa = V_b = 0): the linear chain.
    """
    dp = params.drive.delta_p if delta_p is None else delta_p
    alpha = params.drive.alpha if alpha is None else alpha
    if not np.isfinite(dp).all():
        raise ValueError("probe detuning must be finite")
    if not np.isfinite(alpha).all():
        raise ValueError("feeding amplitude alpha must be finite")
    D_e, D_r, D_c = params.complex_detunings(dp)
    v_b = kap = 0j
    if interacting:
        try:
            v_b, kap = interactions.blockade(params, dp)
        except SingularParameterError:  # at the one detuning of the grid
            v_b = kap = complex("nan")
    cols = [np.asarray(v) for v in (D_e, D_r, D_c, kap, v_b, alpha)]
    n = max((v.size for v in cols if v.ndim), default=1)
    cols = [v[()] if v.ndim == 0 else v.reshape(-1, 1) for v in cols]
    gc = params.cavity.gamma_c
    coop = 2.0 * gc * params.ensemble.gamma_e * params.ensemble.cooperativity
    # g sqrt(N) = sqrt(coop), bit for bit; NaN outside the physical range
    g_root_n = math.sqrt(coop) if coop >= 0.0 else math.nan
    return _Grid(n, *cols, params.drive.omega_cf, gc, coop, g_root_n)


def _grid_derivative(params: PhysicalParams, paths, g: _Grid,
                     variable: str) -> _Grid:
    """d(constant)/d(parameter) of every constant of the grid ``g`` of
    ``params`` along an axis of ``variable`` (see :class:`MeanFieldCurve`).

    Each constant becomes an (n, p) array, or a (p,) row where it does not
    vary over the grid, whose column k is its derivative per unit of the
    parameter at ``paths[k]``, in closed form.  D_e, D_r, D_c, alpha,
    Omega, gamma_c and coop_term = 2 gamma_c gamma_e C are linear maps or
    products of single parameters, so their rows are unit or zero rows over
    the float parameters (:data:`rydcav.params.FLOAT_PATHS`); kappa and V_b
    follow by the chain rule (:func:`rydcav.interactions.blockade_derivative`).
    The axis is no parameter: on a detuning grid the delta_p rows are 0; on
    a rate grid delta_p moves D_e, D_r and D_c by unit rows, and
    alpha = sqrt(gamma_c R) moves only with gamma_c, by alpha / (2 gamma_c).
    ``paths`` pass :func:`rydcav.params.require_float_paths` (ValueError
    naming a path that is not a float parameter or whose value is None,
    KeyError for an unknown one).
    """
    require_float_paths(params, paths, "the mean-field chain")

    def unit(name):
        return np.array([float(path == name) for path in paths])

    ens, gc = params.ensemble, params.cavity.gamma_c
    d_gc, d_ge = unit("cavity.gamma_c"), unit("ensemble.gamma_e")
    rate = variable == "rate"   # then delta_p is a parameter, alpha the axis
    d_dp = unit("drive.delta_p") if rate else 0.0
    dD_e = d_dp + 1j * d_ge
    dD_r = d_dp + unit("drive.delta_cf") + 1j * unit("rydberg.gamma_r")
    dD_c = d_dp + 1j * d_gc - unit("cavity.delta_bg")
    d_alpha = 0.5 * g.alpha / gc * d_gc if rate else unit("drive.alpha")
    d_omega = unit("drive.omega_cf")
    d_coop = 2.0 * (ens.gamma_e * ens.cooperativity * d_gc
                    + gc * ens.cooperativity * d_ge
                    + gc * ens.gamma_e * unit("ensemble.cooperativity"))
    dv_b, dkappa = interactions.blockade_derivative(
        params, g.D_e, g.D_r, g.omega, g.v_b, g.kappa, dD_e, dD_r, d_omega,
        unit("rydberg.c6_override"), unit("ensemble.cloud_volume"))
    return _Grid(g.n, dD_e, dD_r, dD_c, dkappa, dv_b, d_alpha,
                 d_omega, d_gc, d_coop, 0.5 * d_coop / g.g_root_n)


def _amplitudes(g: _Grid, x):
    """(a, b, c, branch, denom, singular) at population x, broadcast on the grid.

    ``singular`` marks where a denominator of the chain vanishes; the
    values there are not finite.
    """
    Drx = g.D_r - g.kappa * x
    branch, denom = eit_factors(g.D_e, Drx, g.D_c, g.omega, g.coop_term)
    singular = (np.abs(denom) < _DRX_FLOOR) | np.isnan(g.kappa)
    a = g.alpha * branch / denom
    b = g.g_root_n * g.alpha / denom
    if g.omega == 0:
        c = np.zeros_like(b)
    else:
        singular |= np.abs(Drx) < _DRX_FLOOR
        c = 0.5 * g.omega * b / Drx
    return a, b, c, branch, denom, singular


@dataclass
class MeanFieldSolution:
    a: complex
    b: complex
    c: complex
    x: float
    residual: float
    branch_id: int
    root_count: int = 1
    blockaded_fraction: float = 0.0  # x |V_b| / V diagnostic
    transmission: float = math.nan   # gamma_c^2 |<a>|^2 / alpha^2

    def __post_init__(self):
        if abs(abs(self.c) ** 2 - self.x) > 1e-9 * max(1.0, self.x):
            raise ValueError("|c|^2 and x disagree")


_FIRST = np.arange(3) == 0


def _cubic_roots(a, b, c, d):
    """Real roots of a x^3 + b x^2 + c x + d (a > 0) at each point.

    Coefficients are scalars or (n, 1) columns; the roots come back with a
    last axis of three, in increasing order and NaN-padded.  The sign of
    the depressed cubic's discriminant decides between one root (Cardano,
    in its cancellation-free form) and three (trigonometric form).
    """
    b, c, d = b / a, c / a, d / a
    shift = b / 3.0
    p = c - b * shift
    q = (2.0 * shift * shift - c) * shift + d
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    r = 2.0 * np.sqrt(-p / 3.0)
    phi = np.arccos(np.clip(3.0 * q / (p * r), -1.0, 1.0))
    three = np.sort(r * np.cos((phi - 2.0 * np.pi * np.arange(3)) / 3.0) - shift,
                    axis=-1)
    w = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc), q))
    t = np.where(w != 0.0, w - p / (3.0 * w), 0.0)
    return np.where(disc < 0.0, three, np.where(_FIRST, t - shift, np.nan))


def _newton_polish(coeffs, x):
    """One Newton step on the cubic from each root, kept where it lowers the residual."""
    a, b, c, d = coeffs
    g = ((a * x + b) * x + c) * x + d
    dg = (3.0 * a * x + 2.0 * b) * x + c
    x_new = x - g / dg
    g_new = ((a * x_new + b) * x_new + c) * x_new + d
    return np.where(np.abs(g_new) < np.abs(g), x_new, x)


def _cubic(g: _Grid):
    """(m, A, B, coefficients) of the steady-state cubic on the grid; see
    :func:`_fixed_points`."""
    m = g.D_e * g.D_c - g.coop_term
    A = g.D_r * m - g.omega * g.omega * g.D_c / 4.0
    B = -g.kappa * m
    K2 = (0.5 * g.omega) ** 2 * g.coop_term * g.alpha ** 2
    # abs() of a numpy scalar is its hypot, which the np.abs ufunc can miss
    # by an ulp; near a fold the roots amplify that about a thousandfold
    return m, A, B, (abs(B) ** 2, 2.0 * (A * B.conjugate()).real, abs(A) ** 2, -K2)


def _fixed_points(g: _Grid, f0):
    """All fixed points of F at each point, (n, 3), increasing, NaN-padded.

    With m = D_e D_c - coop_term the chain gives F(x) = K^2 / |A + B x|^2,
    A = D_r m - Omega^2 D_c / 4, B = -kappa m, K^2 = (Omega/2)^2 coop_term
    alpha^2, so x = F(x) is the real cubic

        |B|^2 x^3 + 2 Re(A B*) x^2 + |A|^2 x - K^2 = 0.

    The cubic equals x |A + B x|^2 - K^2 <= -K^2 for x <= 0, so every real
    root is positive.  Where F vanishes or does not depend on x (kappa = 0)
    its one fixed point is f0 = F(0).
    """
    *_, coeffs = _cubic(g)
    # both forms are evaluated everywhere, and kappa = 0 leaves no cubic
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = _newton_polish(coeffs, _cubic_roots(*coeffs))
    closed = (f0 == 0.0) | (g.kappa == 0)
    return np.broadcast_to(np.where(closed, np.where(_FIRST, f0, np.nan), roots),
                           (g.n, 3))


def _pick(roots, residual, singular, seed: float) -> int:
    """Index of the root nearest ``seed`` among one point's candidates.

    Raises SingularParameterError or SolverError when that root does not
    solve x = F(x); the residual test fails on NaN.
    """
    j = 0
    if roots[1] == roots[1]:  # three roots; the padding is NaN
        dist = [abs(r - seed) for r in roots]
        j = dist.index(min(dist))
    if singular[j]:
        raise SingularParameterError("singular denominator in the steady-state chain")
    if not residual[j] <= _RESIDUAL_TOL * max(1.0, roots[j]):
        raise SolverError(f"root refinement stalled: residual {residual[j]:g} "
                          f"at x={roots[j]:g}")
    return j


def _follow_branch(roots, residual, singular, x_seed: float,
                   flag_failures: bool) -> np.ndarray:
    """Index of the root each point of the grid takes, in grid order.

    Continuation in x: each point takes the root nearest the last solved
    x, starting from ``x_seed``.  A failed point raises, the first in grid
    order, or, with ``flag_failures``, gets index -1 and keeps the seed.
    Where the cubic has one real root there is nothing to choose, so those
    points are checked as arrays; only the three-root points go through
    :func:`_pick` one by one, each seeded from the root of the last solved
    point before it.
    """
    n = roots.shape[0]
    three = roots[:, 1] == roots[:, 1]   # the padding is NaN
    # _pick's test on root 0; fmax, like max(1.0, x), passes over a NaN x
    bad = ~three & (singular[:, 0] | ~(
        residual[:, 0] <= _RESIDUAL_TOL * np.fmax(1.0, roots[:, 0])))
    picks = np.where(bad, -1, 0)
    stop = n
    if bad.any() and not flag_failures:
        stop = int(np.argmax(bad))
    # the last solved one-root point at or before each point, -1 if none
    last_one = np.maximum.accumulate(np.where(three | bad, -1, np.arange(n)))
    last_three, x_three = -1, x_seed
    for i in np.flatnonzero(three[:stop]).tolist():
        j_one = last_one[i]
        seed = roots[j_one, 0] if j_one > last_three else x_three
        try:
            j = _pick(roots[i].tolist(), residual[i].tolist(),
                      singular[i].tolist(), seed)
        except (SolverError, SingularParameterError):
            if not flag_failures:
                raise
            picks[i] = -1
            continue
        picks[i] = j
        last_three, x_three = i, roots[i, j]
    if stop < n:   # the first failed point is a one-root point
        _pick(roots[stop].tolist(), residual[stop].tolist(),
              singular[stop].tolist(), 0.0)
    return picks


@dataclass
class _Solved:
    """Per-point steady state of a grid; NaN (counts 0) where a point failed."""

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    transmission: np.ndarray
    residual: np.ndarray
    branch_id: np.ndarray
    root_count: np.ndarray
    failed: np.ndarray


def _solve(g: _Grid, x_seed: float = 0.0, flag_failures: bool = False) -> _Solved:
    """Steady state at every point of the grid, one branch by continuation."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        *_, c0, _, _, singular0 = _amplitudes(g, 0.0)
        roots = _fixed_points(g, np.abs(c0) ** 2)
        a, b, c, branch, denom, singular = _amplitudes(g, roots)
        residual = np.abs(np.abs(c) ** 2 - roots)
        t = np.abs(g.gamma_c * branch / denom) ** 2
    singular |= singular0
    picks = _follow_branch(roots, residual, singular, x_seed, flag_failures)
    failed = picks < 0
    at = (np.arange(picks.size), np.maximum(picks, 0))

    def take(v):
        return np.where(failed, np.nan, v[at])

    return _Solved(take(roots), take(a), take(b), take(c), take(t), take(residual),
                   picks, np.where(failed, 0, np.count_nonzero(~np.isnan(roots), axis=1)),
                   failed)


def solve_self_consistent(params: PhysicalParams, x_seed: float = 0.0,
                          delta_p=None) -> MeanFieldSolution:
    """Self-consistent steady state, following the branch nearest x_seed.

    When the steady-state cubic has three real roots (bistability) the one
    closest to the seed is returned and root_count reports how many there
    are; the choice mirrors an adiabatic experimental sweep.  The solution
    carries its transmission, as :func:`transmission_from_solution` gives it.
    A non-finite detuning raises ValueError.
    """
    g = _grid(params, delta_p)
    s = _solve(g, x_seed)
    x = float(s.x[0])
    return MeanFieldSolution(
        complex(s.a[0]), complex(s.b[0]), complex(s.c[0]), x,
        float(s.residual[0]), int(s.branch_id[0]),
        root_count=int(s.root_count[0]),
        blockaded_fraction=x * abs(g.v_b) / params.ensemble.cloud_volume,
        transmission=float(s.transmission[0]))


def transmission_from_solution(params: PhysicalParams, sol: MeanFieldSolution,
                               delta_p=None) -> float:
    """T = gamma_c^2 |<a>|^2 / alpha^2, in its alpha-independent form.

    Evaluated as |gamma_c B / (B D_c - 2 gamma_c gamma_e C)|^2 at the solved
    x, which equals the ratio above for alpha > 0 and is its alpha -> 0
    limit otherwise (the linear formula at x = 0).
    """
    g = _grid(params, delta_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, _, branch, denom, singular = _amplitudes(g, sol.x)
    if singular.any():
        raise SingularParameterError("singular denominator in the steady-state chain")
    return float(np.abs(g.gamma_c * branch / denom) ** 2)


def transmission_meanfield(params: PhysicalParams, delta_p=None,
                           x_seed: float = 0.0) -> float:
    return solve_self_consistent(params, x_seed=x_seed, delta_p=delta_p).transmission


@dataclass(frozen=True, eq=False)
class MeanFieldCurve:
    """Mean-field transmission along an ordered axis: probe detunings
    (``variable="delta_p"``, MHz), or probe photon rates (``"rate"``,
    photons/us) at the detuning of ``params``.

    One solve by continuation along the axis gives each point's population
    ``x`` (the root it took), ``transmission``, ``root_count`` (how many
    fixed points coexist there) and ``residual`` |F(x) - x|.  A ``failed``
    point holds NaN and root count 0.  The curve keeps the grid of
    constants its solve built, on which :meth:`jacobian` differentiates it.
    """

    params: PhysicalParams
    variable: str
    axis: np.ndarray
    transmission: np.ndarray
    x: np.ndarray
    root_count: np.ndarray
    residual: np.ndarray
    failed: np.ndarray
    _grid: _Grid = field(repr=False)

    @property
    def header(self) -> str:
        return f"{_AXES[self.variable][0]},transmission,x,root_count"

    @property
    def root_counts(self) -> dict[str, int]:
        """How many solved points had each number of coexisting roots."""
        counts, freq = np.unique(self.root_count[~self.failed], return_counts=True)
        return {str(k): int(f) for k, f in zip(counts, freq)}

    @property
    def worst_residual(self) -> float:
        """The largest residual of the solved points, 0 if there are none."""
        return float(np.max(self.residual[~self.failed], initial=0.0))

    def jacobian(self, paths) -> np.ndarray:
        """dT/dtheta_k at each point of the axis, (n, p), per unit of the
        parameter at ``paths[k]``, along the branch the solve followed.

        The root moves by implicit differentiation of the steady-state
        cubic, so nothing is solved again; the chain's constants are
        differentiated in closed form on the curve's grid
        (:func:`_grid_derivative`).  The axis is no parameter: along delta_p
        the ``drive.delta_p`` column is 0, along the rate ``drive.alpha``'s.
        A path that is not a float parameter, or whose value is None,
        raises ValueError, an unknown path KeyError; a derivative that is not finite, as at a fold of
        the steady state or a failed point of a scan, or in C6 at C6 = 0,
        raises SolverError naming the point.
        """
        return _jacobian(self.params, self._grid, self.variable, self.axis,
                         paths, self.x)


def _curve(params: PhysicalParams, variable: str, axis,
           flag_failures: bool) -> MeanFieldCurve:
    """The curve of ``params`` along ``axis``, seeded at the dark (x = 0)
    solution; a failed point raises unless ``flag_failures``."""
    axis = np.asarray(axis, dtype=float)
    g = (_grid(params, delta_p=axis) if variable == "delta_p" else
         _grid(params, alpha=photon_rate_to_alpha(axis, params.cavity.gamma_c)))
    s = _solve(g, flag_failures=flag_failures)
    return MeanFieldCurve(params, variable, axis, s.transmission, s.x,
                          s.root_count, s.residual, s.failed, g)


def transmission_curve(params: PhysicalParams, delta_ps) -> MeanFieldCurve:
    """Mean-field transmission at each detuning of an ordered grid.

    Used by the fitting module, which needs arbitrary (non-uniform) grids.
    The first failed point in grid order raises; a non-finite detuning
    raises ValueError.
    """
    return _curve(params, "delta_p", delta_ps, flag_failures=False)


def scan_meanfield(params: PhysicalParams, scan: ScanSpec | None = None,
                   variable: str = "delta_p") -> MeanFieldCurve:
    """Sweep probe detuning or photon rate with x-continuation.

    ``variable="delta_p"`` scans the probe (kappa is re-evaluated at every
    point); ``variable="rate"`` scans the probe photon rate R at fixed
    detuning, mapping R to alpha = sqrt(gamma_c R).  A non-finite scan
    range raises ValueError.  Points where the solver fails are flagged
    and the scan continues.  The scan logs its root counts and worst
    residual in one DEBUG record on ``rydcav.meanfield``.
    """
    if variable not in _AXES:
        raise ValueError("variable must be 'delta_p' or 'rate'")
    scan = scan if scan is not None else params.scan
    if scan is None:
        raise ValueError("no scan specified")
    if not (math.isfinite(scan.start) and math.isfinite(scan.stop)):
        raise ValueError("scan start and stop must be finite")
    curve = _curve(params, variable, scan.values(), flag_failures=True)
    _log.debug("mean-field %s scan, %d points: %d failed, root counts %s, "
               "worst residual %.3g", variable, curve.axis.size,
               int(curve.failed.sum()), curve.root_counts, curve.worst_residual)
    return curve


def _chain_derivative(g: _Grid, dg: _Grid, x) -> np.ndarray:
    """dT/dtheta, (n, p), from the grid g and its derivative grid dg.

    ``x`` is the (n, 1) column of picked roots, or None for the linear
    chain (x = 0, no root to move).  The root moves by dx = -P_theta / P_x
    with P(x) = x |A + B x|^2 - K^2, then T = |u|^2, u = gamma_c branch /
    denom at D_r - kappa x, gives dT = 2 Re(conj(u) du).  At a fold P_x = 0
    (to working precision) and the result is not finite.
    """
    Drx, dDrx = g.D_r, dg.D_r
    if x is not None:
        m, A, B, (c3, c2, c1, _) = _cubic(g)
        dm = dg.D_e * g.D_c + g.D_e * dg.D_c - dg.coop_term
        dA = (dg.D_r * m + g.D_r * dm
              - g.omega * (2.0 * dg.omega * g.D_c + g.omega * dg.D_c) / 4.0)
        dB = -(dg.kappa * m + g.kappa * dm)
        dK2 = (0.5 * g.omega * g.coop_term * g.alpha
               * (dg.omega * g.alpha + g.omega * dg.alpha)
               + 0.25 * (g.omega * g.alpha) ** 2 * dg.coop_term)
        p_theta = 2.0 * x * ((A + B * x).conjugate() * (dA + dB * x)).real - dK2
        p_x = (3.0 * c3 * x + 2.0 * c2) * x + c1
        # at a double root P_x comes out as 0 or as about an ulp of its
        # terms, by the rounding of the constants; either is a fold
        scale = (3.0 * c3 * x + 2.0 * np.abs(c2)) * x + c1
        dx = -p_theta / np.where(np.abs(p_x) <= _FOLD_ULPS * _EPS * scale, 0.0, p_x)
        Drx = g.D_r - g.kappa * x
        dDrx = dg.D_r - dg.kappa * x - g.kappa * dx
    branch, denom = eit_factors(g.D_e, Drx, g.D_c, g.omega, g.coop_term)
    if g.omega == 0:
        dbranch = dg.D_e
    else:
        dbranch = dg.D_e - (g.omega * (2.0 * dg.omega * Drx - g.omega * dDrx)
                            / (4.0 * Drx * Drx))
    ddenom = dbranch * g.D_c + branch * dg.D_c - dg.coop_term
    u = g.gamma_c * branch / denom
    du = (dg.gamma_c * branch + g.gamma_c * dbranch - u * ddenom) / denom
    return 2.0 * (u.conjugate() * du).real


def transmission_jacobian(params: PhysicalParams, delta_ps, paths) -> np.ndarray:
    """dT/dtheta_k of the linear spectrum at each detuning, (n, p), per unit
    of the parameter at ``paths[k]``.

    It is the mean-field chain at kappa = 0 and x = 0 (the identity of
    acceptance criterion 3), with the constants differentiated in closed
    form on the one grid at the parameters (:func:`_grid_derivative`).  The
    mean-field curve's own derivative is :meth:`MeanFieldCurve.jacobian`.
    A path that is not a float parameter, or whose value is None, raises
    ValueError, an unknown path KeyError; a derivative that is not finite
    raises SolverError.
    """
    delta_ps = np.asarray(delta_ps, dtype=float)
    return _jacobian(params, _grid(params, delta_ps, interacting=False),
                     "delta_p", delta_ps, paths, None)


def _jacobian(params: PhysicalParams, g: _Grid, variable: str, axis, paths,
              x) -> np.ndarray:
    """dT/dtheta on the grid ``g`` already built at ``params`` along ``axis``
    of ``variable``: along the picked populations ``x`` of a mean-field
    curve, or, with ``x=None``, of the linear chain."""
    if x is not None:
        x = x.reshape(-1, 1)
        if ("rydberg.c6_override" in paths
                and interactions.c6_coefficient(params.rydberg) == 0):
            raise SolverError("dT/drydberg.c6_override has no value at C6 = 0, "
                              "where kappa goes as sqrt(C6)")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        jac = _chain_derivative(g, _grid_derivative(params, paths, g, variable), x)
    bad = ~np.isfinite(jac)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        where = ("" if x is None else " (a failed point)" if np.isnan(x[i, 0])
                 else " (a fold of the steady state)")
        raise SolverError(f"dT/d{paths[k]} is not finite at "
                          f"{_AXES[variable][1].format(axis[i])}{where}")
    return jac
