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
fixed points are the real roots of a cubic in x, at most three.  They are
taken in closed form (Cardano or the trigonometric form, by the sign of the
discriminant) and polished with one Newton step, so every coexisting branch
is found.  Scans follow one branch by continuation (the previous point's x
seeds the next) and report how many fixed points coexist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import interactions
from .errors import SingularParameterError, SolverError
from .linear import eit_factors
from .params import PhysicalParams, ScanSpec, params_to_dict

_DRX_FLOOR = 1e-300


def photon_rate_to_alpha(rate: float, gamma_c: float) -> float:
    """Feeding amplitude for a probe photon rate R (photons/us).

    The rate axis is normalized to the empty-cavity resonant output under
    this package's conventions, R = alpha^2 / gamma_c.
    """
    return math.sqrt(gamma_c * rate)


def alpha_to_photon_rate(alpha: float, gamma_c: float) -> float:
    return alpha * alpha / gamma_c


@dataclass(frozen=True)
class _Point:
    """Scalar context for one (params, delta_p) evaluation point."""

    D_e: complex
    D_r: complex
    D_c: complex
    omega: float
    alpha: float
    gamma_c: float
    coop_term: float   # 2 gamma_c gamma_e C
    g_root_n: float
    v_b: complex       # blockade volume, 0 without interactions
    kappa: complex


def _point(params: PhysicalParams, delta_p=None) -> _Point:
    # numpy scalars keep the kappa = 0 path bit-for-bit identical to the
    # linear module, which evaluates through numpy as well
    D_e, D_r, D_c = (np.complex128(z) for z in params.complex_detunings(delta_p))
    omega = params.drive.omega_cf
    gc = params.cavity.gamma_c
    coop = 2.0 * gc * params.ensemble.gamma_e * params.ensemble.cooperativity
    v_b, kap = interactions.blockade(params, delta_p)
    return _Point(D_e, D_r, D_c, omega, params.drive.alpha, gc, coop,
                  params.g_root_n, v_b, kap)


def _amplitudes(pt: _Point, x):
    """(a, b, c, branch, denom) at Rydberg population parameter x."""
    Drx = pt.D_r - pt.kappa * x
    branch, denom = eit_factors(pt.D_e, Drx, pt.D_c, pt.omega, pt.coop_term)
    if np.any(np.abs(denom) < _DRX_FLOOR):
        raise SingularParameterError("steady-state denominator vanished")
    a = pt.alpha * branch / denom
    b = pt.g_root_n * pt.alpha / denom
    if pt.omega == 0:
        c = np.zeros_like(b)
    else:
        if np.any(np.abs(Drx) < _DRX_FLOOR):
            raise SingularParameterError("shifted Rydberg detuning vanished")
        c = 0.5 * pt.omega * b / Drx
    return a, b, c, branch, denom


def _excitation(pt: _Point, x):
    """F(x) = |<c>(x)|^2."""
    _, _, c, _, _ = _amplitudes(pt, x)
    return np.abs(c) ** 2


def steady_residual(params: PhysicalParams, x, delta_p=None):
    """F(x) - x; its roots are the self-consistent steady states.

    Accepts a scalar or an array of x values (x >= 0).
    """
    pt = _point(params, delta_p)
    x = np.asarray(x, dtype=float)
    res = _excitation(pt, x) - x
    return float(res) if res.ndim == 0 else res


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


def _cubic_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d (a > 0), in increasing order.

    The sign of the depressed cubic's discriminant decides between one root
    (Cardano, in its cancellation-free form) and three (trigonometric form).
    """
    b, c, d = b / a, c / a, d / a
    shift = b / 3.0
    p = c - b * shift
    q = (2.0 * shift * shift - c) * shift + d
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    if disc < 0.0:  # three distinct real roots, p < 0
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * r))))
        return sorted(r * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift
                      for k in range(3))
    w = float(np.cbrt(-0.5 * q - math.copysign(math.sqrt(disc), q)))
    t = w - p / (3.0 * w) if w != 0.0 else 0.0
    return [t - shift]


def _newton_polish(coeffs, x: float) -> float:
    """One Newton step on the cubic, kept only if it lowers the residual."""
    a, b, c, d = coeffs
    g = ((a * x + b) * x + c) * x + d
    dg = (3.0 * a * x + 2.0 * b) * x + c
    if dg == 0.0:
        return x
    x_new = x - g / dg
    g_new = ((a * x_new + b) * x_new + c) * x_new + d
    return x_new if abs(g_new) < abs(g) else x


def _find_roots(pt: _Point) -> list[float]:
    """All fixed points of F, in increasing order.

    With m = D_e D_c - coop_term the chain gives F(x) = K^2 / |A + B x|^2,
    A = D_r m - Omega^2 D_c / 4, B = -kappa m, K^2 = (Omega/2)^2 coop_term
    alpha^2, so x = F(x) is the real cubic

        |B|^2 x^3 + 2 Re(A B*) x^2 + |A|^2 x - K^2 = 0.

    The cubic equals x |A + B x|^2 - K^2 <= -K^2 for x <= 0, so every real
    root is positive.
    """
    f0 = float(_excitation(pt, 0.0))
    if f0 == 0.0:
        return [0.0]
    if pt.kappa == 0:
        return [f0]  # F is x-independent: closed-form root
    m = pt.D_e * pt.D_c - pt.coop_term
    A = pt.D_r * m - pt.omega * pt.omega * pt.D_c / 4.0
    B = -pt.kappa * m
    K2 = (0.5 * pt.omega) ** 2 * pt.coop_term * pt.alpha ** 2
    coeffs = (float(abs(B) ** 2), float(2.0 * (A * B.conjugate()).real),
              float(abs(A) ** 2), -K2)
    return [_newton_polish(coeffs, x) for x in _cubic_roots(*coeffs)]


def _transmission(pt: _Point, branch, denom) -> float:
    return float(np.abs(pt.gamma_c * branch / denom) ** 2)


def solve_self_consistent(params: PhysicalParams, x_seed: float = 0.0,
                          delta_p=None) -> MeanFieldSolution:
    """Self-consistent steady state, following the branch nearest x_seed.

    When the steady-state cubic has three real roots (bistability) the one
    closest to the seed is returned and root_count reports how many there
    are; the choice mirrors an adiabatic experimental sweep.  The solution
    carries its transmission, as :func:`transmission_from_solution` gives it.
    """
    pt = _point(params, delta_p)
    roots = _find_roots(pt)
    branch_id = int(np.argmin([abs(r - x_seed) for r in roots]))
    x = roots[branch_id]
    residual = abs(float(_excitation(pt, x)) - x)
    if residual > 1e-10 * max(1.0, x):
        raise SolverError(f"root refinement stalled: residual {residual:g} at x={x:g}")
    a, b, c, branch, denom = _amplitudes(pt, x)
    return MeanFieldSolution(
        complex(a), complex(b), complex(c), x, residual, branch_id,
        root_count=len(roots),
        blockaded_fraction=x * abs(pt.v_b) / params.ensemble.cloud_volume,
        transmission=_transmission(pt, branch, denom))


def transmission_from_solution(params: PhysicalParams, sol: MeanFieldSolution,
                               delta_p=None) -> float:
    """T = gamma_c^2 |<a>|^2 / alpha^2, in its alpha-independent form.

    Evaluated as |gamma_c B / (B D_c - 2 gamma_c gamma_e C)|^2 at the solved
    x, which equals the ratio above for alpha > 0 and is its alpha -> 0
    limit otherwise (the linear formula at x = 0).
    """
    pt = _point(params, delta_p)
    _, _, _, branch, denom = _amplitudes(pt, sol.x)
    return _transmission(pt, branch, denom)


def transmission_meanfield(params: PhysicalParams, delta_p=None,
                           x_seed: float = 0.0) -> float:
    return solve_self_consistent(params, x_seed=x_seed, delta_p=delta_p).transmission


def dynamical_residual(params: PhysicalParams, sol: MeanFieldSolution,
                       delta_p=None) -> float:
    """Norm of the three zeroed dynamical equations at a solution."""
    pt = _point(params, delta_p)
    a, b, c, x = sol.a, sol.b, sol.c, sol.x
    r1 = pt.D_c * a - pt.g_root_n * b - pt.alpha
    r2 = pt.D_e * b - pt.g_root_n * a - 0.5 * pt.omega * c
    r3 = pt.D_r * c - 0.5 * pt.omega * b - pt.kappa * (abs(c) ** 2) * c
    return math.sqrt(abs(r1) ** 2 + abs(r2) ** 2 + abs(r3) ** 2)


def _follow_branch(points, flag_failures: bool):
    """Solutions and transmissions along ordered (params, delta_p) points.

    Continuation in x: each solve is seeded with the last solved x, starting
    from the dark (x = 0) solution.  A failed solve raises, or, with
    ``flag_failures``, leaves None and NaN at its point and keeps the seed.
    """
    seed = 0.0
    sols = []
    t = np.full(len(points), np.nan)
    for i, (p, dp) in enumerate(points):
        try:
            sol = solve_self_consistent(p, x_seed=seed, delta_p=dp)
        except (SolverError, SingularParameterError):
            if not flag_failures:
                raise
            sols.append(None)
            continue
        t[i] = sol.transmission
        sols.append(sol)
        seed = sol.x
    return sols, t


def transmission_curve(params: PhysicalParams, delta_ps) -> np.ndarray:
    """Mean-field transmission at each detuning of an ordered grid.

    Continuation in x along the grid, seeded at the dark (x = 0) solution;
    used by the fitting module, which needs arbitrary (non-uniform) grids.
    """
    _, t = _follow_branch([(params, float(dp)) for dp in delta_ps],
                          flag_failures=False)
    return t


@dataclass
class NonlinearSpectrum:
    """Mean-field transmission scan with per-point diagnostics."""

    axis: np.ndarray
    transmission: np.ndarray
    x: np.ndarray
    root_count: np.ndarray
    failed: np.ndarray
    axis_name: str = "delta_p_mhz"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        if np.any(self.transmission[~self.failed] < 0):
            raise ValueError("transmission must be >= 0")

    header_suffix = "transmission,x,root_count"

    @property
    def header(self) -> str:
        return f"{self.axis_name},{self.header_suffix}"

    def rows(self):
        return zip(self.axis, self.transmission, self.x, self.root_count)


def scan_meanfield(params: PhysicalParams, scan: ScanSpec | None = None,
                   variable: str = "delta_p") -> NonlinearSpectrum:
    """Sweep probe detuning or photon rate with x-continuation.

    ``variable="delta_p"`` scans the probe (kappa is re-evaluated at every
    point); ``variable="rate"`` scans the probe photon rate R at fixed
    detuning, mapping R to alpha = sqrt(gamma_c R).  A non-finite scan
    range raises ValueError.  Points where the solver fails are flagged
    and the scan continues.
    """
    if variable not in ("delta_p", "rate"):
        raise ValueError("variable must be 'delta_p' or 'rate'")
    scan = scan if scan is not None else params.scan
    if scan is None:
        raise ValueError("no scan specified")
    if not (math.isfinite(scan.start) and math.isfinite(scan.stop)):
        raise ValueError("scan start and stop must be finite")
    grid = scan.values()
    if variable == "delta_p":
        points = [(params, float(v)) for v in grid]
    else:
        if not (grid >= 0).all():
            raise ValueError("photon rate must be >= 0")
        gc = params.cavity.gamma_c
        points = [(replace(params, drive=replace(
            params.drive, alpha=photon_rate_to_alpha(float(v), gc))), None)
            for v in grid]
    sols, t = _follow_branch(points, flag_failures=True)
    failed = np.array([sol is None for sol in sols], dtype=bool)
    xs = np.array([np.nan if sol is None else sol.x for sol in sols])
    counts = np.array([0 if sol is None else sol.root_count for sol in sols],
                      dtype=int)

    axis_name = "delta_p_mhz" if variable == "delta_p" else "photon_rate_per_us"
    return NonlinearSpectrum(grid, t, xs, counts, failed, axis_name=axis_name,
                             metadata={"params": params_to_dict(params)})
