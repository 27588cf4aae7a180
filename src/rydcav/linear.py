"""Closed-form linear (non-interacting) intracavity EIT transmission.

The steady-state transmission of the atom-filled cavity, with the probe on
the lower transition and a control field coupling to the Rydberg level, is

    T = | gamma_c * B / (B * D_c - 2 gamma_c gamma_e C) |^2,
    B = D_e - Omega_cf^2 / (4 D_r),

with D_k = Delta_k + i gamma_k for k = e, r, c.  An empty resonant cavity
(C = 0, Omega = 0, Delta_c = 0) gives T = 1.  The chain is singular where
T is not finite: at D_r = 0 with Omega != 0 (gamma_r = 0 on two-photon
resonance), where B is infinite and T is 0/0, and where the denominator
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularParameterError
from .params import PhysicalParams, ScanSpec, params_to_dict


def eit_factors(D_e, D_r, D_c, omega_cf, coop_term):
    """Numerator/denominator pair (B, B*D_c - coop_term) of the transmission.

    ``coop_term`` is 2 gamma_c gamma_e C.  With omega_cf = 0 the Rydberg
    branch term is exactly 0 (no 0/0 at gamma_r = 0).  The mean-field module
    reuses this with the interaction-shifted D_r so that its kappa = 0 path
    is bit-for-bit identical to the linear prediction.
    """
    if omega_cf == 0:
        branch = D_e + np.zeros_like(D_r)
    else:
        branch = D_e - omega_cf * omega_cf / (4.0 * D_r)
    return branch, branch * D_c - coop_term


def transmission_linear(params: PhysicalParams, delta_p=None):
    """Linear cavity transmission at one probe detuning (or an array).

    Raises SingularParameterError where the chain is singular, T not
    finite at some detuning (see the module docstring), and ValueError for
    a non-finite detuning.
    """
    dp = np.asarray(params.drive.delta_p if delta_p is None else delta_p, dtype=float)
    if not np.isfinite(dp).all():
        raise ValueError("probe detuning must be finite")
    D_e, D_r, D_c = params.complex_detunings(dp)

    gc = params.cavity.gamma_c
    coop = 2.0 * gc * params.ensemble.gamma_e * params.ensemble.cooperativity
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        branch, denom = eit_factors(D_e, D_r, D_c, params.drive.omega_cf, coop)
        t = np.abs(gc * branch / denom) ** 2
    if not np.isfinite(t).all():
        raise SingularParameterError("singular transmission chain: T is not finite")
    return float(t) if t.ndim == 0 else t


@dataclass
class Spectrum:
    """Transmission versus probe detuning, plus a parameter snapshot."""

    delta_p: np.ndarray
    transmission: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.delta_p = np.asarray(self.delta_p, dtype=float)
        self.transmission = np.asarray(self.transmission, dtype=float)
        if self.delta_p.shape != self.transmission.shape:
            raise ValueError("detuning and transmission arrays must match")
        if np.any(np.diff(self.delta_p) <= 0):
            raise ValueError("detunings must be strictly increasing")
        if np.any(self.transmission < 0):
            raise ValueError("transmission must be >= 0 at every point")

    header = "delta_p_mhz,transmission"


def scan_linear(params: PhysicalParams, scan: ScanSpec | None = None) -> Spectrum:
    """Pointwise linear transmission over a detuning scan."""
    scan = scan if scan is not None else params.scan
    if scan is None:
        raise ValueError("no scan specified")
    grid = scan.values()
    t = transmission_linear(params, grid)
    return Spectrum(grid, t, metadata={"params": params_to_dict(params)})
