"""Van der Waals coefficients, blockade volume and mean-field constants.

The S- and D-series C6 coefficients follow the standard rubidium
parametrizations (GHz.um^6, for the pair potential written as -C6/r^6).
The complex blockade volume V_b and the mean-field interaction constant
kappa are evaluated from the complex detunings D_e, D_r of the EIT ladder
(:func:`blockade` derives both from a parameter bundle for the mean field,
and :func:`blockade_derivative` gives V_b's derivative in closed form; the
bubble model's n_b needs V_b alone, and computes no kappa).
A scalar detuning and an array of them, as a mean-field grid passes, go
through the same numpy expressions, so a scalar gives the bits of the
array element at its detuning.  The rule for a singular chain is one: a
quantity whose magnitude falls below the chain floor becomes NaN inside
the chain, for every shape, and each model raises where the chain it
reads is NaN (:func:`atoms_per_bubble` for the bubble model; the mean
field fails the point).  kappa enters the Rydberg coherence as an
intensity-dependent complex shift D_r -> D_r - kappa * |<c>|^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularParameterError
from .params import PhysicalParams, RydbergLevel

#: prefactor sqrt(2) pi^2 / 3 of the blockade volume
_VB_PREFACTOR = math.sqrt(2.0) * math.pi**2 / 3.0

#: C6 is specified in GHz.um^6; the detunings it is divided by are in MHz
_GHZ_TO_MHZ = 1e3

#: a denominator of the chain below this magnitude is a zero: it catches
#: the rounding-level zeros (-8.9e-16 where the dressed denominator
#: vanishes) that a finiteness test would pass
_CHAIN_FLOOR = 1e-12


def c6_s(n: int) -> float:
    """S-series C6 in GHz.um^6: (63 - 267 u + 64 u^2) u^11 with u = n/60."""
    u = n / 60.0
    return (63.0 - 267.0 * u + 64.0 * u * u) * u**11


def c6_d(n: int) -> float:
    """Isotropic (angle-averaged) D-series C6 in GHz.um^6: 45 (n/56)^11."""
    return 45.0 * (n / 56.0) ** 11


def c6_coefficient(level: RydbergLevel) -> float:
    """C6 for a configured level: the override wins, else the series formula."""
    if level.c6_override is not None:
        return level.c6_override
    return c6_s(level.n) if level.series == "S" else c6_d(level.n)


def _nonzero(z):
    """``z``, NaN where |z| is below the chain floor."""
    return np.where(np.abs(z) < _CHAIN_FLOOR, np.nan, z)


def _dressed_shift(D_e, D_r, omega_cf: float):
    """Control-dressed two-photon shift Omega^2 / (4 (D_e + D_r - Omega^2/(4 D_e))).

    NaN where D_e or the dressed denominator is below the chain floor.
    """
    if omega_cf == 0:
        return 0j
    inner = _nonzero(D_e + D_r - omega_cf * omega_cf / (4.0 * _nonzero(D_e)))
    return omega_cf * omega_cf / (4.0 * inner)


def blockade_volume(D_e, D_r, omega_cf: float, c6: float):
    """Complex blockade volume in um^3 (elementwise for arrays of detunings).

    V_b = (sqrt(2) pi^2 / 3) sqrt(C6 / (D_e - s)) with s the dressed
    two-photon shift; the square root is taken on the principal branch, so
    Re(V_b) >= 0.  The physical blockade size is |V_b|.  NaN where the
    chain is singular.
    """
    if c6 == 0:
        return 0j
    with np.errstate(invalid="ignore"):   # arithmetic on the NaN of a singular point
        shifted = _nonzero(D_e - _dressed_shift(D_e, D_r, omega_cf))
        return _VB_PREFACTOR * np.sqrt(c6 * _GHZ_TO_MHZ / shifted)


def kappa(D_e, D_r, omega_cf: float, v_b, volume: float):
    """Mean-field interaction constant (complex, MHz; elementwise for arrays).

    kappa = 2 (V_b / (V - V_b)) (s - D_r) with s the dressed two-photon
    shift, 0 at V_b = 0 and NaN where the chain is singular (V = V_b among
    them).  The overall sign is fixed so that Im(kappa) <= 0 at
    delta_p = delta_cf = 0 with the principal-branch V_b (kappa =
    0.0034 - 0.0034i for S n=60 at Omega_cf 8 MHz): the interaction then
    acts on the Rydberg coherence as saturable extra damping plus a line
    shift, never as gain, which is what a blockade must do.  On two-photon
    resonance elsewhere the sign is not shown: in the bistable S n=60 case
    (Omega_cf 8, delta_cf -10 MHz) at delta_p = 10 MHz, kappa = 0.0020 +
    0.0023i (V_b = 117.5 + 562.4i um^3).  The general case is ROADMAP
    item 2.
    """
    with np.errstate(invalid="ignore"):   # arithmetic on the NaN of a singular point
        rest = _nonzero(volume - v_b)
        # the ufunc, not *: numpy's scalar complex product rounds
        # differently from its array loop
        return np.multiply(2.0 * (v_b / rest), _dressed_shift(D_e, D_r, omega_cf) - D_r)


def blockade(params: PhysicalParams, delta_p=None):
    """(V_b, kappa) at the given probe detuning; (0, 0) without interactions.

    The one derivation C6 -> V_b -> kappa from a parameter bundle, for the
    mean-field model; the bubble model, which needs no kappa, calls
    :func:`blockade_volume` alone.  A scalar detuning gives numpy complex
    scalars, an array of them arrays; each is NaN where the chain is
    singular.
    """
    c6 = c6_coefficient(params.rydberg)
    if c6 == 0:
        return 0j, 0j
    D_e, D_r, _ = params.complex_detunings(delta_p)
    omega = params.drive.omega_cf
    v_b = blockade_volume(D_e, D_r, omega, c6)
    return v_b, kappa(D_e, D_r, omega, v_b, params.ensemble.cloud_volume)


def blockade_derivative(params: PhysicalParams, D_e, D_r, omega, v_b,
                        dD_e, dD_r, d_omega, d_c6):
    """(dV_b, s, ds) at V_b of :func:`blockade_volume` from the rows of D_e,
    D_r, Omega and C6, with the dressed two-photon shift s and its row ds,
    from which the mean field differentiates kappa = 2 V_b (s - D_r) / (V - V_b).

    D_e, D_r and V_b are the chain's values, scalars or columns; each row
    holds the derivative of one input per unit of each parameter.  With
    s = Omega^2 / (4 (D_e + D_r - Omega^2 / (4 D_e))) and
    V_b = P sqrt(1e3 C6 / (D_e - s)), dV_b = V_b (dC6 / C6 - d(D_e - s) / (D_e - s)) / 2.
    No kappa is computed.  Without blockade (V_b = 0: C6 = 0, or a chain
    that leaves it out) V_b and kappa are 0 under every parameter but C6,
    and the rows are zero; at C6 = 0 both go as sqrt(C6), and their
    derivative in C6 has no value.
    """
    if not np.any(v_b):
        return 0j * d_c6, 0.0, 0.0
    s = ds = 0.0
    if omega != 0:
        q = omega * omega / (4.0 * D_e)
        inner = D_e + D_r - q
        s = omega * omega / (4.0 * inner)
        dq = (0.5 * omega * d_omega - q * dD_e) / D_e
        ds = (0.5 * omega * d_omega - s * (dD_e + dD_r - dq)) / inner
    c6 = c6_coefficient(params.rydberg)
    return 0.5 * v_b * (d_c6 / c6 - (dD_e - ds) / (D_e - s)), s, ds


def atoms_per_bubble(atom_number: int, v_b: complex, volume: float) -> float:
    """n_b = N |V_b| / V, clamped to [1, N] for bubble-model use.

    A |V_b| that is NaN or infinite, a singular blockade chain, raises
    SingularParameterError before the clamp, which would pass it on as 1
    or N.
    """
    if volume <= 0:
        raise ValueError("volume must be > 0")
    size = abs(v_b)
    if not math.isfinite(size):
        raise SingularParameterError(f"blockade volume {v_b} is not finite: "
                                     "the blockade chain is singular")
    return float(min(max(atom_number * size / volume, 1.0), atom_number))

