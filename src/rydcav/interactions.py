"""Van der Waals coefficients, blockade volume and mean-field constants.

The S- and D-series C6 coefficients follow the standard rubidium
parametrizations (GHz.um^6, for the pair potential written as -C6/r^6).
The complex blockade volume V_b and the mean-field interaction constant
kappa are evaluated from the complex detunings D_e, D_r of the EIT ladder
(:func:`blockade` derives both from a parameter bundle, for every model);
kappa enters the Rydberg coherence as an intensity-dependent complex shift
D_r -> D_r - kappa * |<c>|^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import SingularParameterError
from .params import PhysicalParams, RydbergLevel

#: prefactor sqrt(2) pi^2 / 3 of the blockade volume
_VB_PREFACTOR = math.sqrt(2.0) * math.pi**2 / 3.0

#: C6 is specified in GHz.um^6; the detunings it is divided by are in MHz
_GHZ_TO_MHZ = 1e3

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


def _dressed_shift(D_e: complex, D_r: complex, omega_cf: float) -> complex:
    """Control-dressed two-photon shift Omega^2 / (4 (D_e + D_r - Omega^2/(4 D_e)))."""
    if omega_cf == 0:
        return 0j
    if abs(D_e) < _CHAIN_FLOOR:
        raise SingularParameterError("D_e vanishes inside the dressed-shift chain")
    inner = D_e + D_r - omega_cf * omega_cf / (4.0 * D_e)
    if abs(inner) < _CHAIN_FLOOR:
        raise SingularParameterError("dressed two-photon denominator vanishes")
    return omega_cf * omega_cf / (4.0 * inner)


def blockade_volume(D_e, D_r, omega_cf: float, c6: float) -> complex:
    """Complex blockade volume in um^3.

    V_b = (sqrt(2) pi^2 / 3) sqrt(C6 / (D_e - s)) with s the dressed
    two-photon shift; the square root is taken on the principal branch, so
    Re(V_b) >= 0.  The physical blockade size is |V_b|.
    """
    D_e, D_r = complex(D_e), complex(D_r)
    if c6 == 0:
        return 0j
    shifted = D_e - _dressed_shift(D_e, D_r, omega_cf)
    if abs(shifted) < _CHAIN_FLOOR:
        raise SingularParameterError("blockade-volume denominator vanishes")
    return _VB_PREFACTOR * cmath.sqrt(c6 * _GHZ_TO_MHZ / shifted)


def kappa(D_e, D_r, omega_cf: float, v_b: complex, volume: float) -> complex:
    """Mean-field interaction constant (complex, MHz).

    kappa = 2 (V_b / (V - V_b)) (s - D_r) with s the dressed two-photon
    shift.  The overall sign is fixed so that on two-photon resonance, with
    the principal-branch V_b, Im(kappa) <= 0: the interaction then acts on
    the Rydberg coherence as saturable extra damping plus a line shift,
    never as gain, which is what a blockade must do.
    """
    D_e, D_r = complex(D_e), complex(D_r)
    if v_b == 0:
        return 0j
    if abs(volume - v_b) < _CHAIN_FLOOR:
        raise SingularParameterError("cloud volume equals blockade volume")
    return 2.0 * (v_b / (volume - v_b)) * (_dressed_shift(D_e, D_r, omega_cf) - D_r)


def blockade(params: PhysicalParams,
             delta_p: float | None = None) -> tuple[complex, complex]:
    """(V_b, kappa) at the given probe detuning; (0, 0) without interactions.

    The one derivation C6 -> V_b -> kappa from a parameter bundle, shared by
    the mean-field model (kappa) and the bubble model (n_b from V_b).
    """
    c6 = c6_coefficient(params.rydberg)
    if c6 == 0:
        return 0j, 0j
    D_e, D_r, _ = params.complex_detunings(delta_p)
    omega = params.drive.omega_cf
    v_b = blockade_volume(D_e, D_r, omega, c6)
    return v_b, kappa(D_e, D_r, omega, v_b, params.ensemble.cloud_volume)


def atoms_per_bubble(atom_number: int, v_b: complex, volume: float) -> float:
    """n_b = N |V_b| / V, clamped to [1, N] for bubble-model use."""
    if volume <= 0:
        raise ValueError("volume must be > 0")
    raw = atom_number * abs(v_b) / volume
    return min(max(raw, 1.0), float(atom_number))


@dataclass(frozen=True)
class InteractionSummary:
    c6: float              # GHz.um^6
    v_b: complex           # um^3
    kappa: complex         # MHz
    n_b: float             # atoms per bubble
    bubble_count: float    # N / n_b


def summarize(params: PhysicalParams, delta_p: float | None = None) -> InteractionSummary:
    """Interaction quantities at the given probe detuning, from :func:`blockade`."""
    v_b, kap = blockade(params, delta_p)
    n = params.ensemble.atom_number
    n_b = atoms_per_bubble(n, v_b, params.ensemble.cloud_volume)
    return InteractionSummary(c6=c6_coefficient(params.rydberg), v_b=v_b,
                              kappa=kap, n_b=n_b, bubble_count=n / n_b)
