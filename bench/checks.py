"""Correctness checkers written apart from the package.

Each checker re-derives what it needs from the model definitions (the
closed-form chain of the mean-field steady state, the linear transmission
formula, the properties every density matrix has) and takes plain numbers,
so a fault in the package cannot hide in a shared helper.  None of them
compares against stored output of the package.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def c6_s_series(n: int) -> float:
    """S-series van der Waals coefficient in GHz.um^6."""
    u = n / 60.0
    return (63.0 - 267.0 * u + 64.0 * u * u) * u**11


def _kappa(D_e: complex, D_r: complex, omega: float, c6: float,
           volume: float) -> complex:
    # dressed two-photon shift s, complex blockade volume V_b on the
    # principal branch, then kappa = 2 V_b / (V - V_b) (s - D_r)
    s = omega**2 / (4.0 * (D_e + D_r - omega**2 / (4.0 * D_e)))
    v_b = math.sqrt(2.0) * math.pi**2 / 3.0 * cmath.sqrt(c6 * 1e3 / (D_e - s))
    return 2.0 * v_b / (volume - v_b) * (s - D_r)


def steady_cubic(cfg: dict, delta_p: float, rate: float) -> np.ndarray:
    """Coefficients (a, b, c, d) of the mean-field steady-state cubic in x.

    Eliminating <a> and <b> gives |<c>|^2 = K^2 / |A + B x|^2 with x the
    Rydberg population itself, so the fixed points are the roots of
    |B|^2 x^3 + 2 Re(A B*) x^2 + |A|^2 x - K^2 = 0.  ``cfg`` is a config
    tree in the package's file format; ``rate`` is the photon rate R with
    alpha^2 = gamma_c R.
    """
    cav, ens, ryd, drv = cfg["cavity"], cfg["ensemble"], cfg["rydberg"], cfg["drive"]
    gc, ge, gr = cav["gamma_c"], ens["gamma_e"], ryd["gamma_r"]
    omega = drv["omega_cf"]
    D_e = complex(delta_p, ge)
    D_r = complex(delta_p + drv["delta_cf"], gr)
    D_c = complex(delta_p - cav["delta_bg"], gc)
    kap = _kappa(D_e, D_r, omega, c6_s_series(ryd["n"]), ens["cloud_volume"])
    coop2 = 2.0 * gc * ge * ens["cooperativity"]
    m = D_e * D_c - coop2
    A = D_r * m - omega**2 * D_c / 4.0
    B = -kap * m
    K2 = (omega / 2.0) ** 2 * coop2 * gc * rate
    return np.array([abs(B) ** 2, 2.0 * (A * B.conjugate()).real, abs(A) ** 2, -K2])


def cubic_root_count(coeffs) -> int:
    """Number of distinct real roots (none negative) from the discriminant sign.

    Raises ValueError when the discriminant is too close to zero for its
    sign to be trusted, i.e. at a turning point of the bistable window.
    """
    a, b, c, d = (float(v) for v in coeffs)
    terms = (18 * a * b * c * d, -4 * b**3 * d, b * b * c * c, -4 * a * c**3,
             -27 * a * a * d * d)
    disc = sum(terms)
    if abs(disc) <= 1e-12 * max(abs(t) for t in terms):
        raise ValueError("discriminant sign unresolved")
    return 3 if disc > 0 else 1


def cubic_residual(coeffs, x: float) -> float:
    """|cubic(x)| relative to its largest term; ~eps at a true root."""
    a, b, c, d = (float(v) for v in coeffs)
    terms = (a * x**3, b * x**2, c * x, d)
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / scale if scale else 0.0


def linear_transmission(cfg: dict, delta_p) -> np.ndarray:
    """T = |gamma_c B / (B D_c - 2 gamma_c gamma_e C)|^2, B = D_e - Omega^2/(4 D_r)."""
    cav, ens, ryd, drv = cfg["cavity"], cfg["ensemble"], cfg["rydberg"], cfg["drive"]
    dp = np.asarray(delta_p, dtype=float)
    D_e = dp + 1j * ens["gamma_e"]
    D_r = dp + drv["delta_cf"] + 1j * ryd["gamma_r"]
    D_c = dp - cav["delta_bg"] + 1j * cav["gamma_c"]
    branch = D_e - drv["omega_cf"] ** 2 / (4.0 * D_r)
    coop2 = 2.0 * cav["gamma_c"] * ens["gamma_e"] * ens["cooperativity"]
    return np.abs(cav["gamma_c"] * branch / (branch * D_c - coop2)) ** 2


def density_matrix_errors(rho) -> tuple[float, float, float]:
    """(|Tr rho - 1|, max |rho - rho^+|, min eigenvalue of the Hermitian part)."""
    rho = np.asarray(rho, dtype=complex)
    trace_err = abs(np.trace(rho) - 1.0)
    herm_err = float(np.max(np.abs(rho - rho.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return trace_err, herm_err, min_eig


def density_matrix_ok(rho) -> bool:
    trace_err, herm_err, min_eig = density_matrix_errors(rho)
    return trace_err < 1e-8 and herm_err < 1e-10 and min_eig > -1e-8


def recovered(estimate: float, truth: float, ci95: float, floor: float) -> bool:
    """Estimate within 2.5 half-widths of its 95% interval (about 5 sigma)
    of the generating value, plus an absolute floor for model bias."""
    return math.isfinite(estimate) and abs(estimate - truth) <= 2.5 * ci95 + floor
