"""Physical parameters, unit conventions and configuration handling.

Unit conventions used throughout the package:

* every user-facing frequency, rate or detuning is an ordinary frequency in
  MHz (the "gamma/2pi = 10 MHz" style); time evolution converts to angular
  units (rad/us) via :func:`to_angular`,
* cavity length in meters, cloud sizes in um, volumes in um^3,
* van der Waals coefficients in GHz.um^6,
* the cavity feeding amplitude ``alpha`` in sqrt(photons).MHz.

``gamma_c`` is the cavity field *half* linewidth (HWHM) so that the
cooperativity ``C = g^2 N / (2 gamma_e gamma_c)`` and the empty-cavity
Lorentzian have consistent widths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

_SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact in the SI


def to_angular(f: float) -> float:
    """Convert an ordinary frequency in MHz to angular units (rad/us)."""
    return TWO_PI * f


def linewidth_from_geometry(length: float, finesse: float) -> float:
    """Cavity FWHM linewidth in MHz from mirror spacing (m) and finesse.

    Computed as the free spectral range c/(2 L) divided by the finesse.
    """
    if length <= 0 or finesse <= 0:
        raise ValueError("length and finesse must be > 0")
    return _SPEED_OF_LIGHT / (2.0 * length * finesse) / 1e6


@dataclass(frozen=True)
class CavityParams:
    length: float = 0.066       # m
    finesse: float = 120.0
    gamma_c: float = 10.0       # MHz, half linewidth
    delta_bg: float = 0.0       # MHz, background cavity-line shift


@dataclass(frozen=True)
class EnsembleParams:
    atom_number: int = 10_000
    cooperativity: float = 5.0
    gamma_e: float = 3.0        # MHz, intermediate-state coherence decay
    cloud_volume: float = 6.8e5  # um^3


@dataclass(frozen=True)
class RydbergLevel:
    n: int = 60
    series: str = "S"           # "S" or "D"
    gamma_r: float = 0.2        # MHz, Rydberg coherence decay
    gamma_s: float | None = None  # MHz, dark-state decay; defaults to gamma_r
    xi: float = 0.0             # MHz, nonlinear dark-state transfer rate
    c6_override: float | None = None  # GHz.um^6

    @property
    def gamma_s_eff(self) -> float:
        return self.gamma_r if self.gamma_s is None else self.gamma_s


@dataclass(frozen=True)
class DriveParams:
    delta_p: float = 0.0        # MHz, probe detuning from |g>-|e>
    delta_cf: float = 0.0       # MHz, control detuning from |e>-|r>
    omega_cf: float = 4.0       # MHz, control Rabi frequency
    alpha: float = 0.1          # sqrt(photons).MHz, cavity feeding amplitude


@dataclass(frozen=True)
class ScanSpec:
    start: float
    stop: float
    npoints: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.npoints)


@dataclass(frozen=True)
class PhysicalParams:
    """Validated bundle of every physical input the models need."""

    cavity: CavityParams = CavityParams()
    ensemble: EnsembleParams = EnsembleParams()
    rydberg: RydbergLevel = RydbergLevel()
    drive: DriveParams = DriveParams()
    scan: ScanSpec | None = None

    def detunings(self, delta_p: float | None = None) -> tuple[float, float, float]:
        """(Delta_e, Delta_r, Delta_c) in MHz for a probe detuning.

        The probe is the scanned laser: Delta_e = delta_p, the two-photon
        detuning is Delta_r = delta_p + delta_cf, and the cavity sees
        Delta_c = delta_p - delta_bg.
        """
        dp = self.drive.delta_p if delta_p is None else delta_p
        return dp, dp + self.drive.delta_cf, dp - self.cavity.delta_bg

    def complex_detunings(self, delta_p=None):
        """(D_e, D_r, D_c) with D_k = Delta_k + i gamma_k, in MHz.

        Complex numbers for one probe detuning; complex arrays, elementwise,
        for an array of them.
        """
        de, dr, dc = self.detunings(delta_p)
        gammas = (self.ensemble.gamma_e, self.rydberg.gamma_r, self.cavity.gamma_c)
        if np.ndim(de):
            return tuple(d + 1j * g for d, g in zip((de, dr, dc), gammas))
        return tuple(complex(d, g) for d, g in zip((de, dr, dc), gammas))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool, a float and
    anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check(errors: list[str], cond: bool, message: str) -> None:
    if not cond:
        errors.append(message)


def require_positive(name: str, value, allow_zero: bool = False) -> float:
    """``value`` as a float; ValueError unless it is finite and > 0.

    ``allow_zero`` admits 0.  A bool (numpy's included) and a string are
    refused, although ``float`` takes both.  The comparisons are written
    so that NaN fails them.
    """
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    v = float(value)
    if not (math.isfinite(v) and (v >= 0.0 if allow_zero else v > 0.0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be {bound} and finite, got {value!r}")
    return v


def validate(params: PhysicalParams) -> PhysicalParams:
    """Check every invariant; return the bundle unchanged if all hold.

    Raises ConfigError listing each violated invariant with its field path.
    Idempotent: a valid bundle is returned as the same object.
    """
    errs: list[str] = []
    cav, ens, ryd, drv = params.cavity, params.ensemble, params.rydberg, params.drive

    _check(errs, _finite(cav.length) and cav.length > 0, "cavity.length must be > 0")
    _check(errs, _finite(cav.finesse) and cav.finesse > 0, "cavity.finesse must be > 0")
    _check(errs, _finite(cav.gamma_c) and cav.gamma_c > 0, "cavity.gamma_c must be > 0")
    _check(errs, _finite(cav.delta_bg), "cavity.delta_bg must be finite")

    _check(errs, is_integer(ens.atom_number) and ens.atom_number >= 1,
           "ensemble.atom_number must be an integer >= 1")
    _check(errs, _finite(ens.cooperativity) and ens.cooperativity >= 0,
           "ensemble.cooperativity must be >= 0")
    _check(errs, _finite(ens.gamma_e) and ens.gamma_e >= 0, "ensemble.gamma_e must be >= 0")
    _check(errs, _finite(ens.cloud_volume) and ens.cloud_volume > 0,
           "ensemble.cloud_volume must be > 0")

    _check(errs, is_integer(ryd.n) and ryd.n >= 5, "rydberg.n must be an integer >= 5")
    _check(errs, ryd.series in ("S", "D"), "rydberg.series must be 'S' or 'D'")
    _check(errs, _finite(ryd.gamma_r) and ryd.gamma_r >= 0, "rydberg.gamma_r must be >= 0")
    _check(errs, ryd.gamma_s is None or (_finite(ryd.gamma_s) and ryd.gamma_s >= 0),
           "rydberg.gamma_s must be >= 0")
    _check(errs, _finite(ryd.xi) and ryd.xi >= 0, "rydberg.xi must be >= 0")
    _check(errs, ryd.c6_override is None or _finite(ryd.c6_override),
           "rydberg.c6_override must be finite")

    _check(errs, _finite(drv.delta_p), "drive.delta_p must be finite")
    _check(errs, _finite(drv.delta_cf), "drive.delta_cf must be finite")
    _check(errs, _finite(drv.omega_cf) and drv.omega_cf >= 0, "drive.omega_cf must be >= 0")
    _check(errs, _finite(drv.alpha) and drv.alpha >= 0, "drive.alpha must be >= 0")

    if params.scan is not None:
        sc = params.scan
        _check(errs, _finite(sc.start) and _finite(sc.stop) and sc.start < sc.stop,
               "scan.start must be < scan.stop")
        _check(errs, is_integer(sc.npoints) and sc.npoints >= 2,
               "scan.npoints must be an integer >= 2")

    if errs:
        raise ConfigError(errs)
    return params


# --- configuration files -------------------------------------------------

_SECTIONS: dict[str, type] = {
    "cavity": CavityParams,
    "ensemble": EnsembleParams,
    "rydberg": RydbergLevel,
    "drive": DriveParams,
    "scan": ScanSpec,
}

_INT_FIELDS = {"atom_number", "n", "npoints"}

#: the path of every float parameter of the physics: the fields of the four
#: physics sections but the integers and ``series``.  Only these can be
#: fitted or differentiated
FLOAT_PATHS = tuple(f"{section}.{f.name}" for section, cls in _SECTIONS.items()
                    if section != "scan" for f in fields(cls)
                    if f.name not in _INT_FIELDS and f.name != "series")


def require_float_paths(params: PhysicalParams, paths, what: str) -> tuple[str, ...]:
    """``paths`` as a tuple, once each is known to be a distinct float
    parameter (:data:`FLOAT_PATHS`) with a value in ``params``.

    A bare string ("parameter paths of ``what`` must be a sequence ...") and
    a path given more than once ("... must be distinct ...") raise
    ValueError, an unknown path KeyError (:func:`get_path`), and every path
    that is not a float parameter or whose value is None ValueError naming
    it: "no derivative of ``what`` in ...: not a float parameter".
    """
    if isinstance(paths, str):
        raise ValueError(f"parameter paths of {what} must be a sequence, not "
                         f"the string {paths!r}")
    paths = tuple(paths)
    repeated = [p for k, p in enumerate(paths) if p in paths[:k]]
    if repeated:
        raise ValueError(f"parameter paths of {what} must be distinct, got "
                         f"{', '.join(map(repr, dict.fromkeys(repeated)))} "
                         f"more than once")
    bad = [p for p in paths if get_path(params, p) is None or p not in FLOAT_PATHS]
    if bad:
        raise ValueError(f"no derivative of {what} in "
                         f"{', '.join(map(repr, bad))}: not a float parameter")
    return paths


def _coerce(section: str, name: str, value: Any, errs: list[str]):
    if value is None:
        return None
    if name == "series":
        return value
    if name in _INT_FIELDS:
        if not is_integer(value):
            errs.append(f"{section}.{name} must be an integer")
            return value
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errs.append(f"{section}.{name} must be a number")
        return value
    return float(value)


def params_from_dict(tree: dict) -> PhysicalParams:
    """Build and validate a parameter bundle from a parsed config tree.

    Unknown sections or keys are rejected.
    """
    if not isinstance(tree, dict):
        raise ConfigError(["config root must be a key/value tree"])
    errs: list[str] = []
    kwargs: dict[str, Any] = {}
    for section, value in tree.items():
        if section not in _SECTIONS:
            errs.append(f"unknown section '{section}'")
            continue
        cls = _SECTIONS[section]
        if not isinstance(value, dict):
            errs.append(f"section '{section}' must be a key/value table")
            continue
        known = {f.name for f in fields(cls)}
        sec_kwargs = {}
        for key, raw in value.items():
            if key not in known:
                errs.append(f"unknown key '{section}.{key}'")
                continue
            sec_kwargs[key] = _coerce(section, key, raw, errs)
        if section == "scan":
            missing = {f.name for f in fields(cls)} - set(sec_kwargs)
            if missing:
                errs.append("scan requires start, stop and npoints")
                continue
        try:
            kwargs[section] = cls(**sec_kwargs)
        except (TypeError, ValueError) as exc:
            errs.append(f"section '{section}': {exc}")
    if errs:
        raise ConfigError(errs)
    return validate(PhysicalParams(**kwargs))


def params_to_dict(params: PhysicalParams) -> dict:
    """Inverse of params_from_dict (drops the scan section when absent)."""
    out: dict[str, Any] = {}
    for section, cls in _SECTIONS.items():
        obj = getattr(params, section)
        if obj is None:
            continue
        out[section] = {f.name: getattr(obj, f.name) for f in fields(cls)}
    return out


def load_config(path) -> PhysicalParams:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            tree = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    return params_from_dict(tree)


# --- dotted-path access (used by overrides and the fitting module) -------

def get_path(params: PhysicalParams, path: str) -> Any:
    section, _, name = path.partition(".")
    if section not in _SECTIONS or not name:
        raise KeyError(f"unknown parameter path '{path}'")
    obj = getattr(params, section)
    if obj is None or name not in {f.name for f in fields(_SECTIONS[section])}:
        raise KeyError(f"unknown parameter path '{path}'")
    return getattr(obj, name)


def set_path(params: PhysicalParams, path: str, value: Any) -> PhysicalParams:
    """Return a new bundle with one field replaced (not re-validated).

    The value is coerced as in a config file: an integer field takes only
    an integer (:func:`is_integer`), stored as an int, and a number field
    only an int or a float, stored as a float (bools and strings refused);
    a refused value raises ConfigError.
    """
    section, _, name = path.partition(".")
    get_path(params, path)  # raises on unknown paths
    errs: list[str] = []
    value = _coerce(section, name, value, errs)
    if errs:
        raise ConfigError(errs)
    return replace(params, **{section: replace(getattr(params, section), **{name: value})})


def set_paths(params: PhysicalParams, updates: dict[str, Any]) -> PhysicalParams:
    for path, value in updates.items():
        params = set_path(params, path, value)
    return params
