"""rydcav: optical response of a cold Rydberg-atom ensemble in a cavity.

Linear intracavity EIT spectra, mean-field Rydberg-blockade nonlinearity,
semi-classical bubble dynamics with dark-state decay, and least-squares
spectroscopy fitting.

The package logs to ``logging.getLogger("rydcav")`` (one DEBUG record per
steady solve, ``evolve``, mean-field scan and fit); it is silent unless the
application configures logging.
"""

import logging

from ._version import __version__
from .bubble import (
    BubbleOperators,
    BubbleState,
    TimeSeries,
    build_operators,
    evolve,
    steady_transmission_bubble,
)
from .errors import ConfigError, IntegrationError, SingularParameterError, SolverError
from .fitting import FitProblem, FitResult, XiEstimate, fit, fit_xi_series
from .interactions import (
    atoms_per_bubble,
    blockade_volume,
    c6_d,
    c6_s,
    kappa,
)
from .linear import Spectrum, scan_linear, transmission_linear
from .meanfield import (
    MeanFieldCurve,
    MeanFieldSolution,
    scan_meanfield,
    solve_self_consistent,
    transmission_meanfield,
)
from .params import (
    CavityParams,
    DriveParams,
    EnsembleParams,
    PhysicalParams,
    RydbergLevel,
    ScanSpec,
    linewidth_from_geometry,
    load_config,
    params_from_dict,
    params_to_dict,
    to_angular,
    validate,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    "BubbleOperators", "BubbleState", "TimeSeries", "build_operators",
    "evolve", "steady_transmission_bubble",
    "ConfigError", "IntegrationError", "SingularParameterError", "SolverError",
    "FitProblem", "FitResult", "XiEstimate", "fit", "fit_xi_series",
    "atoms_per_bubble", "blockade_volume", "c6_d", "c6_s", "kappa",
    "Spectrum", "scan_linear", "transmission_linear",
    "MeanFieldCurve", "MeanFieldSolution", "scan_meanfield",
    "solve_self_consistent", "transmission_meanfield",
    "CavityParams", "DriveParams", "EnsembleParams", "PhysicalParams",
    "RydbergLevel", "ScanSpec",
    "linewidth_from_geometry", "load_config", "params_from_dict",
    "params_to_dict", "to_angular", "validate",
]
