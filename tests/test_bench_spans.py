"""The benchmark's tracer wraps package names by attribute: each must exist.

``bench/spans.py`` replaces public callables of rydcav by timed wrappers.
Installing it here makes a rename or deletion of any wrapped name fail
the test suite, not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from rydcav import fitting, interactions, meanfield
from rydcav.params import ScanSpec

from conftest import make_params

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_remove_restores_every_name():
    spans = _load_spans()
    originals = {name: getattr(meanfield, name) for name in
                 ("scan_meanfield", "solve_self_consistent",
                  "transmission_from_solution", "eit_factors")}
    originals["blockade_volume"] = interactions.blockade_volume
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert meanfield.scan_meanfield is not originals["scan_meanfield"]
        meanfield.scan_meanfield(make_params(), ScanSpec(-5.0, 5.0, 11))
    finally:
        tracer.remove()
    assert tracer.count["meanfield.scan_meanfield"] == 1
    assert tracer.count["interactions.blockade_volume"] >= 1
    assert np.isfinite(tracer.seconds["meanfield.scan_meanfield"])
    for name, fn in originals.items():
        owner = interactions if name == "blockade_volume" else meanfield
        assert getattr(owner, name) is fn


def test_mean_field_fit_solves_are_booked_to_meanfield():
    # each model run of a mean-field fit calls the wrapped curve, so its
    # solve is meanfield time, not fitting time
    grid = np.linspace(-30.0, 30.0, 201)
    p = make_params(alpha=float(np.sqrt(80.0)))
    problem = fitting.FitProblem(
        x=grid, y=meanfield.transmission_curve(p, grid).transmission,
        model="meanfield", base_params=p,
        free=("drive.omega_cf", "ensemble.cooperativity"),
        initial=np.array([4.4, 4.6]))
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        res = fitting.fit(problem)
    finally:
        tracer.remove()
    assert res.converged
    assert tracer.count["meanfield.transmission_curve"] == res.model_evals
    assert tracer.layer_self["meanfield"] > 0.0
