import logging
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcav import bubble, fitting
from rydcav.bubble import evolve
from rydcav.errors import IntegrationError, SolverError
from rydcav.fitting import (
    FitProblem,
    XiEstimate,
    fit,
    fit_xi_series,
    jacobian,
    poisson_weights,
)
from rydcav.linear import transmission_linear
from rydcav.params import ScanSpec

from conftest import make_params

EIT_FREE = ("cavity.gamma_c", "ensemble.cooperativity", "drive.omega_cf",
            "rydberg.gamma_r")
EIT_TRUTH = np.array([10.0, 5.0, 4.0, 0.2])


def eit_problem(y, initial=None, weights=None):
    grid = np.linspace(-50.0, 50.0, 201)
    return FitProblem(x=grid, y=y, model="linear_eit",
                      base_params=make_params(), free=EIT_FREE,
                      initial=initial, weights=weights)


@pytest.fixture
def clean_spectrum():
    grid = np.linspace(-50.0, 50.0, 201)
    return grid, transmission_linear(make_params(), grid)


class TestLinearRoundTrip:
    def test_zero_noise_recovery(self, clean_spectrum, monkeypatch):
        def no_differences(*args, **kwargs):
            raise AssertionError("central-difference Jacobian used")

        monkeypatch.setattr(fitting, "jacobian", no_differences)
        _, y = clean_spectrum
        res = fit(eit_problem(y, initial=np.array([12.0, 4.0, 5.0, 0.35])))
        assert res.converged
        np.testing.assert_allclose(res.best_fit, EIT_TRUTH, rtol=1e-6)
        assert res.jacobian_source == "closed-form"
        # one run per residual, rejected trial steps included, and none
        # per Jacobian
        assert len(res.objective_history) <= res.model_evals <= res.iterations + 1

    def test_one_debug_record_per_fit(self, clean_spectrum, caplog):
        caplog.set_level(logging.DEBUG, logger="rydcav")
        _, y = clean_spectrum
        res = fit(eit_problem(y, initial=np.array([12.0, 4.0, 5.0, 0.35])))
        records = [r for r in caplog.records if r.name.startswith("rydcav")]
        assert len(records) == 1
        assert records[0].name == "rydcav.fitting"
        assert records[0].levelno == logging.DEBUG
        assert records[0].getMessage() == (
            f"linear_eit fit of 4 parameter(s): {res.iterations} iteration(s), "
            f"{res.model_evals} model evaluations, {res.message}, "
            f"closed-form Jacobian")

    def test_noisy_recovery_and_coverage(self, clean_spectrum, rng):
        # 1% relative noise with a small floor, fitted with matched
        # inverse-variance weights (photon-counting style error bars)
        _, y = clean_spectrum
        sigma = 0.01 * np.maximum(y, 0.02)
        weights = 1.0 / sigma**2
        hits = np.zeros(4)
        for _ in range(10):
            noisy = y + sigma * rng.standard_normal(y.size)
            res = fit(eit_problem(noisy, initial=np.array([11.0, 4.5, 4.5, 0.25]),
                                  weights=weights))
            assert res.converged
            np.testing.assert_allclose(res.best_fit, EIT_TRUTH, rtol=0.05)
            hits += (np.abs(res.best_fit - EIT_TRUTH) <= res.ci95)
        assert np.all(hits >= 8)

    def test_poisson_weighted_fit(self, clean_spectrum, rng):
        _, y = clean_spectrum
        noisy = np.maximum(y + 0.005 * rng.standard_normal(y.size), 1e-4)
        res = fit(eit_problem(noisy, weights=poisson_weights(noisy)))
        np.testing.assert_allclose(res.best_fit, EIT_TRUTH, rtol=0.15)


class TestEngineProperties:
    def test_objective_monotone_over_accepted_steps(self, clean_spectrum, rng):
        _, y = clean_spectrum
        noisy = y + 0.02 * rng.standard_normal(y.size)
        res = fit(eit_problem(noisy, initial=np.array([14.0, 3.0, 6.0, 0.5])))
        h = res.objective_history
        assert len(h) >= 3
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_jacobian_richardson_ratio(self, clean_spectrum):
        grid, _ = clean_spectrum
        params = make_params()

        def model(theta):
            from rydcav.params import set_paths

            p = set_paths(params, dict(zip(EIT_FREE, theta)))
            return transmission_linear(p, grid)

        theta = EIT_TRUTH.copy()
        j1 = jacobian(model, theta, rel_step=1e-3)
        j2 = jacobian(model, theta, rel_step=5e-4)
        j4 = jacobian(model, theta, rel_step=2.5e-4)
        num = np.linalg.norm(j1 - j2)
        den = np.linalg.norm(j2 - j4)
        assert 3.5 <= num / den <= 4.5

    def test_reordering_invariance(self, clean_spectrum, rng):
        grid, y = clean_spectrum
        noisy = y + 0.01 * rng.standard_normal(y.size)
        # a well-conditioned two-parameter instance: reordering only permutes
        # the sums inside J^T J and J^T r
        perm = rng.permutation(y.size)
        free = ("cavity.gamma_c", "ensemble.cooperativity")
        tight = dict(xtol=1e-13, ftol=1e-15)
        res_a = fit(FitProblem(x=grid, y=noisy, model="linear_eit",
                               base_params=make_params(), free=free), **tight)
        res_b = fit(FitProblem(x=grid[perm], y=noisy[perm], model="linear_eit",
                               base_params=make_params(), free=free), **tight)
        np.testing.assert_allclose(res_a.best_fit, res_b.best_fit, rtol=1e-10)

    def test_weight_rescaling_invariance(self, clean_spectrum, rng):
        grid, y = clean_spectrum
        noisy = y + 0.01 * rng.standard_normal(y.size)
        w = np.ones_like(y)
        res_a = fit(eit_problem(noisy, weights=w))
        res_b = fit(eit_problem(noisy, weights=17.0 * w))
        np.testing.assert_allclose(res_a.best_fit, res_b.best_fit, rtol=1e-10)
        np.testing.assert_allclose(res_a.ci95, res_b.ci95, rtol=1e-8)

    def test_singular_direction_marks_ci_unavailable(self, clean_spectrum):
        # xi does not enter the linear model: its column of J is zero
        _, y = clean_spectrum
        prob = FitProblem(x=np.linspace(-50, 50, 201), y=y, model="linear_eit",
                          base_params=make_params(),
                          free=("cavity.gamma_c", "rydberg.xi"))
        res = fit(prob)
        assert np.isnan(res.ci95[1])
        assert np.isfinite(res.ci95[0])
        assert res.best_fit[0] == pytest.approx(10.0, rel=1e-6)

    def test_nan_data_rejected_fast(self, clean_spectrum):
        _, y = clean_spectrum
        bad = y.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError):
            fit(eit_problem(bad))


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError):
            FitProblem(x=np.arange(5.0), y=np.ones(5), model="linear_eit",
                       base_params=make_params(), free=EIT_FREE)

    def test_guess_outside_bounds(self):
        with pytest.raises(ValueError):
            FitProblem(x=np.linspace(-5, 5, 20), y=np.ones(20),
                       model="linear_eit", base_params=make_params(),
                       free=("cavity.gamma_c",), initial=np.array([-1.0]))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            FitProblem(x=np.arange(10.0), y=np.ones(10), model="mystery",
                       base_params=make_params(), free=("cavity.gamma_c",))

    def test_unfittable_parameter(self):
        # a path with a value that is not a float parameter of the physics
        # fails when the problem is built, not at its first Jacobian
        params = make_params(scan=ScanSpec(-5.0, 5.0, 11))
        for path in ("ensemble.atom_number", "scan.start"):
            for model in ("linear_eit", "meanfield"):
                with pytest.raises(ValueError, match=re.escape(
                        f"model in {path!r}: not a float parameter")):
                    FitProblem(x=np.arange(10.0), y=np.ones(10), model=model,
                               base_params=params, free=(path,))

    def test_unknown_path(self):
        with pytest.raises(KeyError):
            FitProblem(x=np.arange(10.0), y=np.ones(10), model="linear_eit",
                       base_params=make_params(), free=("drive.bogus",))

    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, field, bad):
        data = {"x": np.arange(10.0), "y": np.ones(10)}
        data[field][4] = bad
        with pytest.raises(ValueError, match="x and y must be finite"):
            FitProblem(model="linear_eit", base_params=make_params(),
                       free=("cavity.gamma_c",), **data)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            FitProblem(x=np.arange(10.0), y=np.ones(10), model="linear_eit",
                       base_params=make_params(), free=("cavity.gamma_c",),
                       weights=np.zeros(10))


    @pytest.mark.parametrize("free, initial", [
        # one value for two paths would broadcast onto both
        (("ensemble.cooperativity", "drive.omega_cf"), [5.5]),
        (("ensemble.cooperativity",), [5.5, 4.0]),
        (("ensemble.cooperativity",), [[5.5]]),
    ], ids=["short", "long", "2-d"])
    def test_initial_of_the_wrong_shape_rejected(self, free, initial):
        with pytest.raises(ValueError, match="one finite value per free parameter"):
            FitProblem(x=np.arange(10.0), y=np.ones(10), model="linear_eit",
                       base_params=make_params(), free=free, initial=initial)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_rejected(self, bad):
        with pytest.raises(ValueError, match="one finite value per free parameter"):
            FitProblem(x=np.arange(10.0), y=np.ones(10), model="linear_eit",
                       base_params=make_params(),
                       free=("ensemble.cooperativity", "drive.omega_cf"),
                       initial=[5.5, bad])

    def test_duplicate_free_paths_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "must be distinct, got 'cavity.gamma_c' more than once")):
            FitProblem(x=np.arange(10.0), y=np.ones(10), model="linear_eit",
                       base_params=make_params(),
                       free=("cavity.gamma_c", "drive.omega_cf", "cavity.gamma_c"))

    def test_nan_weights_rejected(self):
        # NaN compares false with everything, so a `<= 0` check lets it pass
        weights = np.ones(10)
        weights[4] = np.nan
        with pytest.raises(ValueError, match="weights must be positive, finite"):
            FitProblem(x=np.arange(10.0), y=np.ones(10), model="linear_eit",
                       base_params=make_params(), free=("cavity.gamma_c",),
                       weights=weights)

    def test_unknown_model_option_rejected(self):
        with pytest.raises(ValueError, match=r"unknown model option\(s\) \['nmx'\]"):
            FitProblem(x=np.arange(10.0), y=np.ones(10),
                       model="bubble_transient", base_params=transient_params(),
                       free=("rydberg.xi",), model_options={"nmx": 2})
        # a series of fits stops before its first one instead of flagging
        # every entry as failed
        with pytest.raises(ValueError, match="unknown model option"):
            fit_xi_series([(85, None)], {85: transient_params()},
                          model_options={"nmax": 2, "nmx": 2})


    @pytest.mark.parametrize("options", [{"rtol": -1}, {"nmax": 2.0}, {"nmax": 0},
                                         {"atol": float("nan")}, {"rtol": True},
                                         {"rtol": "1e-3"}, {"atol": True}],
                             ids=["negative-rtol", "float-nmax", "zero-nmax",
                                  "nan-atol", "bool-rtol", "str-rtol", "bool-atol"])
    def test_bad_model_option_value_rejected_before_any_run(self, options,
                                                            monkeypatch):
        # a value the transient refuses was flagged per level as xi = NaN
        runs = []
        monkeypatch.setattr(bubble, "evolve", lambda *a, **k: runs.append(a))
        (key,) = options
        t = np.linspace(0.0, 2.0, 5)
        with pytest.raises(ValueError, match=f"^{key} must be"):
            FitProblem(x=t, y=np.ones(5), model="bubble_transient",
                       base_params=transient_params(), free=("rydberg.xi",),
                       model_options=options)
        with pytest.raises(ValueError, match=f"^{key} must be"):
            fit_xi_series([(85, None), (60, None)],
                          {85: transient_params(), 60: transient_params()},
                          model_options=options)
        assert runs == []


def transient_params(xi=2.0):
    return make_params(n=85, series="D", gamma_r=0.05, gamma_s=0.002,
                       xi=xi, alpha=3.0)


_SHORT = evolve(transient_params(), t_end=2.0, dt=0.5, nmax=2, rtol=1e-6)

_TOLERANCES = st.one_of(
    st.sampled_from([0.0, -1.0, -1e-6, float("nan"), float("inf"), True]),
    st.floats(1e-6, 1e-2))


@settings(max_examples=40, deadline=None)
@given(options=st.fixed_dictionaries({}, optional={
    "nmax": st.sampled_from([-1, 0, 1, 2, 1.0, 2.0, 1.5, True, False,
                             np.int64(2), np.int32(1), "2"]),
    "rtol": _TOLERANCES, "atol": _TOLERANCES}))
def test_model_options_fail_at_construction_or_not_at_all(options):
    # a bad value raises when the problem is built, never from a model run
    try:
        prob = FitProblem(x=_SHORT.t, y=_SHORT.transmission,
                          model="bubble_transient", base_params=transient_params(),
                          free=("rydberg.xi",), model_options=options)
    except ValueError:
        return
    try:
        prob.model_curve(prob.initial)
    except ValueError as exc:
        pytest.fail(f"{options} passed FitProblem, but the run refused it: {exc}")
    except (IntegrationError, SolverError):
        pass   # the run failed, not its options


class TestBubbleTransient:
    def test_xi_round_trip(self):
        p = transient_params(xi=2.0)
        gen = evolve(p, t_end=15.0, dt=1.0, nmax=2, rtol=1e-7)
        prob = FitProblem(x=gen.t, y=gen.transmission, model="bubble_transient",
                          base_params=p, free=("rydberg.xi",),
                          initial=np.array([1.4]),
                          model_options={"nmax": 2, "rtol": 1e-6})
        res = fit(prob, xtol=1e-5, ftol=1e-8)
        assert res.converged
        assert res.best_fit[0] == pytest.approx(2.0, rel=0.10)

    def test_xi_fit_takes_the_jacobian_from_the_model_run(self, monkeypatch):
        p = transient_params(xi=2.0)
        gen = evolve(p, t_end=15.0, dt=1.0, nmax=2, rtol=1e-7)
        prob = FitProblem(x=gen.t, y=gen.transmission, model="bubble_transient",
                          base_params=p, free=("rydberg.xi",),
                          initial=np.array([1.4]),
                          model_options={"nmax": 2, "rtol": 1e-6})
        calls = []
        model_curve = FitProblem.model_curve

        def counted(self, theta):
            calls.append(float(theta[0]))
            return model_curve(self, theta)

        def no_differences(*args, **kwargs):
            raise AssertionError("central-difference Jacobian used")

        monkeypatch.setattr(FitProblem, "model_curve", counted)
        monkeypatch.setattr(fitting, "jacobian", no_differences)
        res = fit(prob, xtol=1e-5, ftol=1e-8)
        assert res.converged
        assert res.best_fit[0] == pytest.approx(2.0, rel=0.10)
        assert res.jacobian_source == "forward-sensitivity"
        assert res.model_evals == len(calls) <= res.iterations + 1
        report = res.as_dict()
        assert report["jacobian_source"] == "forward-sensitivity"
        assert report["model_evals"] == len(calls)

    def test_solver_counts_sum_over_the_model_runs(self, monkeypatch):
        p = transient_params(xi=2.0)
        gen = evolve(p, t_end=6.0, dt=1.0, nmax=2, rtol=1e-7)
        prob = FitProblem(x=gen.t, y=gen.transmission, model="bubble_transient",
                          base_params=p, free=("rydberg.xi",),
                          initial=np.array([1.6]),
                          model_options={"nmax": 2, "rtol": 1e-6})
        runs = []
        evolve_run = fitting.bubble.evolve

        def recorded(*args, **kwargs):
            series = evolve_run(*args, **kwargs)
            runs.append(series.metadata["solver"])
            return series

        monkeypatch.setattr(fitting.bubble, "evolve", recorded)
        res = fit(prob, xtol=1e-5, ftol=1e-8)
        assert res.model_evals == len(runs) >= 2
        keys = ("nfev", "accepted_steps", "rejected_steps", "jacobian_evals",
                "inversions")
        assert res.solver == {k: sum(run[k] for run in runs) for k in keys}
        assert res.as_dict()["solver"] == res.solver
        # the closed-form models run no integrator
        grid = np.linspace(-50.0, 50.0, 201)
        eit = fit(eit_problem(transmission_linear(make_params(), grid)))
        assert eit.solver is None and "solver" not in eit.as_dict()

    def test_exact_jacobian_reuses_the_last_run(self):
        p = transient_params(xi=2.0)
        gen = evolve(p, t_end=6.0, dt=1.0, nmax=2, rtol=1e-7)
        prob = FitProblem(x=gen.t, y=gen.transmission, model="bubble_transient",
                          base_params=p, free=("rydberg.xi",),
                          model_options={"nmax": 2, "rtol": 1e-6})
        prob.model_curve(np.array([2.0]))
        kept = prob.exact_jacobian(np.array([2.0]))
        assert kept is prob.exact_jacobian(np.array([2.0]))
        moved = prob.exact_jacobian(np.array([1.5]))
        assert moved.shape == (gen.t.size, 1)
        assert not np.array_equal(moved, kept)

    def test_every_free_set_takes_the_jacobian_from_the_model_run(
            self, monkeypatch):
        def no_differences(*args, **kwargs):
            raise AssertionError("central-difference Jacobian used")

        monkeypatch.setattr(fitting, "jacobian", no_differences)
        p = transient_params(xi=2.0)
        gen = evolve(p, t_end=6.0, dt=1.0, nmax=2, rtol=1e-7)
        for free, start, truth in (
                (("rydberg.xi",), [1.6], [2.0]),
                (("rydberg.xi", "drive.alpha"), [1.6, 3.2], [2.0, 3.0]),
                (("rydberg.xi", "rydberg.gamma_r"), [1.6, 0.06], [2.0, 0.05])):
            prob = FitProblem(x=gen.t, y=gen.transmission,
                              model="bubble_transient", base_params=p,
                              free=free, initial=np.array(start),
                              model_options={"nmax": 2, "rtol": 1e-6})
            assert prob.jacobian_source == "forward-sensitivity"
            assert prob.exact_jacobian(prob.initial).shape == (gen.t.size,
                                                               len(free))
            res = fit(prob, xtol=1e-5, ftol=1e-8)
            assert res.converged
            assert res.jacobian_source == "forward-sensitivity"
            assert res.model_evals <= res.iterations + 1
            np.testing.assert_allclose(res.best_fit, truth, rtol=0.10)
        assert eit_problem(np.zeros(201)).jacobian_source == "closed-form"

    def test_joint_xi_alpha_fit_covers_the_truth(self):
        # noise-free data; a central-difference Jacobian (relative step 1e-3)
        # at the same rtol ends 6 CI half-widths from the generating values
        truth = np.array([2.0, 3.0])
        p = transient_params(xi=2.0)
        gen = evolve(p, t_end=8.0, dt=1.0, nmax=2, rtol=1e-6)
        prob = FitProblem(x=gen.t, y=gen.transmission, model="bubble_transient",
                          base_params=p, free=("rydberg.xi", "drive.alpha"),
                          initial=np.array([1.5, 3.0]),
                          model_options={"nmax": 2, "rtol": 1e-6})
        res = fit(prob)
        assert res.converged
        assert np.all(np.abs(res.best_fit - truth) <= res.ci95)
        assert res.model_evals < 101

    def test_meanfield_model_selector(self):
        p = make_params(alpha=2.0)
        grid = np.linspace(-10.0, 10.0, 41)
        from rydcav.meanfield import transmission_curve

        y = transmission_curve(p, grid).transmission
        prob = FitProblem(x=grid, y=y, model="meanfield", base_params=p,
                          free=("ensemble.cooperativity",),
                          initial=np.array([4.0]))
        res = fit(prob)
        assert res.best_fit[0] == pytest.approx(5.0, rel=1e-4)
        assert res.jacobian_source == "implicit-differentiation"


def bistable_problem(x, y):
    """Mean-field problem at S n=60, 100 photons/us: 12 of the 401
    detunings in 0-20 MHz have three steady states."""
    p = make_params(n=60, omega_cf=8.0, delta_cf=-10.0,
                    alpha=float(np.sqrt(10.0 * 100.0)))
    return FitProblem(x=x, y=y, model="meanfield", base_params=p,
                      free=("drive.omega_cf", "ensemble.cooperativity"))


class TestClosedFormJacobians:
    def test_nonlinear_fit_solves_once_per_residual(self, monkeypatch):
        from rydcav import meanfield

        def no_differences(*args, **kwargs):
            raise AssertionError("central-difference Jacobian used")

        solves = []
        solve = meanfield._solve

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        grid = np.linspace(-30.0, 30.0, 201)
        p = make_params(alpha=float(np.sqrt(80.0)))
        y = meanfield.transmission_curve(p, grid).transmission
        monkeypatch.setattr(fitting, "jacobian", no_differences)
        monkeypatch.setattr(meanfield, "_solve", counted)
        prob = FitProblem(x=grid, y=y, model="meanfield", base_params=p,
                          free=("drive.omega_cf", "ensemble.cooperativity"),
                          initial=np.array([4.4, 4.6]))
        res = fit(prob)
        assert res.converged
        np.testing.assert_allclose(res.best_fit, [4.0, 5.0], rtol=1e-6)
        assert res.jacobian_source == "implicit-differentiation"
        assert len(solves) == res.model_evals <= res.iterations + 1

    def test_exact_jacobian_reuses_the_solved_populations(self, monkeypatch):
        from rydcav import meanfield

        grid = np.linspace(0.0, 20.0, 401)
        prob = bistable_problem(grid, np.zeros(401))
        theta = prob.initial
        prob.model_curve(theta)

        def no_solve(*args, **kwargs):
            raise AssertionError("steady state solved again")

        monkeypatch.setattr(meanfield, "_solve", no_solve)
        jac = prob.exact_jacobian(theta)
        assert jac.shape == (401, 2) and np.isfinite(jac).all()

    @pytest.mark.parametrize("model", ["meanfield", "linear_eit"])
    def test_jacobian_builds_one_grid_and_sets_no_parameter(self, model,
                                                            monkeypatch):
        from rydcav import meanfield, params

        grid = np.linspace(-30.0, 30.0, 201)
        p = make_params(alpha=float(np.sqrt(80.0)))
        prob = FitProblem(x=grid, y=meanfield.transmission_curve(p, grid).transmission,
                          model=model, base_params=p, free=EIT_FREE)
        theta = prob.initial
        prob.model_curve(theta)
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(meanfield, "_grid", counting("_grid", meanfield._grid))
        for module in (params, meanfield, fitting):
            for name in ("set_path", "set_paths"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counting(name, getattr(module, name)))
        jac = prob.exact_jacobian(theta)
        assert jac.shape == (grid.size, len(EIT_FREE)) and np.isfinite(jac).all()
        # the mean field differentiates on the grid its solve built
        assert calls == ([] if model == "meanfield" else ["_grid"])

    def test_jacobian_on_the_solve_grid_is_bit_identical(self):
        from rydcav import meanfield

        grid = np.linspace(0.0, 20.0, 401)
        prob = bistable_problem(grid, np.zeros(401))
        theta = prob.initial * 1.01
        jac = prob.exact_jacobian(theta)
        p = prob.params_at(theta)
        np.testing.assert_array_equal(
            jac, meanfield.transmission_curve(p, grid).jacobian(prob.free))

    # c6_override and gamma_s are None here: C6 from the series, gamma_s
    # following gamma_r
    @pytest.mark.parametrize("path", ["ensemble.atom_number", "rydberg.n",
                                      "drive.omega", "rydberg.c6_override",
                                      "rydberg.gamma_s"])
    def test_jacobian_in_a_path_that_is_no_float_parameter_raises(self, path):
        from rydcav import meanfield

        grid = np.linspace(-30.0, 30.0, 21)
        p = make_params(alpha=2.0)
        # drive.omega names no parameter at all: a KeyError, as from get_path
        error = KeyError if path == "drive.omega" else ValueError
        for jacobian in (meanfield.transmission_curve(p, grid).jacobian,
                         partial(meanfield.transmission_jacobian, p, grid)):
            with pytest.raises(error, match=re.escape(repr(path))):
                jacobian(("drive.alpha", path))

    def test_fit_from_the_zero_cooperativity_bound(self):
        # the difference step below C = 0 leaves the physical range, where
        # g sqrt(N) = sqrt(2 gamma_c gamma_e C) has no value
        from rydcav.meanfield import transmission_curve

        grid = np.linspace(-20.0, 20.0, 81)
        y = transmission_curve(make_params(alpha=2.0), grid).transmission
        for model in ("meanfield", "linear_eit"):
            if model == "linear_eit":
                y = transmission_linear(make_params(), grid)
            prob = FitProblem(x=grid, y=y, model=model,
                              base_params=make_params(alpha=2.0, cooperativity=0.0),
                              free=("ensemble.cooperativity",))
            assert np.isfinite(prob.exact_jacobian(prob.initial)).all()
            res = fit(prob)
            assert res.best_fit[0] == pytest.approx(5.0, rel=1e-6)

    def test_shuffled_mean_field_data_rejected(self, rng):
        from rydcav.meanfield import transmission_curve

        grid = np.linspace(0.0, 20.0, 401)
        prob = bistable_problem(grid, np.zeros(401))
        y = transmission_curve(prob.base_params, grid).transmission
        perm = rng.permutation(grid.size)
        # continuation in the shuffled order lands on other branches
        shuffled = np.empty_like(y)
        shuffled[perm] = transmission_curve(prob.base_params, grid[perm]).transmission
        assert np.max(np.abs(shuffled - y)) > 1.0
        k = int(np.flatnonzero(np.sign(np.diff(grid[perm]))
                               != np.sign(grid[perm][1] - grid[perm][0]))[0]) + 1
        with pytest.raises(ValueError, match=rf"row {k} \(x = "):
            bistable_problem(grid[perm], y[perm])
        with pytest.raises(ValueError, match=r"row 3 \(x = 0.1\)"):
            bistable_problem(np.r_[grid[:3], grid[2:]], np.r_[y[:3], y[2:]])
        # a down-sweep is a sweep: its rows are in order
        bistable_problem(grid[::-1], y[::-1])
        # the linear spectrum has no branch to follow
        FitProblem(x=grid[perm], y=y[perm], model="linear_eit",
                   base_params=prob.base_params, free=("cavity.gamma_c",))

    def test_rejected_trial_at_the_noise_floor_ends_the_fit(self):
        # a model that resolves theta only to 1e-6, as an integrator at a
        # loose tolerance does: once the fit sits on the optimum's step of
        # that staircase no trial step changes the objective
        x = np.linspace(0.0, 1.0, 21)

        def staircase():
            prob = FitProblem(x=x, y=(2.0 + 2e-7) * x, model="linear_eit",
                              base_params=make_params(),
                              free=("cavity.gamma_c",), initial=np.array([1.0]))
            prob.model_curve = lambda theta: np.round(theta[0] * 1e6) * 1e-6 * x
            prob.exact_jacobian = lambda theta: x[:, None]
            return prob

        res = fit(staircase())
        assert res.converged and res.message == "objective tolerance reached"
        assert res.best_fit[0] == pytest.approx(2.0, abs=1e-6)
        # one rejected trial ends it; without the test on rejected trials
        # (ftol = 0) the damping grows through a run of them
        assert res.model_evals == len(res.objective_history) + 1
        slow = fit(staircase(), ftol=0.0)
        assert slow.message == "step tolerance reached"
        assert slow.model_evals > res.model_evals + 3


class TestXiSeries:
    def test_empty_input(self):
        assert fit_xi_series([], {}) == []

    def test_round_trip_two_levels(self):
        entries = []
        params_by_n = {}
        for n, xi in ((60, 1.8), (85, 1.1)):
            p = make_params(n=n, series="D", gamma_r=0.05, gamma_s=0.002,
                            xi=xi, alpha=3.0)
            params_by_n[n] = p
            entries.append((n, evolve(p, t_end=15.0, dt=1.0, nmax=2, rtol=1e-7)))
        out = fit_xi_series(entries, params_by_n,
                            model_options={"nmax": 2, "rtol": 1e-6},
                            xtol=1e-5, ftol=1e-8)
        assert [e.n for e in out] == [60, 85]
        for est, truth in zip(out, (1.8, 1.1)):
            assert est.converged
            assert est.xi == pytest.approx(truth, rel=0.10)

    def test_failed_entry_isolated(self):
        p = make_params(n=60, series="D", gamma_r=0.05, gamma_s=0.002,
                        xi=1.8, alpha=3.0)
        good = evolve(p, t_end=10.0, dt=1.0, nmax=2, rtol=1e-6)
        bad = evolve(p, t_end=10.0, dt=1.0, nmax=2, rtol=1e-6)
        bad.transmission[:] = np.nan
        out = fit_xi_series([(60, good), (61, bad)], {60: p, 61: p},
                            model_options={"nmax": 2, "rtol": 1e-6},
                            xtol=1e-5, ftol=1e-8)
        assert out[0].converged
        assert not out[1].converged
        assert np.isnan(out[1].xi)
        assert isinstance(out[0], XiEstimate)


def test_default_bounds_lookup():
    lo, hi = fitting.default_bounds("rydberg.gamma_r")
    assert lo > 0 and np.isinf(hi)
    lo, hi = fitting.default_bounds("drive.delta_p")
    assert np.isneginf(lo) and np.isposinf(hi)
