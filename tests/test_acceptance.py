"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and also
enforces the criterion's runtime budget.  Budgets are wall-clock seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.optimize

from rydcav.bubble import TimeSeries, evolve
from rydcav.cli import main
from rydcav.fitting import FitProblem, fit, fit_xi_series
from rydcav.interactions import c6_d, c6_s
from rydcav.linear import transmission_linear
from rydcav.meanfield import photon_rate_to_alpha, transmission_meanfield
from rydcav.meanfield import solve_self_consistent
from rydcav.params import linewidth_from_geometry, params_to_dict, set_paths

from conftest import make_params
from oracles import dynamical_residual, oracle_roots, random_paper_scale_params


@contextmanager
def criterion(num, description, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num:2d}] PASS in {elapsed:7.2f}s (limit {limit_s:g}s): "
          f"{description}")
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s budget"


# ---------------------------------------------------------------------------

def test_criterion_1_cavity_linewidth_consistency():
    with criterion(1, "geometric cavity linewidth matches the quoted width", 0.001):
        fwhm = linewidth_from_geometry(0.066, 120.0)
        assert abs(fwhm - 18.94) < 0.05
        assert abs(fwhm - 2 * 10.0) / (2 * 10.0) < 0.10


def test_criterion_2_c6_anchors():
    with criterion(2, "C6 anchors: S at n=60 and D at n=56 exact", 0.001):
        assert c6_s(60) == -140.0
        assert c6_d(56) == 45.0


def test_criterion_3_linear_limit_identity():
    with criterion(3, "mean-field with kappa=0 equals linear formula, "
                      "200 random draws to 1e-10", 1.0):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = random_paper_scale_params(rng, c6_override=0.0)
            dp = float(rng.uniform(-30.0, 30.0))
            t_mf = transmission_meanfield(p, delta_p=dp)
            t_lin = transmission_linear(p, dp)
            assert abs(t_mf - t_lin) <= 1e-10 * max(t_lin, 1e-30)


def test_criterion_4_empty_cavity_and_eit_limits():
    with criterion(4, "empty-cavity unity and on-resonance EIT closed form "
                      "to 1e-12", 1.0):
        p0 = make_params(cooperativity=0.0, omega_cf=0.0)
        assert abs(transmission_linear(p0, 0.0) - 1.0) < 1e-12

        gammas_e = (1.0, 2.0, 3.0, 5.0, 8.0)
        gammas_r = (0.05, 0.1, 0.2, 0.5)
        omegas = (1.0, 2.0, 4.0, 6.0, 8.0)
        count = 0
        for i, ge in enumerate(gammas_e):
            for j, gr in enumerate(gammas_r):
                for k, om in enumerate(omegas):
                    coop = 1.0 + ((i * 20 + j * 5 + k) % 7)
                    p = make_params(gamma_e=ge, gamma_r=gr, omega_cf=om,
                                    cooperativity=coop)
                    v = ge + om * om / (4.0 * gr)
                    want = v * v / (v + 2.0 * ge * coop) ** 2 * 1.0
                    want = (v / (v + 2.0 * ge * coop)) ** 2
                    got = transmission_linear(p, 0.0)
                    assert abs(got - want) <= 1e-12 * want
                    count += 1
        assert count == 100


def test_criterion_5_meanfield_oracle_equivalence():
    with criterion(5, "solver equals dense sign-scan oracle on 100 draws; "
                      "dynamical equations hold", 30.0):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p = random_paper_scale_params(rng)
            dp = float(rng.uniform(-20.0, 20.0))
            sol = solve_self_consistent(p, delta_p=dp)
            roots = oracle_roots(p, dp)
            assert min(abs(sol.x - r) for r in roots) < 1e-8
            assert dynamical_residual(p, sol, delta_p=dp) < 1e-9


def test_criterion_6_blockade_monotonicity_and_n_ordering():
    with criterion(6, "transparency loss grows with photon rate, faster for "
                      "higher n (S series)", 60.0):
        rates = np.linspace(0.0, 30.0, 11)
        norm = {}
        for n in (56, 60, 70, 79):
            ts = []
            seed = 0.0
            for rate in rates:
                p = make_params(n=n, alpha=photon_rate_to_alpha(float(rate), 10.0))
                sol = solve_self_consistent(p, x_seed=seed, delta_p=0.0)
                seed = sol.x
                from rydcav.meanfield import transmission_from_solution

                ts.append(transmission_from_solution(p, sol, delta_p=0.0))
            ts = np.asarray(ts)
            norm[n] = ts / ts[0]
            assert np.all(np.diff(norm[n]) <= 1e-12), f"n={n} not non-increasing"
        drop56 = 1.0 - norm[56]
        drop79 = 1.0 - norm[79]
        assert np.all(drop79[1:] > drop56[1:])


def _transient_params(xi=2.0, n=85, alpha=3.0):
    return make_params(n=n, series="D", gamma_r=0.05, gamma_s=0.002,
                       xi=xi, alpha=alpha)


def test_criterion_7_bubble_invariants_and_cutoff():
    with criterion(7, "density-matrix invariants over 100 us and boson-cutoff "
                      "convergence", 120.0):
        p = _transient_params()
        series4 = evolve(p, t_end=100.0, dt=1.0, nmax=4, keep_states=True)
        for st in series4.states:
            assert st.trace_error < 1e-8
            assert st.hermiticity_error < 1e-10
            assert st.min_eigenvalue > -1e-8
        series6 = evolve(p, t_end=100.0, dt=1.0, nmax=6)
        scale = series6.transmission.max()
        assert np.abs(series4.transmission - series6.transmission).max() \
            < 0.01 * scale


def test_criterion_8_bubble_linear_reduction():
    with criterion(8, "bubble model reduces to the linear spectrum at weak "
                      "drive (11 detunings, 2%)", 300.0):
        for dp in np.linspace(-20.0, 20.0, 11):
            p = make_params(n=85, series="D", gamma_r=0.2, gamma_s=0.2,
                            xi=0.0, alpha=0.05, delta_p=float(dp))
            series = evolve(p, t_end=25.0, dt=12.5, nmax=4, n_b=1.0)
            want = transmission_linear(p, float(dp))
            assert series.transmission[-1] == pytest.approx(want, rel=0.02)


def test_criterion_9_transient_timescale():
    with criterion(9, "dark-state transient decay time in [3, 30] us", 120.0):
        p = _transient_params(xi=2.0)
        series = evolve(p, t_end=40.0, dt=0.5, nmax=4)
        t, tr = series.t, series.transmission
        mask = t >= 1.5  # skip the cavity/EIT ring-up
        t_fit, y_fit = t[mask], tr[mask]

        def exp_decay(tt, amp, tau, base):
            return amp * np.exp(-tt / tau) + base

        p0 = (y_fit[0] - y_fit[-1], 10.0, y_fit[-1])
        popt, _ = scipy.optimize.curve_fit(exp_decay, t_fit, y_fit, p0=p0,
                                           maxfev=20000)
        tau = popt[1]
        assert 3.0 <= tau <= 30.0, f"fitted decay time {tau:.2f} us"


XI_LEVELS = ((60, 1.8), (66, 2.2), (77, 2.3), (85, 1.1))
_FIT_OPTS = {"nmax": 2, "rtol": 1e-5, "atol": 1e-8}
_FIT_KW = {"xtol": 1e-4, "ftol": 1e-6}


def test_criterion_10_xi_round_trip():
    with criterion(10, "dark-state rates {1.8, 2.2, 2.3, 1.1} MHz recovered; "
                       "CI coverage >= 90/100 at 2% noise", 600.0):
        clean = {}
        base = {}
        for n, xi in XI_LEVELS:
            p_true = _transient_params(xi=xi, n=n)
            clean[n] = evolve(p_true, t_end=16.0, dt=1.0, nmax=2, rtol=1e-7)
            # fits start from a deliberately wrong rate
            base[n] = set_paths(p_true, {"rydberg.xi": xi * 1.3})

        entries = [(n, clean[n]) for n, _ in XI_LEVELS]
        estimates = fit_xi_series(entries, base, model_options=_FIT_OPTS,
                                  **_FIT_KW)
        for (n, xi), est in zip(XI_LEVELS, estimates):
            assert est.converged, f"n={n} did not converge"
            assert abs(est.xi - xi) / xi <= 0.10, (
                f"n={n}: {est.xi:.3f} vs {xi}")

        rng = np.random.default_rng(97)
        hits = 0
        trials = 0
        for rep in range(25):
            for n, xi in XI_LEVELS:
                sigma = 0.02 * clean[n].transmission.max()
                noisy_t = clean[n].transmission + sigma * rng.standard_normal(
                    clean[n].t.size)
                noisy = TimeSeries(clean[n].t, noisy_t, clean[n].pop_R,
                                   clean[n].pop_S, clean[n].trace_error)
                est = fit_xi_series([(n, noisy)], base,
                                    model_options=_FIT_OPTS, **_FIT_KW)[0]
                trials += 1
                if est.converged and abs(est.xi - xi) <= est.ci95:
                    hits += 1
        assert trials == 100
        assert hits >= 90, f"coverage {hits}/100"


def test_criterion_11_linear_fit_round_trip():
    with criterion(11, "linear-EIT fit recovers (gamma_c, C, Omega, gamma_r); "
                       "CI coverage >= 90/100 at 1% noise", 120.0):
        free = ("cavity.gamma_c", "ensemble.cooperativity", "drive.omega_cf",
                "rydberg.gamma_r")
        truth = np.array([10.0, 5.0, 4.0, 0.2])
        grid = np.linspace(-50.0, 50.0, 401)
        p_true = make_params()
        y = transmission_linear(p_true, grid)

        res = fit(FitProblem(x=grid, y=y, model="linear_eit",
                             base_params=p_true, free=free,
                             initial=truth * 1.15))
        np.testing.assert_allclose(res.best_fit, truth, rtol=1e-6)

        # 1% relative noise with matched inverse-variance weights
        sigma = 0.01 * np.maximum(y, 0.02)
        weights = 1.0 / sigma**2
        rng = np.random.default_rng(13)
        hits = np.zeros(4)
        for _ in range(100):
            noisy = y + sigma * rng.standard_normal(y.size)
            res = fit(FitProblem(x=grid, y=noisy, model="linear_eit",
                                 base_params=p_true, free=free,
                                 initial=truth * 1.1, weights=weights))
            assert res.converged
            np.testing.assert_allclose(res.best_fit, truth, rtol=0.05)
            hits += (np.abs(res.best_fit - truth) <= res.ci95)
        assert np.all(hits >= 90), f"per-parameter coverage {hits}"


def _run_twice(tmp_path, tag, argv_builder):
    outputs = []
    for rep in (0, 1):
        out = tmp_path / f"{tag}_{rep}.out"
        rc = main(argv_builder(str(out)))
        assert rc == 0, f"{tag} exited {rc}"
        outputs.append(out.read_bytes())
    return outputs[0] == outputs[1]


def test_criterion_12_cli_determinism(tmp_path, capsys):
    with criterion(12, "every CLI subcommand is byte-deterministic for a "
                       "fixed config and seed", 60.0):
        import json

        tree = params_to_dict(make_params())
        tree["scan"] = {"start": -20.0, "stop": 20.0, "npoints": 41}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tree))
        tree_d = params_to_dict(_transient_params())
        cfg_d = tmp_path / "cfg_d.json"
        cfg_d.write_text(json.dumps(tree_d))

        # stdout-only subcommands
        for argv in (["c6", "--series", "S", "--n", "60"],
                     ["validate", "--config", str(cfg)]):
            outs = []
            for _ in range(2):
                assert main(argv) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] and outs[0]

        assert _run_twice(tmp_path, "linear", lambda o: [
            "linear-scan", "--config", str(cfg), "--out", o,
            "--noise", "0.02", "--seed", "11"])
        assert _run_twice(tmp_path, "meanfield", lambda o: [
            "meanfield-scan", "--config", str(cfg), "--out", o,
            "--override", "scan.npoints=11"])
        assert _run_twice(tmp_path, "evolve", lambda o: [
            "bubble-evolve", "--config", str(cfg_d), "--out", o,
            "--t-end", "3", "--dt", "1", "--nmax", "2", "--noise", "0.01",
            "--seed", "4"])
        assert _run_twice(tmp_path, "steady", lambda o: [
            "bubble-steady", "--config", str(cfg_d), "--out", o,
            "--nmax", "2", "--t-max", "20"])

        data = tmp_path / "fixture.csv"
        main(["linear-scan", "--config", str(cfg), "--out", str(data),
              "--noise", "0.01", "--seed", "8"])
        assert _run_twice(tmp_path, "fiteit", lambda o: [
            "fit-eit", "--config", str(cfg), "--data", str(data), "--out", o])

        tdata = tmp_path / "transient.csv"
        main(["bubble-evolve", "--config", str(cfg_d), "--out", str(tdata),
              "--t-end", "8", "--dt", "1", "--nmax", "2", "--rtol", "1e-6"])
        assert _run_twice(tmp_path, "fittrans", lambda o: [
            "fit-transient", "--config", str(cfg_d), "--data", str(tdata),
            "--out", o, "--nmax", "2", "--rtol", "1e-5",
            "--override", "rydberg.xi=1.5"])
