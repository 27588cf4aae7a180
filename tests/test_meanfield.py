import numpy as np
import pytest

from rydcav import meanfield
from rydcav.errors import SolverError
from rydcav.linear import transmission_linear
from rydcav.meanfield import (
    alpha_to_photon_rate,
    photon_rate_to_alpha,
    scan_meanfield,
    solve_self_consistent,
    steady_residual,
    transmission_curve,
    transmission_meanfield,
)
from rydcav.params import ScanSpec

from conftest import make_params
from oracles import (
    oracle_cubic,
    oracle_excitation,
    oracle_roots,
    random_paper_scale_params,
)


class TestResidual:
    def test_dark_cavity(self, paper_params):
        from dataclasses import replace

        p = replace(paper_params,
                    drive=replace(paper_params.drive, alpha=0.0))
        assert steady_residual(p, 0.0) == 0.0

    def test_kappa_zero_reduces_to_linear(self):
        p = make_params(c6_override=0.0, alpha=2.0)
        sol = solve_self_consistent(p, delta_p=1.5)
        assert sol.root_count == 1
        t_mf = transmission_meanfield(p, delta_p=1.5)
        t_lin = transmission_linear(p, 1.5)
        assert t_mf == t_lin  # shared evaluation path, bit-for-bit

    def test_residual_matches_oracle_map(self, paper_params):
        xs = np.linspace(0.0, 50.0, 7)
        got = steady_residual(paper_params, xs, delta_p=0.0)
        want = oracle_excitation(paper_params, 0.0, xs) - xs
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_root_against_dense_scan(self, paper_params):
        sol = solve_self_consistent(paper_params, delta_p=0.0)
        roots = oracle_roots(paper_params, 0.0)
        assert min(abs(sol.x - r) for r in roots) < 1e-8


class TestSolver:
    def test_alpha_zero_trivial(self):
        p = make_params(alpha=0.0)
        sol = solve_self_consistent(p)
        assert sol.x == 0.0
        assert sol.a == 0j and sol.b == 0j and sol.c == 0j

    def test_randomized_oracle_agreement(self, rng):
        for _ in range(20):
            p = random_paper_scale_params(rng)
            dp = float(rng.uniform(-20, 20))
            sol = solve_self_consistent(p, delta_p=dp)
            roots = oracle_roots(p, dp)
            nearest = min(roots, key=lambda r: abs(r - 0.0) + abs(r - sol.x))
            assert min(abs(sol.x - r) for r in roots) < 1e-8, (p, dp, roots, nearest)

    def test_dynamical_equations_satisfied(self, rng):
        for _ in range(10):
            p = random_paper_scale_params(rng)
            dp = float(rng.uniform(-10, 10))
            sol = solve_self_consistent(p, delta_p=dp)
            assert meanfield.dynamical_residual(p, sol, delta_p=dp) \
                < 1e-9 * (p.drive.alpha + 1.0)
        # and on the paper-scale set
        p = make_params(alpha=4.0)
        sol = solve_self_consistent(p, delta_p=2.0)
        assert meanfield.dynamical_residual(p, sol, delta_p=2.0) \
            < 1e-9 * (p.drive.alpha + 1.0)

    def test_x_increases_with_alpha(self):
        xs = []
        seed = 0.0
        for alpha in np.linspace(0.2, 8.0, 12):
            p = make_params(alpha=float(alpha))
            sol = solve_self_consistent(p, x_seed=seed, delta_p=0.0)
            xs.append(sol.x)
            seed = sol.x
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_solution_consistency_flag(self, paper_params):
        sol = solve_self_consistent(paper_params, delta_p=0.0)
        assert abs(abs(sol.c) ** 2 - sol.x) <= 1e-9 * max(1.0, sol.x)
        assert sol.residual <= 1e-10 * max(1.0, sol.x)
        assert sol.blockaded_fraction >= 0.0


class TestBistableWindow:
    """S n=60, Omega 8 MHz, delta_cf -10 MHz, delta_p +10 MHz: close to each
    turning point of the bistable window two of the three roots nearly meet."""

    @pytest.mark.parametrize("rate", [98.17, 101.2898])
    def test_all_three_roots_found(self, rate):
        p = make_params(n=60, omega_cf=8.0, delta_cf=-10.0, delta_p=10.0,
                        alpha=photon_rate_to_alpha(rate, 10.0))
        (a, b, c, d), count = oracle_cubic(p, 10.0)
        assert count == 3
        assert solve_self_consistent(p).root_count == 3
        roots = meanfield._find_roots(meanfield._point(p))
        assert len(roots) == 3
        for x in roots:
            terms = (a * x**3, b * x**2, c * x, d)
            assert abs(sum(terms)) < 1e-10 * max(abs(t) for t in terms)


    def test_rate_scan_hysteresis(self):
        # up and down sweeps stay on different branches exactly where the
        # cubic has three roots, and coincide where the root is unique
        p = make_params(n=60, omega_cf=8.0, delta_cf=-10.0, delta_p=10.0)
        up = scan_meanfield(p, ScanSpec(97.0, 102.0, 51), variable="rate")
        down = scan_meanfield(p, ScanSpec(102.0, 97.0, 51), variable="rate")
        assert not up.failed.any() and not down.failed.any()
        x_down = down.x[::-1]
        counts = up.root_count
        np.testing.assert_array_equal(down.root_count[::-1], counts)
        bistable = counts == 3
        assert bistable.sum() == 31
        assert np.all(np.abs(up.x - x_down)[bistable]
                      > 1e-3 * np.maximum(up.x, x_down)[bistable])
        np.testing.assert_allclose(up.x[~bistable], x_down[~bistable],
                                   rtol=1e-9)


class TestTransmission:
    def test_alpha_to_zero_limit_equals_linear(self):
        for dp in (-8.0, 0.0, 3.0):
            p = make_params(alpha=1e-6)
            t_mf = transmission_meanfield(p, delta_p=dp)
            t_lin = transmission_linear(p, dp)
            assert t_mf == pytest.approx(t_lin, rel=1e-10)

    def test_nonincreasing_on_resonance_with_rate(self):
        ts = []
        for rate in (0.01, 5.0, 20.0, 60.0):
            alpha = photon_rate_to_alpha(rate, 10.0)
            p = make_params(alpha=alpha)
            ts.append(transmission_meanfield(p, delta_p=0.0))
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_stronger_nonlinearity_for_higher_n(self):
        def normalized_drop(n):
            t = []
            for rate in (1e-3, 25.0):
                p = make_params(n=n, alpha=photon_rate_to_alpha(rate, 10.0))
                t.append(transmission_meanfield(p, delta_p=0.0))
            return 1.0 - t[1] / t[0]

        assert normalized_drop(79) > normalized_drop(56) > 0.0


class TestScan:
    def test_tiny_span_equals_single_point(self, paper_params):
        from dataclasses import replace

        dp = 1.25
        p = replace(paper_params, scan=ScanSpec(dp, dp + 1e-9, 2))
        spec = scan_meanfield(p)
        want = transmission_meanfield(paper_params, delta_p=dp)
        np.testing.assert_allclose(spec.transmission, want, rtol=1e-6)

    def test_forward_backward_where_unique(self, paper_params):
        from dataclasses import replace

        p = replace(paper_params, scan=ScanSpec(-15.0, 15.0, 61))
        fwd = scan_meanfield(p)
        rev = scan_meanfield(replace(paper_params, scan=ScanSpec(15.0, -15.0, 61)))
        # reverse by scanning the mirrored grid (kappa depends on detuning)
        grid = p.scan.values()
        t_rev = transmission_curve(paper_params, grid[::-1])[::-1]
        unique = (fwd.root_count == 1)
        np.testing.assert_allclose(fwd.transmission[unique],
                                   t_rev[unique], rtol=1e-6)
        np.testing.assert_allclose(fwd.transmission[unique],
                                   rev.transmission[::-1][unique], rtol=1e-6)
        np.testing.assert_array_equal(rev.root_count[::-1], fwd.root_count)
        assert fwd.failed.sum() == 0 and rev.failed.sum() == 0

    def test_rate_scan_mapping(self, paper_params):
        from dataclasses import replace

        p = replace(paper_params, scan=ScanSpec(0.5, 40.0, 9))
        spec = scan_meanfield(p, variable="rate")
        assert spec.axis_name == "photon_rate_per_us"
        for rate, t in zip(spec.axis, spec.transmission):
            alpha = photon_rate_to_alpha(float(rate), 10.0)
            p_i = make_params(alpha=alpha)
            assert t == pytest.approx(transmission_meanfield(p_i, delta_p=0.0),
                                      rel=1e-9)

    def test_rate_alpha_round_trip(self):
        assert alpha_to_photon_rate(photon_rate_to_alpha(7.3, 10.0), 10.0) \
            == pytest.approx(7.3, rel=1e-12)

    def test_failed_points_flagged_and_isolated(self, paper_params, monkeypatch):
        from dataclasses import replace

        calls = {"n": 0}
        real = meanfield.solve_self_consistent

        def flaky(params, x_seed=0.0, delta_p=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SolverError("injected failure")
            return real(params, x_seed=x_seed, delta_p=delta_p)

        monkeypatch.setattr(meanfield, "solve_self_consistent", flaky)
        p = replace(paper_params, scan=ScanSpec(-5.0, 5.0, 5))
        spec = scan_meanfield(p)
        assert spec.failed.sum() == 1
        assert np.isnan(spec.transmission[2])
        assert np.isfinite(spec.transmission[[0, 1, 3, 4]]).all()

    def test_curve_raises_on_failed_point(self, paper_params, monkeypatch):
        calls = {"n": 0}
        real = meanfield.solve_self_consistent

        def flaky(params, x_seed=0.0, delta_p=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SolverError("injected failure")
            return real(params, x_seed=x_seed, delta_p=delta_p)

        monkeypatch.setattr(meanfield, "solve_self_consistent", flaky)
        with pytest.raises(SolverError, match="injected"):
            transmission_curve(paper_params, np.linspace(-5.0, 5.0, 5))
        assert calls["n"] == 2

    def test_negative_rate_rejected_before_any_solve(self, paper_params,
                                                     monkeypatch):
        calls = {"n": 0}
        real = meanfield.solve_self_consistent

        def counting(params, x_seed=0.0, delta_p=None):
            calls["n"] += 1
            return real(params, x_seed=x_seed, delta_p=delta_p)

        monkeypatch.setattr(meanfield, "solve_self_consistent", counting)
        with pytest.raises(ValueError, match="photon rate"):
            scan_meanfield(paper_params, ScanSpec(5.0, -1.0, 7), variable="rate")
        assert calls["n"] == 0

    @pytest.mark.parametrize("variable", ["rate", "delta_p"])
    @pytest.mark.parametrize("spec", [ScanSpec(float("nan"), 1.0, 3),
                                      ScanSpec(0.0, float("inf"), 3)])
    def test_non_finite_range_rejected(self, paper_params, spec, variable):
        # a NaN range would give NaN transmissions flagged as solved
        with pytest.raises(ValueError, match="finite"):
            scan_meanfield(paper_params, spec, variable=variable)

    def test_csv_header(self, paper_params):
        from dataclasses import replace

        p = replace(paper_params, scan=ScanSpec(-2.0, 2.0, 3))
        spec = scan_meanfield(p)
        assert spec.header == "delta_p_mhz,transmission,x,root_count"
