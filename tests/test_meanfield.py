import logging
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rydcav import meanfield
from rydcav.errors import SingularParameterError, SolverError
from rydcav.linear import transmission_linear
from rydcav.meanfield import (
    photon_rate_to_alpha,
    scan_meanfield,
    solve_self_consistent,
    transmission_curve,
    transmission_meanfield,
)
from rydcav.params import FLOAT_PATHS, ScanSpec, get_path

from conftest import make_params
from oracles import (
    dynamical_residual,
    follow_branch_loop,
    oracle_cubic,
    oracle_excitation,
    oracle_roots,
    random_paper_scale_params,
)


class TestResidual:
    def test_kappa_zero_reduces_to_linear(self):
        p = make_params(c6_override=0.0, alpha=2.0)
        sol = solve_self_consistent(p, delta_p=1.5)
        assert sol.root_count == 1
        t_mf = transmission_meanfield(p, delta_p=1.5)
        t_lin = transmission_linear(p, 1.5)
        assert t_mf == t_lin  # shared evaluation path, bit-for-bit

    def test_residual_matches_oracle_map(self, paper_params):
        xs = np.linspace(0.0, 50.0, 7)
        _, _, c, *_ = meanfield._amplitudes(meanfield._grid(paper_params, 0.0), xs)
        assert np.isfinite(c).all()
        want = oracle_excitation(paper_params, 0.0, xs)
        np.testing.assert_allclose(np.abs(c) ** 2, want, rtol=1e-9, atol=1e-12)

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

    def test_no_control_at_d_r_zero_is_dark(self):
        # Omega = 0 and D_r = 0: K = A = 0, so F vanishes and its one fixed
        # point is x = 0, not the cubic's 0/0
        p = make_params(omega_cf=0.0, gamma_r=0.0)
        sol = solve_self_consistent(p, delta_p=0.0)
        assert sol.x == 0.0 and sol.root_count == 1
        assert sol.transmission == transmission_linear(p, 0.0)

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
            assert dynamical_residual(p, sol, delta_p=dp) \
                < 1e-9 * (p.drive.alpha + 1.0)
        # and on the paper-scale set
        p = make_params(alpha=4.0)
        sol = solve_self_consistent(p, delta_p=2.0)
        assert dynamical_residual(p, sol, delta_p=2.0) \
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_detuning_rejected(self, paper_params, bad):
        # rejected at the boundary, not solved into an all-NaN "solution"
        with pytest.raises(ValueError, match="finite"):
            solve_self_consistent(paper_params, delta_p=bad)
        with pytest.raises(ValueError, match="finite"):
            transmission_curve(paper_params, [0.0, bad, 1.0])

    def test_non_finite_alpha_rejected(self, paper_params):
        p = replace(paper_params, drive=replace(paper_params.drive, alpha=float("nan")))
        with pytest.raises(ValueError, match="finite"):
            solve_self_consistent(p)

    def test_nan_residual_fails_the_point(self, paper_params, monkeypatch):
        nan3 = np.full((1, 3), np.nan)
        with pytest.raises(SolverError, match="residual nan"):
            meanfield._follow_branch(nan3, nan3, np.zeros((1, 3), bool), 0.0, False)

        real = meanfield._fixed_points

        def nan_at_2(g):
            roots = np.array(real(g))
            roots[2] = np.nan
            return roots

        monkeypatch.setattr(meanfield, "_fixed_points", nan_at_2)
        spec = scan_meanfield(paper_params, ScanSpec(-5.0, 5.0, 5))
        np.testing.assert_array_equal(spec.failed, [False, False, True, False, False])
        assert np.isnan(spec.transmission[2]) and np.isnan(spec.x[2])
        with pytest.raises(SolverError, match="residual nan"):
            transmission_curve(paper_params, np.linspace(-5.0, 5.0, 5))

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
        # the grid kernel's candidates at this one point
        roots = meanfield._fixed_points(meanfield._grid(p))[0]
        roots = roots[~np.isnan(roots)]
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


def _assert_oracle_roots(cases, x, counts):
    """Each x is a root of the oracle cubic at its (params, delta_p) case,
    to 1e-10 of the cubic's largest term, and the root counts agree."""
    for (p, dp), xi, count in zip(cases, x, counts):
        (a, b, c, d), want = oracle_cubic(p, dp)
        assert count == want, (dp, p.drive.alpha)
        terms = (a * xi**3, b * xi**2, c * xi, d)
        assert abs(sum(terms)) <= 1e-10 * max(abs(t) for t in terms)


def _with_rate(p, rate):
    return replace(p, drive=replace(p.drive, alpha=photon_rate_to_alpha(rate, 10.0)))


class TestGridKernel:
    """The whole-grid solve against the independent cubic of the oracle."""

    BISTABLE = dict(n=60, omega_cf=8.0, delta_cf=-10.0, delta_p=10.0)

    def test_random_detuning_grids(self, rng):
        three = 0
        for draw in range(12):
            if draw < 10:
                p = random_paper_scale_params(rng)
                grid = np.sort(rng.uniform(-40.0, 40.0, 60))
            else:  # bistable for delta_p from about 10.0 to 10.57
                p = make_params(**self.BISTABLE, alpha=float(rng.uniform(31.4, 31.8)))
                grid = np.sort(rng.uniform(9.5, 11.0, 60))
            s = meanfield._solve(meanfield._grid(p, delta_p=grid))
            _assert_oracle_roots([(p, dp) for dp in grid], s.x, s.root_count)
            three += np.count_nonzero(s.root_count == 3)
        assert three > 0

    def test_rate_grid_from_zero(self):
        for n in (56, 60, 70, 79):
            p = make_params(n=n)
            spec = scan_meanfield(p, ScanSpec(0.0, 30.0, 31), variable="rate")
            assert spec.x[0] == 0.0 and not spec.failed.any()
            _assert_oracle_roots([(_with_rate(p, r), 0.0) for r in spec.axis],
                                 spec.x, spec.root_count)

    @pytest.mark.parametrize("window", [(98.165, 98.175), (101.285, 101.295)])
    def test_turning_point_windows(self, window):
        # each window straddles one end of the bistable range; the up sweep
        # starts on the low branch (dark seed), the down sweep above every root
        p = make_params(**self.BISTABLE)
        rates = np.linspace(*window, 101)
        up = meanfield._solve(meanfield._grid(p, alpha=photon_rate_to_alpha(rates, 10.0)))
        down = meanfield._solve(
            meanfield._grid(p, alpha=photon_rate_to_alpha(rates[::-1], 10.0)),
            x_seed=1e6)
        _assert_oracle_roots([(_with_rate(p, r), 10.0) for r in rates],
                             up.x, up.root_count)
        _assert_oracle_roots([(_with_rate(p, r), 10.0) for r in rates[::-1]],
                             down.x, down.root_count)
        x_down = down.x[::-1]
        three = up.root_count == 3
        assert three.any() and not three.all()
        np.testing.assert_array_equal(down.root_count[::-1], up.root_count)
        assert np.all(np.abs(up.x - x_down)[three]
                      > 1e-3 * np.maximum(up.x, x_down)[three])
        np.testing.assert_array_equal(up.x[~three], x_down[~three])

    def test_kappa_zero_is_linear_bit_for_bit(self, rng):
        p = make_params(c6_override=0.0, alpha=2.0, scan=ScanSpec(-30.0, 30.0, 201))
        grid = np.sort(rng.uniform(-30.0, 30.0, 57))
        np.testing.assert_array_equal(transmission_curve(p, grid).transmission,
                                      transmission_linear(p, grid))
        np.testing.assert_array_equal(scan_meanfield(p).transmission,
                                      transmission_linear(p, p.scan.values()))

    def test_single_solve_is_a_grid_of_one(self, rng):
        p = make_params(**self.BISTABLE)
        rates = np.linspace(97.0, 102.0, 51)
        spec = scan_meanfield(p, ScanSpec(97.0, 102.0, 51), variable="rate")
        seed = 0.0
        for rate, x, t in zip(rates, spec.x, spec.transmission):
            sol = solve_self_consistent(_with_rate(p, rate), x_seed=seed)
            np.testing.assert_allclose([sol.x, sol.transmission], [x, t], rtol=1e-12)
            seed = sol.x


class TestFollowBranch:
    """The array continuation against the per-point loop of the same rule
    (``oracles.follow_branch_loop``) on the bistable S n=60 case: rate
    scans across both turning points, and probe-detuning up-sweeps on
    which the root nearest the last x was the middle one."""

    SCANS = [(97.0, 102.0), (98.165, 98.175), (101.285, 101.295)]
    # (photon rate, points, start, stop) of delta_p scans; the first is the
    # 41-point up-sweep at 110 photons/us, whose x at delta_p = 10 MHz lies
    # nearest the middle root of its one three-root point, delta_p = 10.5
    DETUNING_SCANS = [(110.0, 41, 0.0, 20.0), (100.0, 321, 0.0, 20.0),
                      (110.0, 161, 0.0, 20.0), (120.0, 81, 0.0, 20.0),
                      (140.0, 321, -30.0, 30.0), (110.0, 161, -30.0, 30.0)]

    @staticmethod
    def _inputs(monkeypatch, x_seed, rates=None, rate=None, delta_ps=None):
        # what _solve hands _follow_branch for a sweep of the rate at
        # delta_p = 10 MHz, or of delta_p at one rate
        p = make_params(n=60, omega_cf=8.0, delta_cf=-10.0, delta_p=10.0)
        seen = []
        real = meanfield._follow_branch

        def spy(*args):
            seen.append(args)
            return real(*args)

        with monkeypatch.context() as mp:
            mp.setattr(meanfield, "_follow_branch", spy)
            if delta_ps is None:
                g = meanfield._grid(p, alpha=photon_rate_to_alpha(rates, 10.0))
            else:
                g = meanfield._grid(_with_rate(p, rate), delta_p=delta_ps)
            meanfield._solve(g, x_seed=x_seed)
        ((roots, residual, singular, seed, _),) = seen
        return roots, residual, singular, seed

    @pytest.mark.parametrize("scan", SCANS)
    @pytest.mark.parametrize("down", [False, True])
    @pytest.mark.parametrize("flag_failures", [False, True])
    def test_same_picks_as_the_loop(self, monkeypatch, scan, down, flag_failures):
        rates = np.linspace(*scan, 101)
        if down:
            rates = rates[::-1]
        roots, residual, singular, seed = self._inputs(monkeypatch,
                                                       1e6 if down else 0.0, rates)
        three = ~np.isnan(roots[:, 1])
        assert three.any() and not three.all()
        picks = meanfield._follow_branch(roots, residual, singular, seed,
                                         flag_failures)
        want = follow_branch_loop(roots, residual, singular, seed, flag_failures)
        np.testing.assert_array_equal(picks, want)
        assert picks.dtype == want.dtype
        # the up sweep stays on the low branch, the down sweep on the high one
        assert set(picks[three].tolist()) == ({2} if down else {0})

    @pytest.mark.parametrize("rate, npoints, start, stop", DETUNING_SCANS)
    def test_detuning_sweep_takes_no_middle_root(self, monkeypatch, rate, npoints,
                                                 start, stop):
        delta_ps = ScanSpec(start, stop, npoints).values()
        roots, residual, singular, seed = self._inputs(
            monkeypatch, 0.0, rate=rate, delta_ps=delta_ps)
        three = ~np.isnan(roots[:, 1])
        picks = meanfield._follow_branch(roots, residual, singular, seed, False)
        np.testing.assert_array_equal(
            picks, follow_branch_loop(roots, residual, singular, seed, False))
        assert three.any() and set(picks[three].tolist()) <= {0, 2}
        # the root nearest the last solved x is the middle one somewhere
        x = roots[np.arange(picks.size), picks]
        last = np.concatenate(([seed], x[:-1]))
        nearest = np.nanargmin(np.abs(roots - last[:, None]), axis=1)
        assert (nearest[three] == 1).any()
        if npoints == 41:
            assert delta_ps[three].tolist() == [10.5]

    @pytest.mark.parametrize("first", ["three-root", "one-root"])
    def test_first_failing_point_raises(self, monkeypatch, first):
        # a three-root point whose root stalls and a singular one-root
        # point: whichever comes first in grid order raises, as in the loop;
        # flagged, both fail and the seed carries past them
        roots, residual, singular, seed = self._inputs(
            monkeypatch, 0.0, np.linspace(97.0, 102.0, 101))
        residual, singular = residual.copy(), singular.copy()
        three = np.flatnonzero(~np.isnan(roots[:, 1]))
        one = np.flatnonzero(np.isnan(roots[:, 1]))
        i3 = three[len(three) // 2]
        i1 = one[one < i3][-3] if first == "one-root" else one[one > i3][2]
        residual[i3] = np.inf
        singular[i1, 0] = True
        errors = []
        for follow in (meanfield._follow_branch, follow_branch_loop):
            with pytest.raises((SolverError, SingularParameterError)) as err:
                follow(roots, residual, singular, seed, False)
            errors.append((err.type, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] is (SolverError if first == "three-root"
                                else SingularParameterError)
        picks = meanfield._follow_branch(roots, residual, singular, seed, True)
        np.testing.assert_array_equal(
            picks, follow_branch_loop(roots, residual, singular, seed, True))
        assert picks[i1] == picks[i3] == -1 and np.count_nonzero(picks < 0) == 2

    @pytest.mark.parametrize("x_seed, want", [(0.0, [0, -1, 0]), (10.0, [2, -1, 2])])
    def test_a_failed_point_seeds_no_run(self, x_seed, want):
        # two runs of one three-root point around a one-root point whose
        # root, nearest the other outer root of the second run, fails
        roots = np.array([[1.0, 5.0, 9.0],
                          [9.0 if x_seed == 0.0 else 1.5, np.nan, np.nan],
                          [2.0, 5.0, 8.0]])
        residual = np.zeros((3, 3))
        residual[1] = np.inf
        singular = np.zeros((3, 3), bool)
        for follow in (meanfield._follow_branch, follow_branch_loop):
            np.testing.assert_array_equal(
                follow(roots, residual, singular, x_seed, True), want)
            with pytest.raises(SolverError, match=r"residual inf at x=(9|1\.5)$"):
                follow(roots, residual, singular, x_seed, False)


_BISTABLE = make_params(n=60, omega_cf=8.0, delta_cf=-10.0, delta_p=10.0)


class TestOuterBranch:
    """No sweep of the bistable S n=60 case, along either axis, in either
    direction, takes the middle root at a three-root point, nor does a
    single solve seeded exactly on it."""

    @staticmethod
    def _assert_outer(s):
        three = s.root_count == 3
        assert not s.failed.any()
        assert set(s.branch_id[three].tolist()) <= {0, 2}

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(80.0, 400.0), npoints=st.integers(2, 321),
           low=st.floats(-30.0, 10.0), high=st.floats(10.5, 30.0),
           down=st.booleans())
    def test_detuning_sweeps(self, rate, npoints, low, high, down):
        grid = ScanSpec(*((high, low) if down else (low, high)), npoints).values()
        self._assert_outer(meanfield._solve(
            meanfield._grid(_with_rate(_BISTABLE, rate), delta_p=grid)))

    @settings(max_examples=60, deadline=None)
    @given(delta_p=st.floats(9.5, 11.5), npoints=st.integers(2, 321),
           low=st.floats(80.0, 98.0), high=st.floats(101.5, 400.0),
           down=st.booleans())
    def test_rate_sweeps(self, delta_p, npoints, low, high, down):
        rates = ScanSpec(*((high, low) if down else (low, high)), npoints).values()
        p = replace(_BISTABLE, drive=replace(_BISTABLE.drive, delta_p=delta_p))
        self._assert_outer(meanfield._solve(
            meanfield._grid(p, alpha=photon_rate_to_alpha(rates, 10.0))))

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(98.2, 101.28))
    def test_single_solve_seeded_at_the_middle_root(self, rate):
        p = _with_rate(_BISTABLE, rate)
        roots = meanfield._fixed_points(meanfield._grid(p))[0]
        assume(roots[1] == roots[1])
        sol = solve_self_consistent(p, x_seed=float(roots[1]))
        assert sol.root_count == 3 and sol.branch_id in (0, 2)
        assert sol.x == roots[sol.branch_id]


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
        t_rev = transmission_curve(paper_params, grid[::-1]).transmission[::-1]
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
        assert spec.header.split(",")[0] == "photon_rate_per_us"
        for rate, t in zip(spec.axis, spec.transmission):
            alpha = photon_rate_to_alpha(float(rate), 10.0)
            p_i = make_params(alpha=alpha)
            assert t == pytest.approx(transmission_meanfield(p_i, delta_p=0.0),
                                      rel=1e-9)

    def test_rate_alpha_round_trip(self):
        # R = alpha^2 / gamma_c, for a scalar and elementwise for an array
        assert photon_rate_to_alpha(7.3, 10.0) ** 2 / 10.0 == pytest.approx(
            7.3, rel=1e-12)
        rates = np.array([0.0, 0.5, 7.3, 140.0])
        np.testing.assert_allclose(photon_rate_to_alpha(rates, 10.0) ** 2 / 10.0,
                                   rates, rtol=1e-12, atol=0)

    def test_failed_points_flagged_and_isolated(self, paper_params):
        from dataclasses import replace

        # with gamma_r = 0 the Rydberg detuning D_r vanishes on two-photon
        # resonance, the middle point (delta_p = 0), and only there; at
        # C6 = 0 the shift kappa x is 0 too, so the chain at the root is the
        # linear one, whose B = D_e - Omega^2 / (4 D_r) is 0/0 there
        p = replace(paper_params, scan=ScanSpec(-5.0, 5.0, 5),
                    rydberg=replace(paper_params.rydberg, gamma_r=0.0,
                                    c6_override=0.0))
        spec = scan_meanfield(p)
        assert spec.failed.sum() == 1
        assert np.isnan(spec.transmission[2])
        assert np.isfinite(spec.transmission[[0, 1, 3, 4]]).all()
        with pytest.raises(SingularParameterError):
            solve_self_consistent(p, delta_p=0.0)
        # the flagged curve has no derivative there, and says why
        with pytest.raises(SolverError, match=r"delta_p = 0 MHz \(a failed point\)$"):
            spec.jacobian(("drive.omega_cf",))

    def test_ideal_eit_blockade_solves_on_two_photon_resonance(self, paper_params):
        # the same scan with the series C6: at delta_p = 0 D_r = 0 but the
        # root shifts the chain to D_r - kappa x != 0, so no point fails
        p = replace(paper_params, scan=ScanSpec(-5.0, 5.0, 5),
                    rydberg=replace(paper_params.rydberg, gamma_r=0.0))
        spec = scan_meanfield(p)
        assert not spec.failed.any()
        sol = solve_self_consistent(p, delta_p=0.0)
        for x in (spec.x[2], sol.x):
            assert min(abs(x - r) for r in oracle_roots(p, 0.0)) < 1e-8
        assert dynamical_residual(p, sol, delta_p=0.0) < 1e-9

    def test_one_chain_evaluation_per_solve(self, paper_params, monkeypatch):
        calls = []
        real = meanfield._amplitudes

        def counting(g, x):
            calls.append(np.shape(x))
            return real(g, x)

        monkeypatch.setattr(meanfield, "_amplitudes", counting)
        scan_meanfield(paper_params, ScanSpec(-5.0, 5.0, 7))
        assert calls == [(7, 3)]

    def test_rate_scan_at_a_singular_detuning_flags_every_point(self):
        # undamped, with the control tuned so that the blockade chain is
        # singular at the scan's one detuning (delta_p = 2)
        p = make_params(gamma_e=0.0, gamma_r=0.0, omega_cf=np.sqrt(32.0),
                        delta_p=2.0)
        spec = scan_meanfield(p, ScanSpec(0.0, 10.0, 5), variable="rate")
        assert spec.failed.all() and np.isnan(spec.transmission).all()
        with pytest.raises(SingularParameterError):
            solve_self_consistent(p)

    def test_curve_raises_on_failed_point(self, paper_params, monkeypatch):
        # the first failed point in grid order raises: a root that does not
        # solve x = F(x) at the second point, a NaN one at the fourth
        real = meanfield._fixed_points

        def broken(g):
            roots = np.array(real(g))
            roots[1] = [5.0, np.nan, np.nan]
            roots[3] = np.nan
            return roots

        monkeypatch.setattr(meanfield, "_fixed_points", broken)
        with pytest.raises(SolverError, match="at x=5$"):
            transmission_curve(paper_params, np.linspace(-5.0, 5.0, 5))

    def test_negative_rate_rejected_before_any_solve(self, paper_params,
                                                     monkeypatch):
        calls = {"n": 0}
        real = meanfield._solve  # the grid kernel

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(meanfield, "_solve", counting)
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

    def test_metadata_and_one_debug_record(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rydcav")
        p = make_params(**TestGridKernel.BISTABLE)
        spec = scan_meanfield(p, ScanSpec(97.0, 102.0, 51), variable="rate")
        counts = spec.root_counts
        assert counts == {"1": 20, "3": 31}
        worst = spec.worst_residual
        assert 0.0 <= worst <= 1e-10 * max(1.0, spec.x.max())
        records = [r for r in caplog.records if r.name.startswith("rydcav")]
        assert len(records) == 1
        assert records[0].name == "rydcav.meanfield"
        assert records[0].levelno == logging.DEBUG
        assert records[0].getMessage() == (
            f"mean-field rate scan, 51 points: 0 failed, root counts {counts}, "
            f"worst residual {worst:.3g}")

    def test_csv_header(self, paper_params):
        from dataclasses import replace

        p = replace(paper_params, scan=ScanSpec(-2.0, 2.0, 3))
        spec = scan_meanfield(p)
        assert spec.header == "delta_p_mhz,transmission,x,root_count"


def _bistable_params(**updates):
    # S n=60 at 100 photons/us: 12 of the 401 detunings have three roots
    kw = dict(n=60, omega_cf=8.0, delta_cf=-10.0,
              alpha=float(np.sqrt(10.0 * 100.0)))
    kw.update(updates)
    return make_params(**kw)


_GRIDS = {
    # (params, grid, relative step of the Richardson reference)
    # gamma_s and c6_override are set so that every float parameter has a
    # value to move
    "plain": (make_params(alpha=2.0, gamma_s=0.1, c6_override=-300.0),
              np.linspace(-30.0, 30.0, 201), 1e-3),
    # near a fold the curve's higher derivatives are large, so the
    # reference needs a smaller step
    "bistable": (_bistable_params(gamma_s=0.1, c6_override=-140.0),
                 np.linspace(0.0, 20.0, 401), 1e-5),
}


def _richardson(curve, params, path, rel):
    """Richardson-extrapolated central difference of curve(params) in path."""
    from rydcav.params import get_path, set_path

    theta = float(get_path(params, path))
    h = rel * max(abs(theta), 1.0)

    def central(step):
        return (curve(set_path(params, path, theta + step))
                - curve(set_path(params, path, theta - step))) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


class TestTransmissionJacobian:
    def test_bistable_grid_has_three_root_points(self):
        p, grid, _ = _GRIDS["bistable"]
        scan = scan_meanfield(p, ScanSpec(0.0, 20.0, 401))
        assert int(np.sum(scan.root_count == 3)) == 12

    @pytest.mark.parametrize("grid_name", sorted(_GRIDS))
    @pytest.mark.parametrize("model", ["meanfield", "linear"])
    def test_every_column_matches_richardson(self, grid_name, model):
        p, grid, rel = _GRIDS[grid_name]
        if model == "meanfield":
            jacobian = transmission_curve(p, grid).jacobian

            def curve(q):
                return transmission_curve(q, grid).transmission
        else:
            jacobian = partial(meanfield.transmission_jacobian, p, grid)

            def curve(q):
                return transmission_linear(q, grid)
        jac = jacobian(FLOAT_PATHS)
        assert jac.shape == (grid.size, len(FLOAT_PATHS))
        for k, path in enumerate(FLOAT_PATHS):
            ref = _richardson(curve, p, path, rel)
            # a path outside the model gives a column of exact zeros
            np.testing.assert_allclose(jac[:, k], ref, rtol=0,
                                       atol=1e-8 * np.abs(ref).max(),
                                       err_msg=path)

    def test_zero_columns(self):
        p, grid, _ = _GRIDS["plain"]
        zero = ("drive.delta_p", "rydberg.xi", "rydberg.gamma_s")
        assert not transmission_curve(p, grid).jacobian(zero).any()
        linear_zero = zero + ("drive.alpha", "rydberg.c6_override",
                              "ensemble.cloud_volume")
        assert not meanfield.transmission_jacobian(p, grid, linear_zero).any()

    @pytest.mark.parametrize("model", ["meanfield", "linear"])
    def test_offset_columns_at_zero(self, model):
        # a difference step of an offset at 0 rounds against |delta_p| up to
        # 30 MHz; the closed form takes no step
        p, grid, _ = _GRIDS["plain"]
        paths = ("drive.delta_cf", "cavity.delta_bg")
        assert p.drive.delta_cf == p.cavity.delta_bg == 0.0
        if model == "meanfield":
            jacobian = transmission_curve(p, grid).jacobian

            def curve(q):
                return transmission_curve(q, grid).transmission
        else:
            jacobian = partial(meanfield.transmission_jacobian, p, grid)

            def curve(q):
                return transmission_linear(q, grid)
        jac = jacobian(paths)
        for k, path in enumerate(paths):
            ref = _richardson(curve, p, path, 1e-3)
            np.testing.assert_allclose(jac[:, k], ref, rtol=0,
                                       atol=2e-10 * np.abs(ref).max(),
                                       err_msg=path)

    def test_c6_column_at_c6_zero(self):
        # kappa goes as sqrt(C6): at C6 = 0 its derivative in C6 has no value
        p = make_params(alpha=2.0, c6_override=0.0)
        grid = np.linspace(-20.0, 20.0, 81)
        paths = ("drive.omega_cf", "rydberg.c6_override")
        curve = transmission_curve(p, grid)
        with pytest.raises(SolverError, match=r"rydberg\.c6_override.*C6 = 0") as err:
            curve.jacobian(paths)
        assert "fold" not in str(err.value)
        # the linear spectrum does not depend on C6
        jac = meanfield.transmission_jacobian(p, grid, paths)
        assert jac[:, 0].any() and not jac[:, 1].any()

    def test_linear_columns_are_the_mean_field_at_kappa_zero(self):
        p = make_params(alpha=2.0, c6_override=0.0)
        grid = np.linspace(-20.0, 20.0, 81)
        paths = ("cavity.gamma_c", "ensemble.cooperativity", "drive.omega_cf",
                 "rydberg.gamma_r")
        np.testing.assert_allclose(
            transmission_curve(p, grid).jacobian(paths),
            meanfield.transmission_jacobian(p, grid, paths), rtol=1e-12, atol=0)

    def test_fold_raises_naming_the_detuning(self):
        # alpha chosen so that the cubic has a double root at delta_p = 10:
        # the larger turning point x_f of x |A + B x|^2, where dP/dx = 0
        g = meanfield._grid(_bistable_params(), 10.0)
        _, A, B, (c3, c2, c1, _) = meanfield._cubic(g)
        x_f = (-2.0 * c2 + np.sqrt(4.0 * c2 * c2 - 12.0 * c3 * c1)) / (6.0 * c3)
        for _ in range(3):
            x_f -= ((3.0 * c3 * x_f + 2.0 * c2) * x_f + c1) / (6.0 * c3 * x_f + 2.0 * c2)
        k2 = x_f * abs(A + B * x_f) ** 2
        p = _bistable_params(alpha=float(np.sqrt(k2 / (16.0 * g.coop_term))))
        *_, coeffs = meanfield._cubic(meanfield._grid(p, 10.0))
        assert abs(np.polyval(coeffs, x_f)) <= 1e-9 * abs(coeffs[3])
        (x_9,) = transmission_curve(p, [9.0]).x
        # the solve at 10 MHz picks another root: hand the curve the fold's
        curve = replace(transmission_curve(p, [9.0, 10.0]), x=np.array([x_9, x_f]))
        with pytest.raises(SolverError, match=r"delta_p = 10 MHz \(a fold"):
            curve.jacobian(("drive.alpha",))

    def test_fold_on_the_rate_axis_raises_naming_the_rate(self):
        # the same double root at delta_p = 10 MHz, reached along the rate:
        # K^2 = (Omega/2)^2 coop gamma_c R, with Omega = 8 MHz
        p = _bistable_params(delta_p=10.0)
        g = meanfield._grid(p)
        _, A, B, (c3, c2, c1, _) = meanfield._cubic(g)
        x_f = (-2.0 * c2 + np.sqrt(4.0 * c2 * c2 - 12.0 * c3 * c1)) / (6.0 * c3)
        for _ in range(3):
            x_f -= ((3.0 * c3 * x_f + 2.0 * c2) * x_f + c1) / (6.0 * c3 * x_f + 2.0 * c2)
        rate_f = float(x_f * abs(A + B * x_f) ** 2 / (16.0 * g.coop_term * 10.0))
        scan = scan_meanfield(p, ScanSpec(rate_f - 1.0, rate_f, 2), variable="rate")
        assert not scan.failed.any() and scan.axis[-1] == rate_f
        curve = replace(scan, x=np.array([scan.x[0], x_f]))
        with pytest.raises(SolverError,
                           match=rf"photon rate = {rate_f:g} photons/us \(a fold"):
            curve.jacobian(("drive.omega_cf",))

    def test_rate_axis_columns_match_richardson(self):
        # along the rate, delta_p is a parameter and alpha = sqrt(gamma_c R)
        # moves with gamma_c; the drive.alpha column is 0
        p = make_params(n=60, delta_p=2.0)
        spec = ScanSpec(0.5, 40.0, 120)

        def curve(q):
            return scan_meanfield(q, spec, variable="rate").transmission

        paths = [path for path in FLOAT_PATHS if get_path(p, path) is not None]
        jac = scan_meanfield(p, spec, variable="rate").jacobian(paths)
        assert jac.shape == (120, len(paths))
        for k, path in enumerate(paths):
            ref = _richardson(curve, p, path, 1e-3)
            np.testing.assert_allclose(jac[:, k], ref, rtol=0,
                                       atol=1e-6 * np.abs(ref).max(), err_msg=path)
        moved = {path for k, path in enumerate(paths) if jac[:, k].any()}
        assert {"drive.delta_p", "cavity.gamma_c"} <= moved
        assert "drive.alpha" not in moved

    def test_curve_returns_the_populations_it_solved(self):
        # the fit's curve and the flagged scan are one curve of one solve
        p, grid, _ = _GRIDS["bistable"]
        curve = transmission_curve(p, grid)
        t, x = curve.transmission, curve.x
        np.testing.assert_array_equal(t, transmission_curve(p, grid).transmission)
        scan = scan_meanfield(p, ScanSpec(0.0, 20.0, 401))
        np.testing.assert_array_equal(x, scan.x)
        for name in ("axis", "transmission", "root_count", "residual", "failed"):
            np.testing.assert_array_equal(getattr(curve, name), getattr(scan, name),
                                          err_msg=name)
        assert (curve.variable, curve.header) == (scan.variable, scan.header)
        assert curve.root_counts == scan.root_counts == {"1": 389, "3": 12}
        assert curve.worst_residual == scan.worst_residual
