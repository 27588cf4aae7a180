import numpy as np
import pytest

from rydcav import ode
from rydcav.errors import IntegrationError
from rydcav.ode import integrate


def decay_jac(t, y):
    return -np.eye(y.size)


def both_paths(jac=decay_jac):
    """Keyword sets for the explicit pair alone and for the NDF, which here
    takes over after the pair's second accepted step, from the fewest
    points its start takes (three), whatever the Jacobian (the loop body
    runs inside that setting)."""
    yield {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ode, "_STIFF_H_LAMBDA", -1.0)
        mp.setattr(ode, "_STIFF_STEPS", 2)
        yield {"jac": jac}


def test_exponential_decay_accuracy():
    def f(t, y):
        return -y

    ts = np.linspace(0.0, 5.0, 11)
    out, _ = integrate(f, 0.0, np.array([1.0 + 0j]), ts, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(out[:, 0].real, np.exp(-ts), rtol=1e-8)


def test_complex_rotation_preserves_modulus():
    omega = 3.0

    def f(t, y):
        return 1j * omega * y

    ts = np.linspace(0.0, 20.0, 21)
    out, _ = integrate(f, 0.0, np.array([1.0 + 0j]), ts, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(np.abs(out[:, 0]), 1.0, rtol=1e-6)
    np.testing.assert_allclose(out[-1, 0], np.exp(1j * omega * 20.0), rtol=1e-5)


def test_real_dtype_preserved():
    def f(t, y):
        return -2.0 * y

    out, _ = integrate(f, 0.0, np.array([1.0, 0.5]), [1.0], rtol=1e-9, atol=1e-12)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out[0], np.array([1.0, 0.5]) * np.exp(-2.0),
                               rtol=1e-7)


def test_tolerance_halving_self_consistency():
    # a mildly stiff linear system; halving rtol must not move the answer
    # by more than the coarser tolerance's implied bound
    a = np.array([[-3.0, 40.0], [-40.0, -1.0]])

    def f(t, y):
        return a @ y

    ts = [2.0]
    ref, _ = integrate(f, 0.0, np.array([1.0, 0.0]), ts, rtol=1e-12, atol=1e-14)
    for rtol in (1e-6, 1e-8):
        coarse, _ = integrate(f, 0.0, np.array([1.0, 0.0]), ts, rtol=rtol, atol=1e-12)
        fine, _ = integrate(f, 0.0, np.array([1.0, 0.0]), ts, rtol=rtol / 2,
                         atol=1e-12)
        err_coarse = np.abs(coarse - ref).max()
        err_fine = np.abs(fine - ref).max()
        assert err_coarse < 1e3 * rtol
        assert err_fine <= err_coarse * 2.0  # refinement never makes it much worse


def test_no_repeated_evaluations():
    # the last stage of an accepted step is reused as the next first stage;
    # key on (t, y): stages 6 and 7 share t + h but not y
    a = np.array([[-3.0, 40.0], [-40.0, -1.0]])
    seen = set()
    calls = 0

    def f(t, y):
        nonlocal calls
        calls += 1
        seen.add((t, y.tobytes()))
        return a @ y

    _, stats = integrate(f, 0.0, np.array([1.0, 0.0]), [0.5, 1.0, 2.0],
                         rtol=1e-8, atol=1e-12)
    assert calls > 100
    assert len(seen) == calls
    assert stats.nfev == calls
    assert stats.accepted_steps > 0 and stats.rejected_steps >= 0
    # the first stage and the initial-step probe, then six stages a step
    assert stats.nfev == 2 + 6 * (stats.accepted_steps + stats.rejected_steps)
    assert stats.jacobian_evals == stats.inversions == 0


def test_sample_times_hit_exactly():
    def f(t, y):
        return y * 0.0 + 1.0  # dy/dt = 1

    ts = np.array([0.0, 0.3, 1.0, 2.5])
    # the stiff path interpolates, exactly for a polynomial solution
    for kw in both_paths(lambda t, y: np.zeros((1, 1))):
        out, _ = integrate(f, 0.0, np.array([0.0 + 0j]), ts, rtol=1e-10, **kw)
        np.testing.assert_allclose(out[:, 0].real, ts, atol=1e-12)


def test_step_underflow_raises():
    # finite-time blow-up: y' = y^2, y(0) = 1 diverges at t = 1
    def f(t, y):
        return y * y

    for kw in both_paths(lambda t, y: np.diag(2.0 * y)):
        with pytest.raises(IntegrationError):
            integrate(f, 0.0, np.array([1.0 + 0j]), [2.0], rtol=1e-8, **kw)


def test_invalid_sample_times():
    def f(t, y):
        return -y

    for kw in both_paths():
        with pytest.raises(ValueError):
            integrate(f, 0.0, np.array([1.0 + 0j]), [1.0, 0.5], rtol=1e-8, **kw)
        with pytest.raises(ValueError):
            integrate(f, 0.0, np.array([1.0 + 0j]), [-1.0], rtol=1e-8, **kw)
        with pytest.raises(ValueError):
            integrate(f, 0.0, np.array([1.0 + 0j]), [], rtol=1e-8, **kw)


@pytest.mark.parametrize("kw", [
    {"rtol": float("nan")}, {"rtol": 0.0}, {"rtol": -1.0}, {"rtol": float("inf")},
    {"atol": float("nan")}, {"atol": -1e-12}, {"atol": float("inf")},
    {"atol": 0.0},
])
def test_invalid_tolerances_rejected_before_any_evaluation(kw):
    def f(t, y):
        raise AssertionError("f evaluated")

    for path in both_paths(f):
        with pytest.raises(ValueError, match="tol must be"):
            integrate(f, 0.0, np.array([1.0]), [1.0], **{"rtol": 1e-8, **kw},
                      **path)


@pytest.mark.parametrize("times", [[0.0, float("nan"), 2.0], [1.0, float("inf")]])
def test_non_finite_sample_times_rejected(times):
    def f(t, y):
        raise AssertionError("f evaluated")

    for kw in both_paths(f):
        with pytest.raises(ValueError, match="finite"):
            integrate(f, 0.0, np.array([1.0]), times, rtol=1e-8, **kw)


def test_non_finite_step_raises():
    # reported as what it is, not as a step-size underflow after the
    # integrator has shrunk the step to nothing
    def f(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    for kw in both_paths():
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(f, 0.0, np.array([1.0]), [2.0], rtol=1e-8, **kw)


def test_nan_in_a_later_part_raises():
    # the error norm is the largest of the parts' norms; a NaN in the
    # sensitivity part alone must not hide behind the finite state part
    def f(t, y):
        dy = -y
        if t > 0.3:
            dy[2:] = np.nan
        return dy

    for kw in both_paths():
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(f, 0.0, np.array([1.0, 2.0, 1.0, 2.0]), [1.0], rtol=1e-8,
                      parts=2, **kw)


def test_non_finite_initial_state_raises():
    for kw in both_paths():
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(lambda t, y: -y, 0.0, np.array([np.nan]), [1.0],
                      rtol=1e-8, **kw)


# --- the stiff path -----------------------------------------------------------

# eigenvalues -1 and -1e4: the explicit pair is held to steps of ~3e-4 by
# stability long after the fast mode has decayed
STIFF_V = np.array([[1.0, 1.0], [1.0, -2.0]])
STIFF_LAMBDA = np.array([-1.0, -1e4])
STIFF_A = STIFF_V @ np.diag(STIFF_LAMBDA) @ np.linalg.inv(STIFF_V)


def stiff_exact(ts, y0):
    c = np.linalg.solve(STIFF_V, y0)
    return np.array([STIFF_V @ (np.exp(STIFF_LAMBDA * t) * c) for t in ts])


@pytest.mark.parametrize("rtol", [1e-6, 1e-8])
def test_stiff_linear_system_matches_exact_solution(rtol):
    y0 = np.array([1.0, 0.5])
    ts = np.linspace(0.0, 4.0, 9)

    def f(t, y):
        return STIFF_A @ y

    out, stats = integrate(f, 0.0, y0, ts, rtol=rtol, atol=1e-3 * rtol,
                           jac=lambda t, y: STIFF_A)
    _, explicit = integrate(f, 0.0, y0, ts, rtol=rtol, atol=1e-3 * rtol)
    assert np.abs(out - stiff_exact(ts, y0)).max() < 5 * rtol
    assert stats.nfev < explicit.nfev / 10
    assert stats.jacobian_evals >= 1 and stats.inversions >= 1


def test_non_stiff_run_stays_on_the_explicit_pair():
    # the decay never holds the pair's step at its stability bound: the
    # Jacobian only sizes the stiffest mode, and the run is the plain one
    ts = np.linspace(0.0, 5.0, 11)
    plain, explicit = integrate(lambda t, y: -y, 0.0, np.array([1.0, 2.0]), ts,
                                rtol=1e-8)
    out, stats = integrate(lambda t, y: -y, 0.0, np.array([1.0, 2.0]), ts,
                           rtol=1e-8, jac=decay_jac)
    assert np.array_equal(out, plain)
    assert stats == explicit._replace(jacobian_evals=1)
    assert stats.inversions == 0


def test_short_ndf_steps_hand_the_run_back(monkeypatch):
    # a fast decay holds the pair's step at its stability bound, so the NDF
    # takes over; a lightly damped oscillation then keeps the NDF's steps
    # below half that bound, and the pair takes the rest of the run
    a = np.zeros((3, 3))
    a[0, 0] = -1e3
    a[1:, 1:] = [[-0.5, -30.0], [30.0, -0.5]]
    y0 = np.array([1.0, 1.0, 0.0])
    ts = np.linspace(0.0, 10.0, 11)
    spans = []
    ndf = ode._ndf

    def spy(*args):
        stats, t, y, isample = ndf(*args)
        spans.append((args[2][-1][0], t, stats.accepted_steps))  # the pair's last t
        return stats, t, y, isample

    monkeypatch.setattr(ode, "_ndf", spy)
    out, stats = integrate(lambda t, y: a @ y, 0.0, y0, ts, rtol=1e-8,
                           atol=1e-10, jac=lambda t, y: a)
    ((start, end, steps),) = spans
    assert steps == ode._HANDBACK_STEPS and start < end < ts[-1]
    assert stats.inversions >= 1
    decay = np.exp(-0.5 * ts)
    exact = np.column_stack((np.exp(-1e3 * ts), decay * np.cos(30.0 * ts),
                             decay * np.sin(30.0 * ts)))
    assert np.abs(out - exact).max() < 1e-6


def test_conserved_functional_holds_at_interpolated_samples():
    # a stiff rate matrix whose columns sum to zero: the total is conserved,
    # and the interpolated samples keep it as the steps do
    rates = np.array([[-1e3, 2.0, 0.5],
                      [1e3, -3.0, 0.0],
                      [0.0, 1.0, -0.5]])
    y0 = np.array([0.7, 0.2, 0.1])
    ts = np.arange(0.0, 20.0, 0.0137)
    out, stats = integrate(lambda t, y: rates @ y, 0.0, y0, ts, rtol=1e-8,
                           atol=1e-12, jac=lambda t, y: rates)
    assert stats.accepted_steps < ts.size / 2   # most samples fall inside a step
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-13


def test_sensitivity_part_never_loosens_the_state_control():
    # y' = A(theta) y with A = theta * STIFF_A, s = dy/dtheta:
    # s' = A s + STIFF_A y, and the exact pair at theta = 1
    y0 = np.array([1.0, 0.5])
    ts = np.linspace(0.0, 4.0, 9)

    def f(t, z):
        y, s = z[:2], z[2:]
        return np.concatenate((STIFF_A @ y, STIFF_A @ s + STIFF_A @ y))

    def jac(t, y):
        assert y.shape == (2,)   # the state part only
        return STIFF_A

    kw = dict(rtol=1e-6, atol=1e-9, jac=jac)
    plain, plain_stats = integrate(lambda t, y: STIFF_A @ y, 0.0, y0, ts, **kw)
    z, stats = integrate(f, 0.0, np.concatenate((y0, [0.0, 0.0])), ts,
                         parts=2, **kw)
    exact = stiff_exact(ts, y0)
    c = np.linalg.solve(STIFF_V, y0)
    s_exact = np.array([STIFF_V @ (STIFF_LAMBDA * t * np.exp(STIFF_LAMBDA * t) * c)
                        for t in ts])
    assert stats.accepted_steps >= plain_stats.accepted_steps
    assert np.abs(z[:, :2] - exact).max() <= np.abs(plain - exact).max()
    assert np.abs(z[:, 2:] - s_exact).max() < 5 * kw["rtol"]


def test_small_step_changes_keep_the_inverse_of_w(monkeypatch):
    # a nonlinear stiff problem on the NDF after two steps of the pair,
    # whose step may grow by at most 1.25 per change: W^-1 is renewed only
    # once c = h / alpha_k has moved more than 30% from the c it was built
    # with, so there are fewer inversions than changes of h, and the
    # corrections scaled for the stale c still give the tight explicit
    # reference
    def f(t, y):
        return np.array([-1e3 * (y[0] - y[1] ** 2), -y[1] + 0.1 * y[0]])

    def jac(t, y):
        return np.array([[-1e3, 2e3 * y[1]], [0.1, -1.0]])

    y0 = np.array([0.0, 1.0])
    ts = np.linspace(0.0, 6.0, 13)
    ref, _ = integrate(f, 0.0, y0, ts, rtol=1e-12, atol=1e-14)
    monkeypatch.setattr(ode, "_STIFF_H_LAMBDA", -1.0)
    monkeypatch.setattr(ode, "_STIFF_STEPS", 2)
    monkeypatch.setattr(ode, "_NDF_MAX_FACTOR", 1.25)
    monkeypatch.setattr(ode, "_NDF_KEEP_GROWTH", 1.0)
    factors = []
    rescaled = ode._rescaled

    def spy(diffs, order, factor):
        factors.append(factor)
        return rescaled(diffs, order, factor)

    monkeypatch.setattr(ode, "_rescaled", spy)
    out, stats = integrate(f, 0.0, y0, ts, rtol=1e-6, atol=1e-9, jac=jac)
    assert max(factors) <= 1.25 and len(factors) > 20
    assert 1 <= stats.inversions < len(factors)
    assert np.abs(out - ref).max() < 1e-6


def _spy_handover(monkeypatch):
    """Record the pair's points and step handed to the NDF, its warm start,
    the evaluations of f made before the NDF's first Newton iteration, and
    the time that iteration steps to."""
    seen = {"calls": 0}
    ndf, warm_start, correct = ode._ndf, ode._warm_start, ode._correct

    def counted(f):
        def wrapped(t, y):
            seen["calls"] += 1
            return f(t, y)
        return wrapped

    def ndf_spy(f, jac, points, h, *args):
        seen.update(points=list(points), h=h, calls_at_handover=seen["calls"])
        return ndf(f, jac, points, h, *args)

    def warm_start_spy(*args):
        seen["start"] = warm_start(*args)
        return seen["start"]

    def correct_spy(f, t_new, *args):
        if "first_t" not in seen:
            seen["first_t"] = t_new
            seen["calls_at_first_newton"] = seen["calls"]
        return correct(f, t_new, *args)

    monkeypatch.setattr(ode, "_ndf", ndf_spy)
    monkeypatch.setattr(ode, "_warm_start", warm_start_spy)
    monkeypatch.setattr(ode, "_correct", correct_spy)
    return seen, counted


@pytest.mark.parametrize("rtol", [1e-6, 1e-8])
def test_ndf_starts_warm_from_the_pairs_steps(monkeypatch, rtol):
    # the NDF starts from the pair's last points on at most its last step,
    # above order 1, and without evaluating f at the hand-over
    y0 = np.array([1.0, 0.5])
    ts = np.linspace(0.0, 4.0, 9)
    seen, counted = _spy_handover(monkeypatch)
    out, stats = integrate(counted(lambda t, y: STIFF_A @ y), 0.0, y0, ts,
                           rtol=rtol, atol=1e-3 * rtol,
                           jac=lambda t, y: STIFF_A)
    points, h = seen["points"], seen["h"]
    assert len(points) == ode._MAX_ORDER + 1
    _, order, h_start = seen["start"]
    assert order > 1 and h_start <= h
    t = points[-1][0]
    assert t < seen["first_t"] <= t + h
    # from as few as four of the points the order rule already goes above 1
    assert ode._warm_start(points[-4:], h, rtol, 1e-3 * rtol, 1)[1] > 1
    assert seen["calls_at_first_newton"] == seen["calls_at_handover"]
    assert stats.nfev == seen["calls"]
    assert np.abs(out - stiff_exact(ts, y0)).max() < 5 * rtol


def test_handover_from_three_points_runs_order_1(monkeypatch):
    # three points give one second difference: order 1 is the only order
    # to choose, on at most the pair's last step
    y0 = np.array([1.0, 0.5])
    ts = np.linspace(0.0, 4.0, 9)
    for kw in both_paths(lambda t, y: STIFF_A):
        if not kw:
            continue
        seen, counted = _spy_handover(monkeypatch)
        out, stats = integrate(counted(lambda t, y: STIFF_A @ y), 0.0, y0, ts,
                               rtol=1e-6, atol=1e-9, **kw)
        assert len(seen["points"]) == 3
        _, order, h_start = seen["start"]
        assert order == 1 and h_start <= seen["h"]
        t = seen["points"][-1][0]
        assert t < seen["first_t"] <= t + seen["h"]
        assert stats.nfev == seen["calls"]
        assert np.abs(out - stiff_exact(ts, y0)).max() < 5e-6
