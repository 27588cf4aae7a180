import numpy as np
import pytest

from rydcav.errors import IntegrationError
from rydcav.ode import integrate


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
    assert stats.accepted > 0 and stats.rejected >= 0


def test_sample_times_hit_exactly():
    def f(t, y):
        return y * 0.0 + 1.0  # dy/dt = 1

    ts = np.array([0.0, 0.3, 1.0, 2.5])
    out, _ = integrate(f, 0.0, np.array([0.0 + 0j]), ts, rtol=1e-10)
    np.testing.assert_allclose(out[:, 0].real, ts, atol=1e-12)


def test_sample_callback_invoked_and_aborts():
    seen = []

    def f(t, y):
        return -y

    def cb(t, y):
        seen.append(t)
        if t > 0.5:
            raise IntegrationError("abort requested")

    with pytest.raises(IntegrationError):
        integrate(f, 0.0, np.array([1.0 + 0j]), [0.2, 0.4, 1.0, 2.0], rtol=1e-8,
                  sample_callback=cb)
    assert seen == [0.2, 0.4, 1.0]


def test_step_underflow_raises():
    # finite-time blow-up: y' = y^2, y(0) = 1 diverges at t = 1
    def f(t, y):
        return y * y

    with pytest.raises(IntegrationError):
        integrate(f, 0.0, np.array([1.0 + 0j]), [2.0], rtol=1e-8)


def test_invalid_sample_times():
    def f(t, y):
        return -y

    with pytest.raises(ValueError):
        integrate(f, 0.0, np.array([1.0 + 0j]), [1.0, 0.5], rtol=1e-8)
    with pytest.raises(ValueError):
        integrate(f, 0.0, np.array([1.0 + 0j]), [-1.0], rtol=1e-8)
    with pytest.raises(ValueError):
        integrate(f, 0.0, np.array([1.0 + 0j]), [], rtol=1e-8)


@pytest.mark.parametrize("kw", [
    {"rtol": float("nan")}, {"rtol": 0.0}, {"rtol": -1.0}, {"rtol": float("inf")},
    {"atol": float("nan")}, {"atol": -1e-12}, {"atol": float("inf")},
])
def test_invalid_tolerances_rejected_before_any_evaluation(kw):
    def f(t, y):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError, match="tol must be"):
        integrate(f, 0.0, np.array([1.0]), [1.0], **{"rtol": 1e-8, **kw})


@pytest.mark.parametrize("times", [[0.0, float("nan"), 2.0], [1.0, float("inf")]])
def test_non_finite_sample_times_rejected(times):
    def f(t, y):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError, match="finite"):
        integrate(f, 0.0, np.array([1.0]), times, rtol=1e-8)


def test_non_finite_step_raises():
    # reported as what it is, not as a step-size underflow after the
    # integrator has shrunk the step to nothing
    def f(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    with pytest.raises(IntegrationError, match="non-finite"):
        integrate(f, 0.0, np.array([1.0]), [2.0], rtol=1e-8)


def test_non_finite_initial_state_raises():
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate(lambda t, y: -y, 0.0, np.array([np.nan]), [1.0], rtol=1e-8)
