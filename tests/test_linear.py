import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcav.errors import SingularParameterError
from rydcav.linear import Spectrum, scan_linear, transmission_linear
from rydcav.params import ScanSpec

from conftest import make_params


def two_level_reference(gamma_c, gamma_e, coop, delta_p, delta_bg=0.0):
    """Independent two-level (no control field) transmission."""
    D_e = complex(delta_p, gamma_e)
    D_c = complex(delta_p - delta_bg, gamma_c)
    return abs(gamma_c * D_e / (D_e * D_c - 2 * gamma_c * gamma_e * coop)) ** 2


class TestAnchors:
    def test_empty_cavity_resonance(self):
        p = make_params(cooperativity=0.0, omega_cf=0.0)
        assert abs(transmission_linear(p, 0.0) - 1.0) < 1e-12

    def test_empty_cavity_half_width(self):
        p = make_params(cooperativity=0.0, omega_cf=0.0, gamma_c=10.0)
        assert transmission_linear(p, 10.0) == pytest.approx(0.5, rel=1e-12)

    def test_on_resonance_closed_form(self):
        # independent evaluation of the resonant limit:
        # T = (g_e + W^2/(4 g_r))^2 / (g_e + W^2/(4 g_r) + 2 g_e C)^2
        p = make_params(gamma_e=3.0, gamma_r=0.1, omega_cf=4.0, cooperativity=5.0)
        num = 3.0 + 16.0 / (4 * 0.1)
        expected = num**2 / (num + 2 * 3.0 * 5.0) ** 2
        assert expected == pytest.approx(43.0**2 / 73.0**2, rel=1e-15)
        assert transmission_linear(p, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_omega_zero_term_by_term(self):
        # with no control field the Rydberg branch term is exactly zero and
        # the two-level expression is reproduced identically
        p = make_params(omega_cf=0.0, gamma_r=0.0, cooperativity=7.0)
        for dp in (-25.0, -3.0, 0.0, 1.0, 17.5):
            # identical expression tree; only the final |.| may differ by 1 ulp
            assert transmission_linear(p, dp) == pytest.approx(
                two_level_reference(10.0, 3.0, 7.0, dp), rel=1e-14)


class TestSpectra:
    def test_symmetric_lorentzian(self):
        p = make_params(cooperativity=0.0, omega_cf=0.0,
                        scan=ScanSpec(-50.0, 50.0, 101))
        spec = scan_linear(p)
        np.testing.assert_allclose(spec.transmission, spec.transmission[::-1],
                                   rtol=1e-12)
        assert spec.transmission.argmax() == 50  # at zero detuning

    def test_normal_mode_positions(self):
        # two maxima near +-sqrt(2 g_e g_c C) when the splitting dominates
        coop = 60.0
        p = make_params(cooperativity=coop, omega_cf=0.0,
                        scan=ScanSpec(-100.0, 100.0, 4001))
        spec = scan_linear(p)
        expected = np.sqrt(2 * 3.0 * 10.0 * coop)
        t = spec.transmission
        half = t[: 2000]
        left = spec.delta_p[np.argmax(half)]
        right = spec.delta_p[2001 + np.argmax(t[2001:])]
        assert abs(-left - expected) / expected < 0.05
        assert abs(right - expected) / expected < 0.05

    def test_eit_window_local_max_at_two_photon_resonance(self):
        p = make_params(cooperativity=5.0, omega_cf=4.0, gamma_r=0.02)
        t0 = transmission_linear(p, 0.0)
        assert t0 > transmission_linear(p, 0.5)
        assert t0 > transmission_linear(p, -0.5)
        assert t0 > 0.7  # deep transparency for small gamma_r

    def test_delta_bg_shifts_cavity_line(self):
        p = make_params(cooperativity=0.0, omega_cf=0.0, delta_bg=4.0)
        assert transmission_linear(p, 4.0) == pytest.approx(1.0, rel=1e-12)
        assert transmission_linear(p, 0.0) < 1.0

    def test_far_detuning_rolloff(self, paper_params):
        assert transmission_linear(paper_params, 1e6) < 1e-6
        assert transmission_linear(paper_params, -1e6) < 1e-6

    def test_dip_depth_monotone_in_cooperativity(self):
        previous = 1.1
        for coop in (0.0, 1.0, 3.0, 10.0, 30.0):
            t = transmission_linear(make_params(cooperativity=coop), 0.0)
            assert t < previous
            previous = t


@settings(max_examples=60, deadline=None)
@given(
    gamma_c=st.floats(0.5, 50.0),
    gamma_e=st.floats(0.1, 20.0),
    gamma_r=st.floats(0.001, 5.0),
    omega=st.floats(0.0, 20.0),
    coop=st.floats(0.0, 100.0),
    delta_p=st.floats(-200.0, 200.0),
)
def test_transmission_nonnegative_and_finite(gamma_c, gamma_e, gamma_r, omega,
                                             coop, delta_p):
    p = make_params(gamma_c=gamma_c, gamma_e=gamma_e, gamma_r=gamma_r,
                    omega_cf=omega, cooperativity=coop)
    t = transmission_linear(p, delta_p)
    assert np.isfinite(t)
    assert t >= 0.0


class TestSpectrumType:
    def test_csv_header(self):
        assert Spectrum.header == "delta_p_mhz,transmission"

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Spectrum(np.array([0.0, 1.0]), np.array([-0.1, 1.0]))

    def test_scan_metadata_snapshot(self, paper_params):
        from dataclasses import replace

        p = replace(paper_params, scan=ScanSpec(-10.0, 10.0, 21))
        spec = scan_linear(p)
        assert spec.metadata["params"]["cavity"]["gamma_c"] == 10.0
        assert spec.delta_p.size == 21


@pytest.mark.parametrize("delta_p", [np.nan, np.inf, [0.0, np.nan, 1.0]])
def test_non_finite_detuning_rejected(delta_p):
    with pytest.raises(ValueError, match="probe detuning must be finite"):
        transmission_linear(make_params(), delta_p)


def test_singular_parameters_raise():
    p = make_params(gamma_c=1e-320, gamma_e=0.0, gamma_r=0.0,
                    cooperativity=0.0, omega_cf=0.0)
    with pytest.raises(SingularParameterError):
        transmission_linear(p, 0.0)


@pytest.mark.parametrize("delta_p", [0.0, [-1.0, 0.0, 1.0]])
def test_ideal_eit_on_two_photon_resonance_raises(delta_p):
    # gamma_r = 0 and delta_p = -delta_cf: D_r = 0, so B = D_e - Omega^2 /
    # (4 D_r) is infinite and T is 0/0, never a NaN handed back
    p = make_params(gamma_r=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularParameterError, match="not finite"):
            transmission_linear(p, delta_p)
