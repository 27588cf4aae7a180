import mpmath
import numpy as np
import pytest

from rydcav.bubble import BubbleModel
from rydcav.errors import SingularParameterError
from rydcav.interactions import (
    atoms_per_bubble,
    blockade,
    blockade_volume,
    c6_coefficient,
    c6_d,
    c6_s,
    kappa,
)
from rydcav.meanfield import solve_self_consistent
from rydcav.params import RydbergLevel

from conftest import make_params
from oracles import random_paper_scale_params

mpmath.mp.dps = 50


# --- high-precision oracles -------------------------------------------------

def oracle_c6_s(n):
    u = mpmath.mpf(n) / 60
    return float((63 - 267 * u + 64 * u**2) * u**11)


def oracle_c6_d(n):
    return float(45 * (mpmath.mpf(n) / 56) ** 11)


def oracle_blockade_volume(D_e, D_r, omega, c6_ghz):
    D_e, D_r = mpmath.mpc(D_e), mpmath.mpc(D_r)
    om2 = mpmath.mpf(omega) ** 2
    dressed = om2 / (4 * (D_e + D_r - om2 / (4 * D_e))) if omega else mpmath.mpf(0)
    pref = mpmath.sqrt(2) * mpmath.pi**2 / 3
    val = pref * mpmath.sqrt(mpmath.mpf(c6_ghz) * 1000 / (D_e - dressed))
    return complex(val)


def oracle_kappa(D_e, D_r, omega, v_b, volume):
    D_e, D_r = mpmath.mpc(D_e), mpmath.mpc(D_r)
    om2 = mpmath.mpf(omega) ** 2
    dressed = om2 / (4 * (D_e + D_r - om2 / (4 * D_e))) if omega else mpmath.mpf(0)
    val = 2 * (mpmath.mpc(v_b) / (mpmath.mpf(volume) - mpmath.mpc(v_b))) * (dressed - D_r)
    return complex(val)


class TestC6:
    def test_s_anchor_n60(self):
        assert c6_s(60) == -140.0  # (63 - 267 + 64) * 1

    def test_d_anchor_n56(self):
        assert c6_d(56) == 45.0

    def test_zero_n_vanishes(self):
        assert c6_s(0) == 0.0
        assert c6_d(0) == 0.0

    def test_s_against_oracle(self):
        for n in (37, 56, 60, 70, 79, 100):
            assert c6_s(n) == pytest.approx(oracle_c6_s(n), rel=1e-13)
        # frozen value for the strong-blockade level used in the scans
        assert c6_s(70) == pytest.approx(-879.6062722820318, rel=1e-13)

    def test_d_against_oracle(self):
        for n in (43, 56, 66, 77, 85, 92):
            assert c6_d(n) == pytest.approx(oracle_c6_d(n), rel=1e-13)
        assert c6_d(92) == pytest.approx(1.059e4, rel=1e-3)

    def test_magnitude_monotone_above_n30(self):
        for fn in (c6_s, c6_d):
            mags = [abs(fn(n)) for n in range(30, 121)]
            assert all(b > a for a, b in zip(mags, mags[1:]))

    def test_coefficient_selection(self):
        assert c6_coefficient(RydbergLevel(n=60, series="S")) == -140.0
        assert c6_coefficient(RydbergLevel(n=56, series="D")) == 45.0
        assert c6_coefficient(RydbergLevel(n=60, series="S", c6_override=12.5)) == 12.5


class TestBlockadeVolume:
    D_E = 3j
    D_R = 0.2j
    OMEGA = 4.0

    def test_zero_c6(self):
        assert blockade_volume(self.D_E, self.D_R, self.OMEGA, 0.0) == 0j

    def test_sqrt_homogeneity(self):
        v1 = blockade_volume(self.D_E, self.D_R, self.OMEGA, -140.0)
        v64 = blockade_volume(self.D_E, self.D_R, self.OMEGA, -140.0 * 64)
        assert abs(v64) == pytest.approx(8 * abs(v1), rel=1e-12)

    def test_golden_value(self):
        got = blockade_volume(self.D_E, self.D_R, self.OMEGA, -140.0)
        want = oracle_blockade_volume(self.D_E, self.D_R, self.OMEGA, -140.0)
        assert got == pytest.approx(want, rel=1e-12)
        # frozen golden record of the oracle
        assert got == pytest.approx(624.73379739772859 * (1 + 1j), rel=1e-9)

    def test_principal_branch_right_half_plane(self):
        for c6 in (-3000.0, -140.0, 45.0, 4400.0):
            for dp in np.linspace(-40, 40, 41):
                v = blockade_volume(dp + 3j, dp + 0.2j, 4.0, c6)
                assert v.real >= 0.0

    def test_detuning_scan_continuity(self):
        for c6 in (c6_s(70), c6_d(85)):
            vals = np.array([blockade_volume(dp + 3j, dp + 0.2j, 4.0, c6)
                             for dp in np.linspace(-50, 50, 1001)])
            jumps = np.abs(np.diff(vals))
            assert jumps.max() < 0.05 * np.abs(vals).max()

    def test_singular_chain_raises(self):
        # control tuned so the dressed two-photon denominator vanishes: the
        # chain gives NaN, and each model that reads it raises
        assert np.isnan(blockade_volume(2.0 + 0j, 2.0 + 0j, np.sqrt(32.0), -140.0))
        p = make_params(gamma_e=0.0, gamma_r=0.0, delta_p=2.0,
                        omega_cf=np.sqrt(32.0))
        with pytest.raises(SingularParameterError):
            BubbleModel(p, nmax=1)
        with pytest.raises(SingularParameterError):
            solve_self_consistent(p)


class TestKappa:
    D_E = 3j
    D_R = 0.2j
    OMEGA = 4.0
    VOL = 6.8e5

    def _vb(self, c6=-879.6062722820318):
        return blockade_volume(self.D_E, self.D_R, self.OMEGA, c6)

    def test_zero_blockade_volume(self):
        assert kappa(self.D_E, self.D_R, self.OMEGA, 0j, self.VOL) == 0j

    def test_golden_value_70s(self):
        c6 = c6_s(70)
        v_b = self._vb(c6)
        got = kappa(self.D_E, self.D_R, self.OMEGA, v_b, self.VOL)
        want = oracle_kappa(self.D_E, self.D_R, self.OMEGA, v_b, self.VOL)
        assert got == pytest.approx(want, rel=1e-12)
        # frozen golden record of the oracle
        assert got == pytest.approx(0.0050080119052119389 - 0.0049849464740147616j,
                                    rel=1e-9)

    def test_damping_sign_on_resonance(self):
        # composite sign convention: on two-photon resonance the interaction
        # removes transparency, never adds it
        for n in range(40, 110, 7):
            for series_c6 in (c6_s(n), c6_d(n)):
                v_b = blockade_volume(self.D_E, self.D_R, self.OMEGA, series_c6)
                k = kappa(self.D_E, self.D_R, self.OMEGA, v_b, self.VOL)
                assert k.imag <= 1e-15

    def test_continuity_in_v_b(self):
        v_b = self._vb()
        ks = [kappa(self.D_E, self.D_R, self.OMEGA, v_b * s, self.VOL)
              for s in np.linspace(0.01, 1.0, 50)]
        diffs = np.abs(np.diff(ks))
        assert diffs.max() < 0.1 * abs(ks[-1])

    def test_volume_singularity(self):
        v_b = 100.0 + 0j
        assert np.isnan(kappa(self.D_E, self.D_R, self.OMEGA, v_b, 100.0))
        # undamped and undressed, with C6 / delta_p > 0, V_b is real; a
        # cloud of that volume leaves kappa NaN, so the mean field raises,
        # while the bubble model, which reads no kappa, builds with n_b = N
        p = make_params(gamma_e=0.0, gamma_r=0.0, delta_p=-2.0, omega_cf=0.0)
        v_b, _ = blockade(p)
        assert v_b.imag == 0.0
        p = make_params(gamma_e=0.0, gamma_r=0.0, delta_p=-2.0, omega_cf=0.0,
                        cloud_volume=float(v_b.real))
        assert np.isnan(blockade(p)[1])
        with pytest.raises(SingularParameterError):
            solve_self_consistent(p)
        assert BubbleModel(p, nmax=1).n_b == p.ensemble.atom_number


class TestAtomsPerBubble:
    def test_clamp_floor(self):
        assert atoms_per_bubble(10_000, 0j, 1e6) == 1.0

    def test_whole_cloud(self):
        assert atoms_per_bubble(10_000, 1e6 + 0j, 1e6) == 10_000.0

    def test_direct_product(self):
        assert atoms_per_bubble(10_000, 1e4 + 0j, 1e6) == pytest.approx(100.0)

    def test_bad_volume(self):
        with pytest.raises(ValueError):
            atoms_per_bubble(10, 1 + 0j, 0.0)

    @pytest.mark.parametrize("v_b", [complex("nan"), complex("inf"),
                                     np.complex128(complex(1.0, np.inf))])
    def test_singular_blockade_volume_raises_before_the_clamp(self, v_b):
        # clamped, a NaN would pass on as 1 or N and an infinity as N
        with pytest.raises(SingularParameterError, match="not finite"):
            atoms_per_bubble(10_000, v_b, 1e6)

    def test_partition_identity(self, paper_params):
        ens = paper_params.ensemble
        v_b, _ = blockade(paper_params)
        n_b = atoms_per_bubble(ens.atom_number, v_b, ens.cloud_volume)
        assert 1.0 < n_b < ens.atom_number     # unclamped at this scale
        assert n_b * ens.cloud_volume == pytest.approx(
            ens.atom_number * abs(v_b), rel=1e-12)

    def test_override_propagates(self):
        p = make_params(c6_override=0.0)
        assert c6_coefficient(p.rydberg) == 0.0
        assert blockade(p) == (0j, 0j)
        assert atoms_per_bubble(p.ensemble.atom_number, 0j,
                                p.ensemble.cloud_volume) == 1.0


class TestBlockadeGrid:
    def test_array_matches_scalar(self):
        p = make_params(n=70)
        grid = np.linspace(-30.0, 30.0, 61)
        v_b, kap = blockade(p, grid)
        for dp, v, k in zip(grid, v_b, kap):
            v1, k1 = blockade(p, float(dp))
            assert v == pytest.approx(v1, rel=1e-14)
            assert k == pytest.approx(k1, rel=1e-14)

    def test_singular_point_is_nan_alone(self):
        # undamped, with the control tuned so that the dressed two-photon
        # denominator vanishes at delta_p = 2 only
        p = make_params(gamma_e=0.0, gamma_r=0.0, omega_cf=np.sqrt(32.0))
        assert all(np.isnan(v) for v in blockade(p, 2.0))
        v_b, kap = blockade(p, np.array([1.0, 2.0, 3.0]))
        assert np.isnan(v_b[1]) and np.isnan(kap[1])
        assert np.isfinite(v_b[[0, 2]]).all() and np.isfinite(kap[[0, 2]]).all()
        # the models raise there, and only there
        at = make_params(gamma_e=0.0, gamma_r=0.0, omega_cf=np.sqrt(32.0),
                         delta_p=2.0)
        with pytest.raises(SingularParameterError):
            BubbleModel(at, nmax=1)
        with pytest.raises(SingularParameterError):
            solve_self_consistent(at)
        solve_self_consistent(p, delta_p=1.0)

    def test_scalar_is_the_array_element_bit_for_bit(self):
        # one numpy expression for every shape: a scalar detuning reads the
        # bits of the array element at it
        rng = np.random.default_rng(7)
        for k in range(200):
            p = random_paper_scale_params(rng, series="SD"[k % 2])
            grid = rng.uniform(-30.0, 30.0, 9)
            v_b, kap = blockade(p, grid)
            for i, dp in enumerate(grid.tolist()):
                v1, k1 = blockade(p, dp)
                assert (v1, k1) == (v_b[i], kap[i]), (k, dp)
                assert isinstance(v1, np.complex128)
