import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rydcav.errors import ConfigError
from rydcav.params import (
    CavityParams,
    PhysicalParams,
    RydbergLevel,
    ScanSpec,
    get_path,
    linewidth_from_geometry,
    load_config,
    params_from_dict,
    params_to_dict,
    set_path,
    set_paths,
    to_angular,
    validate,
)

import rydcav
from rydcav.datafiles import config_hash
from conftest import make_params


# independent high-precision oracle for the linewidth utility
def _linewidth_oracle(length, finesse):
    c = mpmath.mpf(299792458)  # m/s, SI definition
    return float(c / (2 * mpmath.mpf(length) * mpmath.mpf(finesse)) / mpmath.mpf(1e6))


class TestValidate:
    def test_paper_defaults_accepted(self):
        p = PhysicalParams(cavity=CavityParams(length=0.066, finesse=120.0,
                                               gamma_c=10.0))
        assert validate(p) is p

    def test_idempotent_returns_same_object(self, paper_params):
        assert validate(paper_params) is paper_params

    def test_negative_gamma_c_rejected(self):
        p = PhysicalParams(cavity=CavityParams(gamma_c=-1.0))
        with pytest.raises(ConfigError) as exc:
            validate(p)
        assert any("cavity.gamma_c must be > 0" in e for e in exc.value.errors)

    def test_degenerate_scan_rejected(self):
        p = PhysicalParams(scan=ScanSpec(start=0.0, stop=10.0, npoints=1))
        with pytest.raises(ConfigError) as exc:
            validate(p)
        assert any("scan.npoints" in e for e in exc.value.errors)

    def test_all_violations_reported_at_once(self):
        p = PhysicalParams(
            cavity=CavityParams(gamma_c=-1.0, finesse=0.0),
            rydberg=RydbergLevel(n=2, xi=-0.5),
        )
        with pytest.raises(ConfigError) as exc:
            validate(p)
        msgs = "\n".join(exc.value.errors)
        for frag in ("cavity.gamma_c", "cavity.finesse", "rydberg.n", "rydberg.xi"):
            assert frag in msgs

    def test_nonfinite_rejected(self):
        from rydcav.params import DriveParams

        p = PhysicalParams(drive=DriveParams(delta_p=float("nan")))
        with pytest.raises(ConfigError):
            validate(p)


class TestAngular:
    def test_anchor_values(self):
        assert to_angular(0.0) == 0.0
        assert to_angular(1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert to_angular(10.0) == pytest.approx(62.83185307179586, rel=1e-14)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_linearity(self, a, b):
        assert to_angular(a + b) == pytest.approx(
            to_angular(a) + to_angular(b), rel=1e-12, abs=1e-9)


class TestLinewidth:
    def test_paper_geometry(self):
        v = linewidth_from_geometry(0.066, 120.0)
        assert v == pytest.approx(_linewidth_oracle(0.066, 120.0), rel=1e-12)
        # frozen oracle value, and the quoted full linewidth 2 gamma_c
        assert v == pytest.approx(18.92629154040404, rel=1e-12)
        assert abs(v - 2 * 10.0) / (2 * 10.0) < 0.10

    def test_halved_length_doubles(self):
        v = linewidth_from_geometry(0.033, 120.0)
        assert v == pytest.approx(_linewidth_oracle(0.033, 120.0), rel=1e-12)
        assert v == pytest.approx(2 * linewidth_from_geometry(0.066, 120.0), rel=1e-12)

    def test_infinite_finesse_limit(self):
        assert linewidth_from_geometry(0.066, 1e12) < 1e-8

    @pytest.mark.parametrize("scale", [2.0, 5.0, 10.0])
    def test_inverse_scaling(self, scale):
        base = linewidth_from_geometry(0.066, 120.0)
        assert linewidth_from_geometry(0.066 * scale, 120.0) == pytest.approx(
            base / scale, rel=1e-12)
        assert linewidth_from_geometry(0.066, 120.0 * scale) == pytest.approx(
            base / scale, rel=1e-12)

    def test_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            linewidth_from_geometry(0.0, 120.0)
        with pytest.raises(ValueError):
            linewidth_from_geometry(0.066, -1.0)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: neither importing the package
    # nor running both integrators (a plain and a sensitivity evolve, a
    # steady solve) may pull scipy in, which would cost import time and
    # resident memory on every run
    src = str(Path(rydcav.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, rydcav\n"
            "from rydcav import PhysicalParams\n"
            "p = PhysicalParams()\n"
            "rydcav.evolve(p, t_end=1.0, nmax=1)\n"
            "rydcav.evolve(p, t_end=1.0, nmax=1, sensitivity=('rydberg.xi',))\n"
            "rydcav.steady_transmission_bubble(p, nmax=1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_gamma_s_defaults_to_gamma_r():
    level = RydbergLevel(gamma_r=0.3)
    assert level.gamma_s_eff == 0.3
    assert RydbergLevel(gamma_r=0.3, gamma_s=0.01).gamma_s_eff == 0.01


def test_detuning_wiring():
    p = make_params(delta_p=2.0, delta_cf=-1.5, delta_bg=0.7)
    de, dr, dc = p.detunings()
    assert (de, dr, dc) == (2.0, 0.5, 1.3)
    De, Dr, Dc = p.complex_detunings(delta_p=0.0)
    assert De == complex(0.0, 3.0)
    assert Dr == complex(-1.5, 0.2)
    assert Dc == complex(-0.7, 10.0)


class TestConfigTree:
    def test_round_trip(self, paper_params):
        tree = params_to_dict(paper_params)
        again = params_from_dict(tree)
        assert again == paper_params

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as exc:
            params_from_dict({"cavityy": {}})
        assert "unknown section" in str(exc.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            params_from_dict({"cavity": {"gama_c": 10.0}})
        assert "cavity.gama_c" in str(exc.value)

    def test_type_errors_reported_with_path(self):
        with pytest.raises(ConfigError) as exc:
            params_from_dict({"ensemble": {"atom_number": 3.5}})
        assert "ensemble.atom_number" in str(exc.value)

    def test_scan_requires_all_fields(self):
        with pytest.raises(ConfigError):
            params_from_dict({"scan": {"start": 0.0, "stop": 1.0}})

    def test_load_config(self, tmp_path, paper_params):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(params_to_dict(paper_params)))
        assert load_config(path) == paper_params

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


class TestPaths:
    def test_get_set(self, paper_params):
        assert get_path(paper_params, "cavity.gamma_c") == 10.0
        p2 = set_path(paper_params, "drive.alpha", 2.5)
        assert get_path(p2, "drive.alpha") == 2.5
        assert get_path(paper_params, "drive.alpha") == 1.0  # original untouched

    @pytest.mark.parametrize("path", ["rydberg.n", "ensemble.atom_number",
                                      "scan.npoints"])
    @pytest.mark.parametrize("value", [
        84.9, 85.0, True, "85", pytest.param(np.float64(85.0), id="np.float64"),
        pytest.param(np.True_, id="np.True_")])
    def test_integer_field_takes_only_an_int(self, paper_params, path, value):
        # a float was truncated: rydberg.n = 84.9 ran n = 84
        p = replace(paper_params, scan=ScanSpec(-5.0, 5.0, 11))
        with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be an "
                                              f"integer$"):
            set_path(p, path, value)
        assert get_path(set_path(p, path, 85), path) == 85

    @pytest.mark.parametrize("path", ["rydberg.n", "ensemble.atom_number",
                                      "scan.npoints"])
    def test_integer_field_stores_a_numpy_integer_as_an_int(self, paper_params, path):
        # a numpy integer is an integer, stored as the int a config file
        # gives, so the bundle stays JSON-serialisable
        p = replace(paper_params, scan=ScanSpec(-5.0, 5.0, 11))
        got, want = set_path(p, path, np.int64(85)), set_path(p, path, 85)
        assert got == want and type(get_path(got, path)) is int
        assert validate(got) is got
        assert config_hash(params_to_dict(got)) == config_hash(params_to_dict(want))
        # validate takes one that a bundle was built with
        direct = replace(p, rydberg=replace(p.rydberg, n=np.int64(85)))
        assert validate(direct) is direct

    @pytest.mark.parametrize("value", [True, "2.5"])
    def test_number_field_takes_only_a_number(self, paper_params, value):
        # as in a config file, neither a bool nor a string is a number
        with pytest.raises(ConfigError, match=r"^drive\.alpha must be a number$"):
            set_path(paper_params, "drive.alpha", value)

    def test_number_field_converts_to_float(self, paper_params):
        # a fit's set_paths hands over numpy floats, which are floats
        p = set_paths(paper_params, {"drive.alpha": np.float64(2.5),
                                     "cavity.gamma_c": 7})
        for path, value in (("drive.alpha", 2.5), ("cavity.gamma_c", 7.0)):
            assert type(get_path(p, path)) is float
            assert get_path(p, path) == value

    def test_unknown_path(self, paper_params):
        with pytest.raises(KeyError):
            get_path(paper_params, "drive.nonsense")
        with pytest.raises(KeyError):
            set_path(paper_params, "nowhere.at_all", 1.0)


def test_scan_values():
    s = ScanSpec(-5.0, 5.0, 11)
    np.testing.assert_allclose(s.values(), np.linspace(-5, 5, 11))
