import json

import numpy as np
import pytest

from rydcav import cli
from rydcav.bubble import BubbleModel
from rydcav.cli import main
from rydcav.datafiles import read_xy_csv
from rydcav.params import params_to_dict

from conftest import make_params


@pytest.fixture
def config_path(tmp_path):
    p = make_params()
    tree = params_to_dict(p)
    tree["scan"] = {"start": -50.0, "stop": 50.0, "npoints": 101}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tree, indent=1))
    return path


def write_config(tmp_path, name="cfg.json", **overrides):
    tree = params_to_dict(make_params(**overrides))
    if overrides.get("scan") is None:
        tree["scan"] = {"start": -50.0, "stop": 50.0, "npoints": 101}
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


class TestC6Command:
    def test_s60_anchor(self, capsys):
        assert main(["c6", "--series", "S", "--n", "60"]) == 0
        assert capsys.readouterr().out.strip() == "-140 GHz.um6"

    def test_d56_anchor(self, capsys):
        assert main(["c6", "--series", "D", "--n", "56"]) == 0
        assert capsys.readouterr().out.strip() == "45 GHz.um6"


class TestValidateCommand:
    def test_good_config(self, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_bad_override_value(self, config_path, capsys):
        rc = main(["validate", "--config", str(config_path),
                   "--override", "cavity.gamma_c=-3"])
        assert rc == 1
        assert "cavity.gamma_c" in capsys.readouterr().err

    def test_unknown_override_key(self, config_path, capsys):
        rc = main(["validate", "--config", str(config_path),
                   "--override", "cavity.nope=3"])
        assert rc == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["validate", "--config", str(tmp_path / "absent.json")])
        assert rc == 1


class TestLinearScan:
    def test_empty_cavity_peak_at_resonance(self, tmp_path):
        cfg = write_config(tmp_path, cooperativity=0.0, omega_cf=0.0)
        out = tmp_path / "scan.csv"
        assert main(["linear-scan", "--config", str(cfg), "--out", str(out)]) == 0
        x, y, _ = read_xy_csv(out)
        assert y.max() == pytest.approx(1.0, abs=1e-9)
        assert x[y.argmax()] == pytest.approx(0.0)

    def test_header_and_meta(self, config_path, tmp_path):
        out = tmp_path / "scan.csv"
        main(["linear-scan", "--config", str(config_path), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# rydcav ")
        assert any(line.startswith("# config_hash=") for line in lines[:4])
        assert "delta_p_mhz,transmission" in lines

    def test_json_format(self, config_path, tmp_path):
        out = tmp_path / "scan.json"
        main(["linear-scan", "--config", str(config_path), "--out", str(out),
              "--format", "json"])
        doc = json.loads(out.read_text())
        assert len(doc["transmission"]) == 101
        assert doc["_meta"]["version"]

    def test_noise_is_seeded(self, config_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        main(["linear-scan", "--config", str(config_path), "--out", str(a),
              "--noise", "0.02", "--seed", "5"])
        main(["linear-scan", "--config", str(config_path), "--out", str(b),
              "--noise", "0.02", "--seed", "5"])
        main(["linear-scan", "--config", str(config_path), "--out", str(c),
              "--noise", "0.02", "--seed", "6"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestOverrides:
    def test_override_equals_edited_config(self, tmp_path):
        cfg_a = write_config(tmp_path, "a.json")
        cfg_b = write_config(tmp_path, "b.json", omega_cf=6.0)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["linear-scan", "--config", str(cfg_a), "--out", str(out_a),
              "--override", "drive.omega_cf=6.0"])
        main(["linear-scan", "--config", str(cfg_b), "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_malformed_override(self, config_path):
        assert main(["linear-scan", "--config", str(config_path),
                     "--override", "oops"]) == 1


class TestParserReuse:
    def test_consecutive_calls_match_fresh_ones(self, tmp_path):
        # the parser is built once per process; each call must still write
        # what a call with a parser of its own writes, and the overrides
        # of one call must not reach the next
        cfg = write_config(tmp_path)
        calls = [
            ["linear-scan", "--override", "drive.omega_cf=6.0",
             "cavity.gamma_c=8.0"],
            ["meanfield-scan", "--override", "drive.alpha=0.5"],
            ["linear-scan"],
            ["meanfield-scan", "--variable", "rate", "--format", "json",
             "--override", "scan.start=0.5", "scan.stop=30", "scan.npoints=7"],
            ["linear-scan", "--override", "drive.omega_cf=5.0"],
            ["bubble-steady", "--nmax", "1", "--window", "1"],
        ]

        def run(argv, out):
            assert main([argv[0], "--config", str(cfg), "--out", str(out),
                         *argv[1:]]) == 0
            return out.read_bytes()

        assert cli._parser() is cli._parser()
        reused = [run(argv, tmp_path / f"reused{i}") for i, argv in
                  enumerate(calls)]
        fresh = []
        for i, argv in enumerate(calls):
            cli._parser.cache_clear()
            fresh.append(run(argv, tmp_path / f"fresh{i}"))
        assert reused == fresh
        assert reused[0] != reused[2] != reused[4]
        args = cli._parser().parse_args(["validate", "--config", str(cfg)])
        assert args.override == ()


class TestMeanfieldScan:
    def test_rate_scan(self, tmp_path):
        cfg = write_config(tmp_path, scan=None)
        # override the scan to a photon-rate axis
        out = tmp_path / "rate.csv"
        rc = main(["meanfield-scan", "--config", str(cfg), "--out", str(out),
                   "--variable", "rate",
                   "--override", "scan.start=0.5", "scan.stop=30", "scan.npoints=7"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "photon_rate_per_us,transmission,x,root_count" in lines
        x, y, _ = read_xy_csv(out)
        assert y[0] > y[-1]  # blockade reduces transparency with rate

    def test_meta_has_scan_counts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "mf.json"
        assert main(["meanfield-scan", "--config", str(cfg), "--out", str(out),
                     "--format", "json", "--override", "scan.npoints=21"]) == 0
        meta = json.loads(out.read_text())["_meta"]
        assert meta["failed_points"] == 0
        assert meta["root_counts"] == {"1": 21}
        assert 0.0 <= meta["worst_residual"] < 1e-10
        csv = tmp_path / "mf.csv"
        main(["meanfield-scan", "--config", str(cfg), "--out", str(csv),
              "--override", "scan.npoints=21"])
        lines = csv.read_text().splitlines()
        assert "# failed_points=0" in lines
        assert "# root_counts={'1': 21}" in lines

    def test_detuning_scan_matches_linear_at_zero_c6(self, tmp_path):
        cfg = write_config(tmp_path, c6_override=0.0)
        out_mf = tmp_path / "mf.csv"
        out_lin = tmp_path / "lin.csv"
        main(["meanfield-scan", "--config", str(cfg), "--out", str(out_mf),
              "--override", "scan.npoints=21"])
        main(["linear-scan", "--config", str(cfg), "--out", str(out_lin),
              "--override", "scan.npoints=21"])
        _, y_mf, _ = read_xy_csv(out_mf)
        _, y_lin, _ = read_xy_csv(out_lin)
        np.testing.assert_allclose(y_mf, y_lin, rtol=1e-12)


class TestBubbleCommands:
    def test_evolve_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "evolve.csv"
        rc = main(["bubble-evolve", "--config", str(cfg), "--out", str(out),
                   "--t-end", "4", "--dt", "1", "--nmax", "2"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "t_us,transmission,pop_R,pop_S,trace_error" in lines
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(rows) == 5

    def test_evolve_meta_has_solver_counts_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        texts = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["bubble-evolve", "--config", str(cfg), "--out", str(out),
                         "--t-end", "4", "--dt", "1", "--nmax", "2"]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        meta = dict(line[2:].split("=", 1) for line in texts[0].splitlines()
                    if line.startswith("# ") and "=" in line)
        for key in ("coordinates", "nfev", "accepted_steps", "jacobian_evals",
                    "inversions"):
            assert int(meta[key]) > 0
        assert int(meta["rejected_steps"]) >= 0   # a stiff run may reject none
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in texts[0].splitlines()[len(meta) + 2:]])
        assert float(meta["max_trace_drift"]) == rows[:, 4].max()

    def test_evolve_t_end_off_the_dt_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["bubble-evolve", "--config", str(cfg),
                   "--out", str(tmp_path / "evolve.csv"),
                   "--t-end", "10", "--dt", "3", "--nmax", "2"])
        assert rc == 1
        assert "multiple of dt" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--rtol", "nan"), ("--rtol", "-1"),
                                             ("--t-end", "inf")])
    def test_evolve_bad_value_exits_1_without_integrating(
            self, tmp_path, capsys, monkeypatch, flag, value):
        def no_rhs(*args):
            raise AssertionError("right-hand side evaluated")

        monkeypatch.setattr(BubbleModel, "rhs_flat", no_rhs)
        cfg = write_config(tmp_path)
        out = tmp_path / "evolve.csv"
        rc = main(["bubble-evolve", "--config", str(cfg), "--out", str(out),
                   "--t-end", "4", "--dt", "1", "--nmax", "2", flag, value])
        assert rc == 1
        assert "must be > 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_steady_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "steady.json"
        rc = main(["bubble-steady", "--config", str(cfg), "--out", str(out),
                   "--threshold", "1e-2", "--window", "2", "--nmax", "2"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert 0.0 <= doc["transmission"] <= 1.0
        assert doc["newton_iterations"] >= 1
        assert doc["residual"] < 1e-12
        assert doc["verdict"] == "stable"
        # a stable root needs no marginal-stability evolve
        assert doc["marginal_solver"] == {
            "nfev": 0, "accepted_steps": 0, "rejected_steps": 0,
            "jacobian_evals": 0, "inversions": 0}
        assert {k: doc["_meta"][k] for k in
                ("nmax", "rtol", "window", "threshold", "t_max")} == {
            "nmax": 2, "rtol": 1e-8, "window": 2.0, "threshold": 1e-2,
            "t_max": 500.0}

    def test_steady_nonpositive_window_or_t_max(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for flag, value in (("--window", "0"), ("--window", "-1"),
                            ("--t-max", "0")):
            rc = main(["bubble-steady", "--config", str(cfg),
                       "--out", str(tmp_path / "steady.json"), "--nmax", "1",
                       flag, value])
            assert rc == 1
            assert "must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "steady.json").exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_steady_bad_rtol_exits_1_without_a_jacobian(
            self, tmp_path, capsys, monkeypatch, value):
        def no_jacobian(*args):
            raise AssertionError("Jacobian evaluated")

        monkeypatch.setattr(BubbleModel, "jacobian", no_jacobian)
        cfg = write_config(tmp_path)
        out = tmp_path / "steady.json"
        rc = main(["bubble-steady", "--config", str(cfg), "--out", str(out),
                   "--nmax", "1", "--rtol", value])
        assert rc == 1
        assert "rtol must be >= 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_exit_code(self, tmp_path):
        # control dressing tuned to the singular point of the blockade chain
        cfg = write_config(tmp_path, gamma_e=0.0, gamma_r=0.0, delta_p=2.0,
                           omega_cf=float(np.sqrt(32.0)))
        rc = main(["bubble-steady", "--config", str(cfg),
                   "--out", str(tmp_path / "x.json"), "--t-max", "5"])
        assert rc == 2


class TestFitCommands:
    def test_fit_eit_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "spectrum.csv"
        main(["linear-scan", "--config", str(cfg), "--out", str(data),
              "--noise", "0.01", "--seed", "3",
              "--override", "scan.npoints=401"])
        report = tmp_path / "fit.json"
        rc = main(["fit-eit", "--config", str(cfg), "--data", str(data),
                   "--out", str(report),
                   "--override", "drive.omega_cf=4.8", "rydberg.gamma_r=0.3"])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["converged"] is True
        assert doc["jacobian_source"] == "closed-form"
        # one model run per residual and none per Jacobian
        assert 1 <= doc["model_evals"] <= doc["iterations"] + 1
        best = doc["best_fit"]
        assert best["cavity.gamma_c"] == pytest.approx(10.0, rel=0.05)
        assert best["ensemble.cooperativity"] == pytest.approx(5.0, rel=0.05)
        assert best["drive.omega_cf"] == pytest.approx(4.0, rel=0.10)
        assert best["rydberg.gamma_r"] == pytest.approx(0.2, rel=0.25)

    def test_fit_transient_xi(self, tmp_path):
        cfg = write_config(tmp_path, n=85, series="D", gamma_r=0.05,
                           gamma_s=0.002, xi=2.0, alpha=3.0)
        data = tmp_path / "transient.csv"
        main(["bubble-evolve", "--config", str(cfg), "--out", str(data),
              "--t-end", "12", "--dt", "1", "--nmax", "2", "--rtol", "1e-7"])
        report = tmp_path / "fit.json"
        rc = main(["fit-transient", "--config", str(cfg), "--data", str(data),
                   "--out", str(report), "--nmax", "2", "--rtol", "1e-6",
                   "--override", "rydberg.xi=1.4"])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["best_fit"]["rydberg.xi"] == pytest.approx(2.0, rel=0.10)
        assert doc["jacobian_source"] == "forward-sensitivity"
        assert 1 <= doc["model_evals"] <= doc["iterations"] + 1

    def test_fit_eit_report_has_no_solver_counts(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "spectrum.csv"
        main(["linear-scan", "--config", str(cfg), "--out", str(data)])
        texts = []
        for name in ("a.json", "b.json"):
            report = tmp_path / name
            assert main(["fit-eit", "--config", str(cfg), "--data", str(data),
                         "--out", str(report),
                         "--override", "drive.omega_cf=4.4"]) == 0
            texts.append(report.read_text())
        assert texts[0] == texts[1]
        assert sorted(json.loads(texts[0])) == [
            "_meta", "best_fit", "ci95", "converged", "iterations",
            "jacobian_source", "message", "model", "model_evals",
            "residual_norm"]

    def test_fit_transient_report_sums_the_solver_counts(self, tmp_path):
        cfg = write_config(tmp_path, n=85, series="D", gamma_r=0.05,
                           gamma_s=0.002, xi=2.0, alpha=3.0)
        data = tmp_path / "transient.csv"
        main(["bubble-evolve", "--config", str(cfg), "--out", str(data),
              "--t-end", "6", "--dt", "1", "--nmax", "2", "--rtol", "1e-7"])
        report = tmp_path / "fit.json"
        assert main(["fit-transient", "--config", str(cfg), "--data", str(data),
                     "--out", str(report), "--nmax", "2", "--rtol", "1e-6",
                     "--override", "rydberg.xi=1.6"]) == 0
        solver = json.loads(report.read_text())["solver"]
        assert sorted(solver) == ["accepted_steps", "inversions",
                                  "jacobian_evals", "nfev", "rejected_steps"]
        assert solver["nfev"] > solver["accepted_steps"] > 0
        assert solver["inversions"] >= solver["jacobian_evals"] > 0

    def test_fit_eit_bad_data_file(self, tmp_path):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("# nothing\n")
        rc = main(["fit-eit", "--config", str(cfg), "--data", str(bad)])
        assert rc == 1

    def test_fit_eit_one_column_data_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "one_column.csv"
        bad.write_text("# x only\nx\n1.0\n2.0\n")
        rc = main(["fit-eit", "--config", str(cfg), "--data", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{bad}:3" in err


    def test_fit_eit_malformed_data_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "malformed.csv"
        bad.write_text("x,y\n1.0,2.0\n2.0,abc\n3.0,4.0\n")
        rc = main(["fit-eit", "--config", str(cfg), "--data", str(bad),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{bad}:3" in err
        assert not (tmp_path / "fit.json").exists()


def test_read_xy_csv_with_weights(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("# c\nx,y,w\n1.0,2.0,0.5\n2.0,3.0,0.5\n")
    x, y, w = read_xy_csv(f)
    np.testing.assert_allclose(x, [1.0, 2.0])
    np.testing.assert_allclose(w, [0.5, 0.5])
