import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from vectorhost.cli import main


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def threshold_config(h_u=2.0, t_end=100, n=101, kind="threshold"):
    return {
        "domain": {"a": 0, "b": 1, "n": n},
        "bc": "neumann",
        "coefficients": {
            "d1": {"const": 1}, "d2": {"const": 1}, "rho": {"const": 1},
            "sigma1": {"const": 1}, "sigma2": {"const": 1}, "beta": {"const": 1},
            "mu": {"const": 1}, "h_u": {"const": h_u},
        },
        "initial": {"h_i": {"const": 0.1}, "v_u": {"const": 0.8}, "v_i": {"const": 0.2}},
        "stepper": {"dt": "auto", "t_end": t_end},
        "experiment": {"kind": kind, "seed": 7},
    }


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


class TestThresholdCommand:
    def test_endemic_run(self, tmp_path):
        cfg = write_config(tmp_path, threshold_config())
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["predicted"] == "Endemic"
        assert report["lambda_system"] == pytest.approx(-0.41421356237, abs=1e-8)
        assert report["passed"] is True
        assert (out / "profiles.csv").exists()
        assert (out / "trajectory.csv").exists()

    def test_report_is_byte_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, threshold_config(t_end=30))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["threshold", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["threshold", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_profiles_roundtrip_full_precision(self, tmp_path):
        cfg = write_config(tmp_path, threshold_config(t_end=30))
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
        with (out / "profiles.csv").open() as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[:4] == ["x", "H_i", "V_u", "V_i"]
        assert "V_B" in header and "H_i_star" in header and "V_i_star" in header
        values = np.array([[float(v) for v in row] for row in data])
        assert values.shape[0] == 101
        # shortest-repr serialization parses back bit-exact
        again = [[repr(float(v)) for v in row] for row in data]
        assert again == data

    def test_command_config_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, threshold_config(kind="simulate"))
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 1

    def test_bad_config_exits_one(self, tmp_path):
        raw = threshold_config()
        raw["coefficients"]["sigma2"] = {"const": -1}
        cfg = write_config(tmp_path, raw)
        assert main(["threshold", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_unreached_attractor_exits_two(self, tmp_path):
        # far from threshold but stopped after t=1: no convergence, no progress
        cfg = write_config(tmp_path, threshold_config(t_end=1))
        out = tmp_path / "out"
        assert main(["threshold", "--config", cfg, "--out", str(out)]) == 2
        report = read_report(out)
        assert report["passed"] is False
        assert report["time_to_tolerance"] is None


class TestSimulateCommand:
    def test_simulate_writes_artifacts(self, tmp_path):
        cfg_obj = threshold_config(t_end=20, kind="simulate")
        cfg = write_config(tmp_path, cfg_obj)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["experiment"] == "simulate"
        with (out / "trajectory.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "sup_dist_attractor", "sup_Hi", "sup_Vu", "sup_Vi"]
        assert len(rows) > 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_exits_one(self, tmp_path, capsys):
        cfg_obj = threshold_config(n=21, kind="simulate")
        cfg_obj["initial"] = {name: {"const": 1e300} for name in ("h_i", "v_u", "v_i")}
        cfg = write_config(tmp_path, cfg_obj)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEigenCommand:
    def test_minimal_eigen(self, tmp_path):
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 1, "n": 101},
            "bc": "neumann",
            "coefficients": {"d2": {"const": 1}, "beta": {"const": 1}},
            "experiment": {"kind": "eigen"},
        })
        out = tmp_path / "out"
        assert main(["eigen", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["lambda_beta"] == pytest.approx(-1.0, abs=1e-10)
        assert "lambda_system" not in report

    def test_full_coefficients_compute_system(self, tmp_path):
        raw = threshold_config()
        raw["experiment"] = {"kind": "eigen"}
        del raw["initial"]
        del raw["stepper"]
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["eigen", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["lambda_system"] == pytest.approx(1 - np.sqrt(2), abs=1e-8)


class TestSteadyCommand:
    def test_endemic_profiles(self, tmp_path):
        raw = threshold_config()
        raw["experiment"] = {"kind": "steady"}
        del raw["initial"]
        del raw["stepper"]
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["endemic_exists"] is True
        with (out / "profiles.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "V_B", "H_i_star", "V_i_star"]
        assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-8)

    def test_absent_branch(self, tmp_path):
        raw = threshold_config(h_u=0.5)
        raw["experiment"] = {"kind": "steady"}
        del raw["initial"]
        del raw["stepper"]
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["endemic_exists"] is False


class TestEnvelopeCommand:
    def _config(self, eps):
        n = 101
        xs = np.linspace(0, np.pi, n)
        bump = (0.05 * np.sin(xs))
        bump[0] = bump[-1] = 0.0
        comp = {"nodes": list(bump)}
        return {
            "domain": {"a": 0, "b": np.pi, "n": n},
            "bc": "dirichlet",
            "coefficients": {
                "d1": {"const": 1}, "d2": {"const": 1}, "rho": {"const": 1},
                "sigma1": {"const": 1}, "sigma2": {"const": 1}, "beta": {"const": 2},
                "mu": {"const": 1}, "h_u": {"const": 2},
            },
            "initial": {"h_i": comp, "v_u": comp, "v_i": comp},
            "stepper": {"dt": "auto", "t_end": 60},
            "experiment": {"kind": "envelope", "eps": eps},
        }

    def test_envelope_passes(self, tmp_path):
        cfg = write_config(tmp_path, self._config(0.05))
        out = tmp_path / "out"
        assert main(["envelope", "--config", cfg, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["t_eps"] is not None
        assert report["held_until_end"] is True

    def test_inadmissible_eps_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self._config(5.0))
        out = tmp_path / "out"
        assert main(["envelope", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "V_B - |eps|*weight > 0" in err


class TestSweepCommand:
    def test_twenty_scenarios(self, tmp_path):
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 30, "steady_tol": 1e-7},
            "experiment": {"kind": "sweep", "seed": 11, "count": 20},
        })
        out = tmp_path / "out"
        os.environ["VECTORHOST_WORKERS"] = "4"
        try:
            code = main(["sweep", "--config", cfg, "--out", str(out)])
        finally:
            del os.environ["VECTORHOST_WORKERS"]
        assert code == 0
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(subdirs) == 20
        assert subdirs[0] == "scenario_000"
        report = read_report(out)
        assert report["count"] == 20
        assert len(report["scenarios"]) == 20
        for sub in subdirs:
            assert (out / sub / "report.json").exists()

    def test_seed_override_changes_scenarios(self, tmp_path):
        base = {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 5, "steady_tol": 1e-7},
            "experiment": {"kind": "sweep", "seed": 1, "count": 2},
        }
        cfg = write_config(tmp_path, base)
        out1, out2, out3 = (tmp_path / s for s in ("s1", "s2", "s3"))
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out3), "--seed", "99"]) == 0
        r1 = (out1 / "scenario_000" / "report.json").read_bytes()
        r2 = (out2 / "scenario_000" / "report.json").read_bytes()
        assert r1 == r2
        r3 = json.loads((out3 / "scenario_000" / "report.json").read_text())
        assert r3["lambda_beta"] != json.loads(r1)["lambda_beta"]
