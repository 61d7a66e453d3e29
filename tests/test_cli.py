import csv
import json
from pathlib import Path

import numpy as np
import pytest

import vectorhost as vh
from vectorhost import verify
from vectorhost.cli import main, write_report


CONFIGS = Path(__file__).resolve().parent.parent / "tools" / "artifacts"


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


class TestWriteReport:
    def test_report_bytes(self, tmp_path):
        """numpy scalars, nested tuples, None and bools, written with sorted
        keys, two-space indent and shortest round-trip floats."""
        path = tmp_path / "report.json"
        write_report(path, {
            "lambda": np.float64(1 / 3),
            "steps": np.int64(7),
            "rows": (1, (np.float64(2.5e-20), None), []),
            "none": None,
            "passed": True,
            "a": {"x": np.float64(-0.0), "b": False},
        })
        assert path.read_text() == (
            '{\n  "a": {\n    "b": false,\n    "x": -0.0\n  },\n'
            '  "lambda": 0.3333333333333333,\n  "none": null,\n  "passed": true,\n'
            '  "rows": [\n    1,\n    [\n      2.5e-20,\n      null\n    ],\n    []\n  ],\n'
            '  "steps": 7\n}\n'
        )


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

    def test_dirichlet_one_node(self, tmp_path):
        """The committed eigen config under Dirichlet with n = 3: one active
        node, where lambda_beta = 2 d2 / h^2 - beta = 8 - 1."""
        raw = json.loads((CONFIGS / "eigen.json").read_text())
        raw["bc"], raw["domain"]["n"] = "dirichlet", 3
        out = tmp_path / "out"
        assert main(["eigen", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
        assert read_report(out)["lambda_beta"] == pytest.approx(7.0, rel=1e-14)


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

    def test_dirichlet_one_node(self, tmp_path):
        """The committed one-node steady config: V_B = -lambda_beta / mu at
        the node, with lambda_beta = 2 d2 / h^2 - beta, and an endemic pair."""
        out = tmp_path / "out"
        assert main(["steady", "--config", str(CONFIGS / "steady-dir-node.json"), "--out", str(out)]) == 0
        report = read_report(out)
        lam = 2 * 0.1 / (np.pi / 2) ** 2 - 2.0
        assert report["lambda_beta"] == pytest.approx(lam, rel=1e-14)
        assert report["v_b_max"] == pytest.approx(-lam, rel=1e-12)
        assert report["endemic_exists"] is True


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

    def test_wall_residue_reads_as_zero(self, tmp_path):
        """sin(pi) leaves about 6e-18 on the right wall.  The config reader
        snaps it to 0 by the integrators' wall rule, so the artifacts are
        those of the exact-zero data."""
        bump = {"nodes": list(0.05 * np.sin(np.linspace(0, np.pi, 101)))}
        assert bump["nodes"][-1] != 0.0
        residue = self._config(0.05)
        residue["initial"] = {"h_i": bump, "v_u": bump, "v_i": bump}
        outs = []
        for name, raw in (("exact", self._config(0.05)), ("residue", residue)):
            outs.append(tmp_path / name)
            cfg = write_config(tmp_path, raw, f"{name}.json")
            assert main(["envelope", "--config", cfg, "--out", str(outs[-1])]) == 0
        for artifact in ("report.json", "trajectory.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

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
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
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

    @pytest.mark.parametrize(
        "config_seed, extra, shown", [(-1, [], -1), (1, ["--seed", "-3"], -3)], ids=["config", "flag"]
    )
    def test_negative_seed_exits_one(self, tmp_path, capsys, config_seed, extra, shown):
        """A negative seed from the config or from --seed is one error line,
        not a traceback from np.random.SeedSequence."""
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 5},
            "experiment": {"kind": "sweep", "seed": config_seed, "count": 2},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be >= 0, got {shown}\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_window_longer_than_the_run(self, tmp_path):
        """A steady window no run can close allocates nothing for it."""
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 1, "steady_tol": 1e-7, "steady_window": 10**11},
            "experiment": {"kind": "sweep", "seed": 11, "count": 2},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out)["count"] == 2

    def test_window_beyond_int64_exits_one(self, tmp_path, capsys):
        """A steady window beyond int64 is one error line, not a traceback."""
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 1, "steady_tol": 1e-7, "steady_window": 10**20},
            "experiment": {"kind": "sweep", "seed": 11, "count": 2},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_fixed_dt_is_clipped_per_scenario(self, tmp_path):
        """A fixed dt above a scenario's stability bound runs at that bound;
        the others run at the given dt."""
        mesh, bc = vh.build_mesh(0, 5, 51), vh.BoundarySpec.robin(1.0, 0.5)
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 5, "n": 51},
            "bc": {"kind": "robin", "b_left": 1, "b_right": 0.5},
            "stepper": {"dt": 0.03, "t_end": 20},
            "experiment": {"kind": "sweep", "seed": 5, "count": 8},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        dts = [read_report(out / f"scenario_{i:03d}")["dt"] for i in range(8)]
        bounds = []
        for child in np.random.SeedSequence(5).spawn(8):
            scenario = verify.random_scenario(mesh, bc, np.random.default_rng(child))
            bounds.append(vh.stability_dt_max(scenario.coeffs, scenario.initial))
        assert dts == [min(0.03, bound) for bound in bounds]
        assert sum(dt < 0.03 for dt in dts) == 5

    def test_failing_scenario_is_isolated(self, tmp_path, capsys):
        """Seed 15's scenario 8 raises BlowUpError (V_u turns negative); the
        other scenarios still run and the summary is still written."""
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 30, "steady_tol": 1e-7},
            "experiment": {"kind": "sweep", "seed": 15, "count": 9},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        failed = json.loads((out / "scenario_008" / "report.json").read_text())
        assert failed["passed"] is False
        assert failed["error"]["type"] == "BlowUpError"
        assert failed["error"]["message"].startswith("V_u dropped to")
        assert not (out / "scenario_008" / "trajectory.csv").exists()
        report = read_report(out)
        assert report["passed"] is False
        assert [s["scenario"] for s in report["scenarios"]] == list(range(9))
        assert report["scenarios"][8] == {"scenario": 8, "error": failed["error"], "passed": False}
        for s in report["scenarios"][:8]:
            assert set(s) == {"scenario", "lambda_beta", "lambda_system", "predicted",
                              "slow_regime", "passed"}
        message = failed["error"]["message"]
        assert capsys.readouterr().err == f"error: scenario 8: BlowUpError: {message}\n"

    def test_batched_sweep_isolates_failure(self, tmp_path, capsys):
        """The benchmark's sweep config at seed 4: scenario 9 turns V_u
        negative in the lockstep batch, exactly as when run alone; the other
        19 scenarios finish and write complete artifacts."""
        cfg = write_config(tmp_path, {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 30, "steady_tol": 1e-7},
            "experiment": {"kind": "sweep", "seed": 11, "count": 20},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "4"]) == 1
        error = {"type": "BlowUpError",
                 "message": "V_u dropped to -3.336e-02, below the -1e-14 round-off band"}
        failed = json.loads((out / "scenario_009" / "report.json").read_text())
        assert failed["error"] == error and failed["passed"] is False
        assert not (out / "scenario_009" / "trajectory.csv").exists()
        report = read_report(out)
        assert report["scenarios"][9] == {"scenario": 9, "error": error, "passed": False}
        complete = [p.name for p in sorted(out.glob("scenario_*"))
                    if (p / "report.json").exists() and (p / "trajectory.csv").exists()]
        assert complete == [f"scenario_{i:03d}" for i in range(20) if i != 9]
        assert capsys.readouterr().err == f"error: scenario 9: BlowUpError: {error['message']}\n"
