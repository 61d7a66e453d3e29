import json

import pytest

from vectorhost.config import parse_config
from vectorhost.dynamics import StepperConfig
from vectorhost.errors import ConfigError


def minimal_eigen(n=101, beta=1.0):
    return {
        "domain": {"a": 0, "b": 1, "n": n},
        "bc": "neumann",
        "coefficients": {"d2": {"const": 1}, "beta": {"const": beta}},
        "experiment": {"kind": "eigen"},
    }


def full_threshold(n=51):
    return {
        "domain": {"a": 0, "b": 1, "n": n},
        "bc": "neumann",
        "coefficients": {
            "d1": {"const": 1}, "d2": {"const": 1}, "rho": {"const": 1},
            "sigma1": {"const": 1}, "sigma2": {"const": 1}, "beta": {"const": 1},
            "mu": {"const": 1}, "h_u": {"const": 2},
        },
        "initial": {"h_i": {"const": 0.1}, "v_u": {"const": 0.8}, "v_i": {"const": 0.2}},
        "stepper": {"dt": "auto", "t_end": 10},
        "experiment": {"kind": "threshold", "seed": 3},
    }


class TestParseConfig:
    def test_minimal_eigen_accepted(self):
        cfg = parse_config(json.dumps(minimal_eigen()))
        assert cfg.kind == "eigen"
        assert cfg.mesh.n == 101
        assert "beta" in cfg.coefficients

    def test_full_threshold_accepted_and_auto_dt(self):
        cfg = parse_config(json.dumps(full_threshold()))
        coeffs = cfg.coefficient_set()
        stepper = cfg.make_stepper(coeffs, cfg.initial)
        assert stepper.dt == pytest.approx(0.0625)
        assert stepper.t_end == 10

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{nope")

    def test_negative_sigma2_named(self):
        raw = full_threshold()
        raw["coefficients"]["sigma2"] = {"const": -1}
        with pytest.raises(ConfigError, match="sigma2 must be strictly positive"):
            parse_config(json.dumps(raw))

    def test_partial_eigen_set_checked_per_coefficient(self):
        with pytest.raises(ConfigError, match="beta must be strictly positive") as info:
            parse_config(json.dumps(minimal_eigen(beta=0.0)))
        assert info.value.path == "coefficients.beta"

    def test_nodes_length_mismatch(self):
        raw = minimal_eigen(n=101)
        raw["coefficients"]["beta"] = {"nodes": [1.0] * 50}
        with pytest.raises(ConfigError, match="length 50 does not match mesh node count 101"):
            parse_config(json.dumps(raw))

    def test_nodes_array_accepted(self):
        raw = minimal_eigen(n=11)
        raw["coefficients"]["beta"] = {"nodes": [1.0 + 0.1 * i for i in range(11)]}
        cfg = parse_config(json.dumps(raw))
        assert cfg.coefficients["beta"].values[-1] == pytest.approx(2.0)

    def test_unknown_top_level_key(self):
        raw = minimal_eigen()
        raw["plotting"] = True
        with pytest.raises(ConfigError, match="unknown keys \\['plotting'\\]"):
            parse_config(json.dumps(raw))

    def test_unknown_experiment_key(self):
        raw = minimal_eigen()
        raw["experiment"]["fancy"] = 1
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(json.dumps(raw))

    def test_unknown_coefficient_name(self):
        raw = minimal_eigen()
        raw["coefficients"]["gamma"] = {"const": 1}
        with pytest.raises(ConfigError, match="coefficients"):
            parse_config(json.dumps(raw))

    def test_missing_section_for_kind(self):
        raw = minimal_eigen()
        raw["experiment"]["kind"] = "threshold"
        with pytest.raises(ConfigError, match="requires section"):
            parse_config(json.dumps(raw))

    def test_missing_coefficients_for_threshold(self):
        raw = full_threshold()
        del raw["coefficients"]["mu"]
        with pytest.raises(ConfigError, match="missing coefficients \\['mu'\\]"):
            parse_config(json.dumps(raw))

    def test_bad_mesh(self):
        raw = minimal_eigen()
        raw["domain"] = {"a": 1, "b": 0, "n": 5}
        with pytest.raises(ConfigError, match="domain"):
            parse_config(json.dumps(raw))

    def test_robin_bc_object(self):
        raw = minimal_eigen()
        raw["bc"] = {"kind": "robin", "b_left": 1.0, "b_right": 0.5}
        cfg = parse_config(json.dumps(raw))
        assert cfg.bc.robin_b == (1.0, 0.5)

    def test_robin_missing_b(self):
        raw = minimal_eigen()
        raw["bc"] = {"kind": "robin"}
        with pytest.raises(ConfigError, match="b_left"):
            parse_config(json.dumps(raw))

    def test_envelope_requires_eps_and_dirichlet(self):
        raw = full_threshold()
        raw["experiment"] = {"kind": "envelope"}
        with pytest.raises(ConfigError, match="eps"):
            parse_config(json.dumps(raw))
        raw["experiment"] = {"kind": "envelope", "eps": 0.05}
        with pytest.raises(ConfigError, match="dirichlet"):
            parse_config(json.dumps(raw))

    def test_sweep_requires_count(self):
        raw = {
            "domain": {"a": 0, "b": 1, "n": 51},
            "bc": "neumann",
            "stepper": {"dt": "auto", "t_end": 5},
            "experiment": {"kind": "sweep", "seed": 1},
        }
        with pytest.raises(ConfigError, match="count"):
            parse_config(json.dumps(raw))
        raw["experiment"]["count"] = 3
        cfg = parse_config(json.dumps(raw))
        assert cfg.count == 3

    def test_dirichlet_initial_must_vanish_at_walls(self):
        raw = full_threshold()
        raw["bc"] = "dirichlet"
        with pytest.raises(ConfigError, match="zero boundary"):
            parse_config(json.dumps(raw))

    def test_dirichlet_wall_residue_snapped_larger_values_rejected(self):
        raw = full_threshold(n=5)
        raw["bc"] = "dirichlet"
        raw["initial"] = {k: {"nodes": [0.0, 0.1, 0.2, 0.1, 6e-18]} for k in ("h_i", "v_u", "v_i")}
        cfg = parse_config(json.dumps(raw))
        assert cfg.initial.h_i.values.tolist() == [0.0, 0.1, 0.2, 0.1, 0.0]
        raw["initial"]["h_i"] = {"nodes": [0.0, 0.1, 0.2, 0.1, 1e-3]}
        with pytest.raises(ConfigError, match="zero boundary") as info:
            parse_config(json.dumps(raw))
        assert info.value.path == "initial.h_i"

    def test_stepper_keys_left_out_take_stepper_config_defaults(self):
        raw = full_threshold()
        cfg = parse_config(json.dumps(raw))
        stepper = cfg.make_stepper(cfg.coefficient_set(), cfg.initial)
        assert stepper == StepperConfig(dt=stepper.dt, t_end=10)
        raw["stepper"].update(steady_tol=1e-7, steady_window=5)
        cfg = parse_config(json.dumps(raw))
        stepper = cfg.make_stepper(cfg.coefficient_set(), cfg.initial)
        assert (stepper.steady_tol, stepper.steady_window) == (1e-7, 5)

    def test_negative_initial_rejected(self):
        raw = full_threshold()
        raw["initial"]["h_i"] = {"const": -0.1}
        with pytest.raises(ConfigError, match="initial.h_i"):
            parse_config(json.dumps(raw))

    def test_const_and_nodes_mutually_exclusive(self):
        raw = minimal_eigen(n=5)
        raw["coefficients"]["beta"] = {"const": 1, "nodes": [1, 1, 1, 1, 1]}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(json.dumps(raw))

    def test_unknown_kind(self):
        raw = minimal_eigen()
        raw["experiment"]["kind"] = "wizardry"
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config(json.dumps(raw))


@pytest.mark.parametrize("path, text, message", [
    ("domain.b", "100000000000000000000", None),
    ("domain.b", "1e400", "must be finite"),
    ("domain.b", "1" + "0" * 400, "must be finite"),
    ("domain.n", "Infinity", "must be finite"),
    ("domain.n", "NaN", "must be finite"),
    ("domain.n", "1e400", "must be finite"),
    ("domain.n", "1e20", "must be < 2\\*\\*63"),
    ("stepper.steady_window", "100000000000000000000", "must be < 2\\*\\*63"),
    ("stepper.steady_window", str(2**63), "must be < 2\\*\\*63"),
    ("stepper.steady_window", str(2**63 - 1), None),
    ("experiment.count", "1" + "0" * 400, "must be finite"),
    ("experiment.seed", "100000000000000000000", "must be < 2\\*\\*63"),
], ids=["float-20-digits", "float-1e400", "float-400-digits", "int-Infinity", "int-NaN",
        "int-1e400", "int-1e20", "int-20-digits", "int-2**63", "int-2**63-1",
        "count-400-digits", "seed-20-digits"])
def test_huge_and_non_finite_numbers(path, text, message):
    """Numbers beyond int64 or the float range, Infinity and NaN are one
    ConfigError naming their path, never a TypeError, OverflowError or
    ValueError; a float key takes a 20-digit integer as a float."""
    raw = full_threshold()
    raw["experiment"]["count"] = 2
    section, key = path.split(".")
    raw[section][key] = "@"
    text = json.dumps(raw).replace('"@"', text)
    if message is None:
        parse_config(text)
        return
    with pytest.raises(ConfigError, match=message) as info:
        parse_config(text)
    assert info.value.path == path
