"""JSON run configuration: schema validation with JSON-path diagnostics.

Coefficients and initial data are ingested either as {"const": value} or
as {"nodes": [...]} arrays matching the mesh; no expression language.
Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import ConfigError, ValidationError
from .grid import (
    COEFFICIENT_NAMES,
    DIRICHLET,
    BoundarySpec,
    CoefficientSet,
    Mesh1D,
    ScalarField,
    build_mesh,
    check_coefficient,
)

EXPERIMENT_KINDS = ("eigen", "steady", "simulate", "threshold", "envelope", "sweep")

_TOP_KEYS = {"domain", "bc", "coefficients", "initial", "stepper", "experiment"}
_EXPERIMENT_KEYS = {"kind", "eps", "seed", "count", "distance_tol"}
_STEPPER_KEYS = {"dt", "t_end", "steady_tol", "steady_window"}
_INITIAL_NAMES = ("h_i", "v_u", "v_i")

# Which top-level sections each experiment kind needs.
_REQUIRED = {
    "eigen": ("domain", "bc", "coefficients"),
    "steady": ("domain", "bc", "coefficients"),
    "simulate": ("domain", "bc", "coefficients", "initial", "stepper"),
    "threshold": ("domain", "bc", "coefficients", "initial", "stepper"),
    "envelope": ("domain", "bc", "coefficients", "initial", "stepper"),
    "sweep": ("domain", "bc", "stepper"),
}
_COEFFS_REQUIRED = {"eigen": ("d2", "beta")}


@dataclass
class RunConfig:
    kind: str
    mesh: Mesh1D
    bc: BoundarySpec
    coefficients: dict[str, ScalarField]
    initial: dynamics.State | None
    dt_spec: float | str | None
    stepper: dict  # the StepperConfig keywords besides dt that the config gave
    eps: float
    seed: int
    count: int
    distance_tol: float

    def coefficient_set(self) -> CoefficientSet:
        missing = [n for n in COEFFICIENT_NAMES if n not in self.coefficients]
        if missing:
            raise ConfigError("coefficients", f"missing entries for {missing}")
        return CoefficientSet(**{n: self.coefficients[n] for n in COEFFICIENT_NAMES})

    def make_stepper(self, coeffs: CoefficientSet, initial: dynamics.State) -> dynamics.StepperConfig:
        """Resolve dt="auto" against the explicit-reaction stability bound."""
        dt = dynamics.stability_dt_max(coeffs, initial) if self.dt_spec == "auto" else self.dt_spec
        return dynamics.StepperConfig(dt=dt, **self.stepper)


def _reject_unknown(obj: dict, allowed: set, path: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(path, f"missing required key {key!r}")
    return obj[key]


def _number(value, path: str, *, integer=False, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities and integers beyond the float range
        raise ConfigError(path, "must be finite")
    if integer and int(value) != value:
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if integer and value >= 2**63:
        raise ConfigError(path, f"must be < 2**63, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(path, f"must be > 0, got {value!r}")
    return int(value) if integer else float(value)


def _parse_mesh(obj, path: str) -> Mesh1D:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object with keys a, b, n")
    _reject_unknown(obj, {"a", "b", "n"}, path)
    a = _number(_require(obj, "a", path), f"{path}.a")
    b = _number(_require(obj, "b", path), f"{path}.b")
    n = _number(_require(obj, "n", path), f"{path}.n", integer=True)
    try:
        return build_mesh(a, b, n)
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_bc(obj, path: str) -> BoundarySpec:
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected a string or an object with a 'kind' key")
    _reject_unknown(obj, {"kind", "b_left", "b_right"}, path)
    kind = _require(obj, "kind", path)
    if kind == "robin":
        bl = _number(_require(obj, "b_left", path), f"{path}.b_left")
        br = _number(_require(obj, "b_right", path), f"{path}.b_right")
        try:
            return BoundarySpec.robin(bl, br)
        except ValidationError as exc:
            raise ConfigError(path, str(exc)) from exc
    if "b_left" in obj or "b_right" in obj:
        raise ConfigError(path, "b_left/b_right only apply to robin boundaries")
    try:
        return BoundarySpec(kind)
    except ValidationError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_field(obj, mesh: Mesh1D, path: str) -> ScalarField:
    if not isinstance(obj, dict):
        raise ConfigError(path, 'expected {"const": value} or {"nodes": [...]}')
    _reject_unknown(obj, {"const", "nodes"}, path)
    if ("const" in obj) == ("nodes" in obj):
        raise ConfigError(path, 'exactly one of "const" or "nodes" is required')
    if "const" in obj:
        c = _number(obj["const"], f"{path}.const")
        return ScalarField(mesh, np.full(mesh.n, c))
    nodes = obj["nodes"]
    if not isinstance(nodes, list):
        raise ConfigError(f"{path}.nodes", "expected a list of numbers")
    if len(nodes) != mesh.n:
        raise ConfigError(
            f"{path}.nodes", f"length {len(nodes)} does not match mesh node count {mesh.n}"
        )
    vals = [_number(v, f"{path}.nodes[{i}]") for i, v in enumerate(nodes)]
    return ScalarField(mesh, np.array(vals))


def _parse_coefficients(obj, mesh: Mesh1D, kind: str, path: str) -> dict[str, ScalarField]:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object of coefficient entries")
    _reject_unknown(obj, set(COEFFICIENT_NAMES), path)
    required = _COEFFS_REQUIRED.get(kind, COEFFICIENT_NAMES)
    missing = [n for n in required if n not in obj]
    if missing:
        raise ConfigError(path, f"missing coefficients {missing} for experiment kind {kind!r}")
    out = {}
    for name, entry in obj.items():
        f = _parse_field(entry, mesh, f"{path}.{name}")
        try:
            check_coefficient(name, f)
        except ValidationError as exc:
            raise ConfigError(f"{path}.{name}", str(exc)) from exc
        out[name] = f
    return out


def _parse_initial(obj, mesh: Mesh1D, bc: BoundarySpec, path: str) -> dynamics.State:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object with h_i, v_u, v_i entries")
    _reject_unknown(obj, set(_INITIAL_NAMES), path)
    comps = {}
    for name in _INITIAL_NAMES:
        where = f"{path}.{name}"
        f = _parse_field(_require(obj, name, path), mesh, where)
        if f.values.min() < 0:
            raise ConfigError(where, "initial data must be nonnegative")
        if bc.kind == DIRICHLET:
            # The integrators' wall rule: round-off residue is snapped to 0.
            u = f.values[None].copy()
            try:
                dynamics._snap_walls(u, (name,))
            except ValidationError as exc:
                raise ConfigError(where, "Dirichlet runs need zero boundary values") from exc
            f = ScalarField(mesh, u[0])
        comps[name] = f
    return dynamics.State(0.0, comps["h_i"], comps["v_u"], comps["v_i"])


def parse_config(text: str) -> RunConfig:
    """Validate a JSON run configuration and build the domain objects."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$", "top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "$")

    experiment = _require(raw, "experiment", "$")
    if not isinstance(experiment, dict):
        raise ConfigError("experiment", "expected an object")
    _reject_unknown(experiment, _EXPERIMENT_KEYS, "experiment")
    kind = _require(experiment, "kind", "experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment.kind", f"unknown kind {kind!r}; expected one of {EXPERIMENT_KINDS}")

    for section in _REQUIRED[kind]:
        if section not in raw:
            raise ConfigError("$", f"experiment kind {kind!r} requires section {section!r}")

    mesh = _parse_mesh(raw["domain"], "domain")
    bc = _parse_bc(raw["bc"], "bc")

    coefficients: dict[str, ScalarField] = {}
    if "coefficients" in raw:
        coefficients = _parse_coefficients(raw["coefficients"], mesh, kind, "coefficients")

    initial = None
    if "initial" in raw:
        initial = _parse_initial(raw["initial"], mesh, bc, "initial")

    dt_spec = None
    stepper = {}
    if "stepper" in raw:
        section = raw["stepper"]
        if not isinstance(section, dict):
            raise ConfigError("stepper", "expected an object")
        _reject_unknown(section, _STEPPER_KEYS, "stepper")
        dt_raw = _require(section, "dt", "stepper")
        if dt_raw == "auto":
            dt_spec = "auto"
        else:
            dt_spec = _number(dt_raw, "stepper.dt", positive=True)
        t_end = _require(section, "t_end", "stepper")
        stepper["t_end"] = _number(t_end, "stepper.t_end", positive=True)
        for key, integer in (("steady_tol", False), ("steady_window", True)):
            if key in section:
                stepper[key] = _number(section[key], f"stepper.{key}", integer=integer, positive=True)

    eps = 0.0
    if "eps" in experiment:
        eps = _number(experiment["eps"], "experiment.eps")
    elif kind == "envelope":
        raise ConfigError("experiment", "envelope experiments require eps")
    seed = 0
    if "seed" in experiment:
        seed = _number(experiment["seed"], "experiment.seed", integer=True)
    count = 1
    if "count" in experiment:
        count = _number(experiment["count"], "experiment.count", integer=True, positive=True)
    elif kind == "sweep":
        raise ConfigError("experiment", "sweep experiments require count")
    distance_tol = 1e-4
    if "distance_tol" in experiment:
        distance_tol = _number(experiment["distance_tol"], "experiment.distance_tol", positive=True)

    if kind == "envelope" and bc.kind != DIRICHLET:
        raise ConfigError("bc", "envelope experiments require a dirichlet boundary")

    return RunConfig(
        kind=kind,
        mesh=mesh,
        bc=bc,
        coefficients=coefficients,
        initial=initial,
        dt_spec=dt_spec,
        stepper=stepper,
        eps=eps,
        seed=seed,
        count=count,
        distance_tol=distance_tol,
    )
