"""Command-line front end.

Commands (each takes --config <file> --out <dir>, plus --seed to override
the config seed):

    eigen      principal eigenvalue of -L2 - beta (and of the coupled
               system when the full coefficient set is given)
    steady     vector equilibrium and infection equilibrium
    simulate   time integration with profile/trajectory artifacts
    threshold  eigenvalue classification + convergence run (exit 2 when
               the trajectory contradicts the prediction)
    envelope   Dirichlet moving-envelope check (exit 2 when it fails)
    sweep      seeded batch of random threshold scenarios, one
               subdirectory each

Exit codes: 0 pass, 1 operational error (bad config, inadmissible eps,
solver non-convergence, I/O), 2 checks ran but a prediction failed.

report.json is byte-deterministic for a fixed config and seed: floats are
serialized with shortest round-trip precision and only simulation-time
quantities (never wall-clock) are reported.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import verify
from .config import RunConfig, parse_config
from .dynamics import StepperConfig, integrate_many, stability_dt_max
from .eigen import principal_eigen_scalar, principal_eigen_system
from .errors import MonotonicityError, UniquenessViolation, ValidationError, VectorHostError
from .steady import EndemicEquilibrium, solve_endemic, solve_logistic

# Errors that mean a prediction check failed (exit 2), not an operational error.
PREDICTION_ERRORS = (UniquenessViolation, MonotonicityError)


def write_report(path: Path, report: dict):
    # np.float64 is a float, so json writes it with float.__repr__; other
    # numpy scalars go through item().
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=np.generic.item) + "\n")


def write_csv(path: Path, header: list[str], rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _write_profiles(path: Path, mesh, columns: dict[str, np.ndarray]):
    header = ["x"] + list(columns)
    rows = zip(mesh.nodes, *columns.values())
    write_csv(path, header, rows)


def _write_trajectory(path: Path, rows):
    write_csv(path, ["t", "sup_dist_attractor", "sup_Hi", "sup_Vu", "sup_Vi"], rows)


def _bc_dict(bc):
    out = {"kind": bc.kind}
    if bc.robin_b is not None:
        out["b_left"], out["b_right"] = bc.robin_b
    return out


def _base_report(config: RunConfig, seed: int) -> dict:
    return {
        "experiment": config.kind,
        "seed": seed,
        "domain": {"a": config.mesh.a, "b": config.mesh.b, "n": config.mesh.n},
        "bc": _bc_dict(config.bc),
    }


def _run_eigen(config: RunConfig, out: Path, seed: int) -> int:
    bc = config.bc
    eig = principal_eigen_scalar(config.coefficients["d2"], config.coefficients["beta"], bc)
    report = _base_report(config, seed)
    report["lambda_beta"] = eig.lam
    profiles = {"phi": eig.phi.values}
    have_all = all(n in config.coefficients for n in ("d1", "rho", "sigma1", "sigma2", "mu", "h_u"))
    if have_all and eig.lam < 0:
        coeffs = config.coefficient_set()
        logistic = solve_logistic(coeffs, bc, scalar_eig=eig)
        sys_eig = principal_eigen_system(coeffs, logistic.v_b, bc)
        report["lambda_system"] = sys_eig.lam
        profiles["V_B"] = logistic.v_b.values
        profiles["phi1"] = sys_eig.phi1.values
        profiles["phi2"] = sys_eig.phi2.values
    write_report(out / "report.json", report)
    _write_profiles(out / "profiles.csv", config.mesh, profiles)
    return 0


def _run_steady(config: RunConfig, out: Path, seed: int) -> int:
    coeffs = config.coefficient_set()
    bc = config.bc
    logistic = solve_logistic(coeffs, bc)
    report = _base_report(config, seed)
    report["lambda_beta"] = logistic.lambda_beta
    report["eps"] = config.eps
    profiles: dict[str, np.ndarray] = {}
    report["v_b_exists"] = logistic.exists
    if logistic.exists:
        report["v_b_max"] = float(logistic.v_b.values.max())
        profiles["V_B"] = logistic.v_b.values
        result = solve_endemic(coeffs, bc, config.eps, logistic=logistic)
        report["lambda_system"] = result.lambda_system
        if isinstance(result, EndemicEquilibrium):
            report["endemic_exists"] = True
            report["residual"] = result.residual
            report["passes"] = result.passes
            report["bracket_width"] = result.bracket_width
            profiles["H_i_star"] = result.h_i.values
            profiles["V_i_star"] = result.v_i.values
        else:
            report["endemic_exists"] = False
    write_report(out / "report.json", report)
    _write_profiles(out / "profiles.csv", config.mesh, profiles)
    return 0


def _threshold_fields(result: "verify.ThresholdReport", dt: float) -> dict:
    """The report entries that threshold, simulate and sweep runs share."""
    return {
        "lambda_beta": result.lambda_beta,
        "lambda_system": result.lambda_system,
        "predicted": result.predicted_attractor,
        "slow_regime": result.slow_regime,
        "final_sup_distance": result.final_sup_distance,
        "time_to_tolerance": result.time_to_tolerance,
        "steady": result.steady,
        "steps": result.steps,
        "dt": dt,
    }


def _run_threshold(config: RunConfig, out: Path, seed: int, *, gate: bool) -> int:
    coeffs = config.coefficient_set()
    cfg = config.make_stepper(coeffs, config.initial)
    result = verify.run_threshold_experiment(
        coeffs, config.bc, config.initial, cfg, distance_tol=config.distance_tol, eps=config.eps
    )
    passed = True
    if gate and not result.slow_regime:
        initial_dist = result.trajectory[0].sup_dist if result.trajectory else float("inf")
        reached = result.final_sup_distance <= config.distance_tol
        progressing = result.final_sup_distance <= 0.1 * initial_dist
        passed = bool(reached or progressing)

    report = _base_report(config, seed)
    report.update(
        _threshold_fields(result, cfg.dt),
        distance_tol=config.distance_tol,
        envelope_ok=result.envelope_ok,
        eps_used=result.eps_used,
        t_end=cfg.t_end,
        passed=passed,
    )
    write_report(out / "report.json", report)

    final = result.final_state
    profiles = {"H_i": final.h_i.values, "V_u": final.v_u.values, "V_i": final.v_i.values}
    if result.v_b is not None:
        profiles["V_B"] = result.v_b.values
    if result.equilibrium is not None:
        profiles["H_i_star"] = result.equilibrium.h_i.values
        profiles["V_i_star"] = result.equilibrium.v_i.values
    _write_profiles(out / "profiles.csv", config.mesh, profiles)
    _write_trajectory(out / "trajectory.csv", result.trajectory)
    return 0 if passed else 2


def _run_envelope(config: RunConfig, out: Path, seed: int) -> int:
    coeffs = config.coefficient_set()
    cfg = config.make_stepper(coeffs, config.initial)
    env = verify.check_envelope_dirichlet(
        coeffs, config.initial, config.eps, cfg,
        margin_times=np.linspace(0.0, cfg.t_end, 101),
    )
    passed = env.t_eps is not None and env.held_until_end
    report = _base_report(config, seed)
    report.update(
        {
            "lambda_beta": env.lambda_beta,
            "eps": env.eps,
            "t_eps": env.t_eps,
            "held_until_end": env.held_until_end,
            "t_end": env.t_end,
            "passed": bool(passed),
        }
    )
    write_report(out / "report.json", report)
    write_csv(out / "trajectory.csv", ["t", "min_dist_lower", "min_dist_upper"], env.margins)
    return 0 if passed else 2


def _scenario_stepper(config: RunConfig, scenario: "verify.Scenario") -> StepperConfig:
    bound = stability_dt_max(scenario.coeffs, scenario.initial)
    dt = bound if config.dt_spec == "auto" else min(config.dt_spec, bound)
    return StepperConfig(dt=dt, **config.stepper)


def _run_sweep(config: RunConfig, out: Path, seed: int) -> int:
    """Classify every scenario, integrate all classified ones in one lockstep
    batch, then write the artifacts in scenario order.  An error in one
    scenario is recorded in its report and does not stop the others."""
    mesh = config.mesh
    bc = config.bc
    reports, codes, trajectories = [], [], {}
    classified = []  # (scenario index, scenario, stepper config, classification)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(config.count)):
        scenario = verify.random_scenario(mesh, bc, np.random.default_rng(child))
        (out / f"scenario_{i:03d}").mkdir(parents=True, exist_ok=True)
        cfg = _scenario_stepper(config, scenario)
        sub_report = _base_report(config, seed)
        sub_report["scenario"] = i
        reports.append(sub_report)
        codes.append(0)
        try:
            classified.append(
                (i, scenario, cfg, verify.classify_scenario(scenario.coeffs, bc, scenario.initial))
            )
        except VectorHostError as exc:
            codes[i] = _record_error(sub_report, exc)

    runs = integrate_many(
        [sc.initial for _, sc, _, _ in classified],
        [sc.coeffs for _, sc, _, _ in classified],
        [bc] * len(classified),
        [cfg for _, _, cfg, _ in classified],
        snapshot_times=np.linspace(0.0, config.stepper["t_end"], 51),
        references=[prediction.attractor for *_, prediction in classified],
        reference_tol=config.distance_tol,
    )
    for j, traj in runs:  # in the order the runs finish
        i, _, cfg, prediction = classified[j]
        if isinstance(traj, VectorHostError):
            codes[i] = _record_error(reports[i], traj)
            continue
        result = verify.threshold_report(prediction, traj, config.distance_tol)
        # A contradiction is a settled trajectory far from the predicted
        # attractor in a regime where the prediction is decisive.
        contradiction = (
            not result.slow_regime
            and result.steady
            and result.final_sup_distance > config.distance_tol
        )
        reports[i].update(_threshold_fields(result, cfg.dt), passed=not contradiction)
        trajectories[i] = result.trajectory
        codes[i] = 2 if contradiction else 0

    for i, sub_report in enumerate(reports):
        sub = out / f"scenario_{i:03d}"
        write_report(sub / "report.json", sub_report)
        if i in trajectories:
            _write_trajectory(sub / "trajectory.csv", trajectories[i])

    summary_keys = (
        "scenario", "lambda_beta", "lambda_system", "predicted", "slow_regime", "error", "passed"
    )
    report = _base_report(config, seed)
    report.update(
        {
            "count": config.count,
            "passed": all(s["passed"] for s in reports),
            "scenarios": [{k: s[k] for k in summary_keys if k in s} for s in reports],
        }
    )
    write_report(out / "report.json", report)
    for s in reports:
        if "error" in s:
            print(f"error: scenario {s['scenario']}: {s['error']['type']}: {s['error']['message']}",
                  file=sys.stderr)
    # A contradicted prediction outranks an operational error.
    return max(codes)


def _record_error(report: dict, exc: VectorHostError) -> int:
    """Record a failed scenario in its report; return its exit code."""
    report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    report["passed"] = False
    return 2 if isinstance(exc, PREDICTION_ERRORS) else 1


def run(config: RunConfig, out_dir, seed: int | None = None) -> int:
    """Execute the configured experiment, writing artifacts into out_dir."""
    effective_seed = config.seed if seed is None else int(seed)
    if effective_seed < 0:
        raise ValidationError(f"seed must be >= 0, got {effective_seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.kind == "eigen":
        return _run_eigen(config, out, effective_seed)
    if config.kind == "steady":
        return _run_steady(config, out, effective_seed)
    if config.kind == "simulate":
        return _run_threshold(config, out, effective_seed, gate=False)
    if config.kind == "threshold":
        return _run_threshold(config, out, effective_seed, gate=True)
    if config.kind == "envelope":
        return _run_envelope(config, out, effective_seed)
    if config.kind == "sweep":
        return _run_sweep(config, out, effective_seed)
    raise ValidationError(f"unknown experiment kind {config.kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vectorhost",
        description="Spatial vector-host epidemic model: eigenvalues, equilibria, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eigen", "steady", "simulate", "threshold", "envelope", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        config = parse_config(Path(args.config).read_text())
        if config.kind != args.command:
            raise ValidationError(
                f"config experiment kind {config.kind!r} does not match command {args.command!r}"
            )
        return run(config, args.out, seed=args.seed)
    except PREDICTION_ERRORS as exc:
        print(f"prediction check failed: {exc}", file=sys.stderr)
        return 2
    except (VectorHostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
