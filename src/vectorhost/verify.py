"""Experiment harness: threshold classification, attractor convergence,
the moving-envelope check for Dirichlet runs, and the seeded scenario
generator.

Eigenvalues predict the attractor, simulations confirm it:

    lambda_beta >= 0                      -> Extinct      (0, 0, 0)
    lambda_beta < 0 <= lambda_system      -> DiseaseFree  (0, V_B, 0)
    lambda_system < 0                     -> Endemic      (H*, V_B - V_i*, V_i*)

Runs whose deciding eigenvalue sits within 1e-3 of zero are flagged as
"slow regime" and excluded from pass/fail classification (convergence
time diverges at the threshold).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    State,
    StepperConfig,
    TrajectorySummary,
    integrate,
    integrate_scalar_logistic,
)
from .eigen import principal_eigen_scalar
from .errors import ValidationError
from .grid import (
    DIRICHLET,
    BoundarySpec,
    CoefficientSet,
    Mesh1D,
    ScalarField,
    field_from_constant,
)
from .steady import (
    EndemicAbsent,
    EndemicEquilibrium,
    check_eps_admissibility,
    solve_endemic,
    solve_logistic,
)

ENDEMIC = "Endemic"
DISEASE_FREE = "DiseaseFree"
EXTINCT = "Extinct"
SLOW_BAND = 1e-3

TrajectoryRow = namedtuple("TrajectoryRow", "t sup_dist sup_h_i sup_v_u sup_v_i")


@dataclass
class ThresholdReport:
    lambda_beta: float
    lambda_system: float | None
    predicted_attractor: str
    attractor: State
    final_sup_distance: float
    time_to_tolerance: float | None
    envelope_ok: bool | None
    eps_used: float
    slow_regime: bool
    steady: bool
    steps: int
    distance_tol: float
    trajectory: list[TrajectoryRow] = field(default_factory=list)
    equilibrium: EndemicEquilibrium | None = None
    v_b: ScalarField | None = None
    final_state: State | None = None


@dataclass(frozen=True)
class Classification:
    """A scenario's eigenvalue prediction and the attractor it predicts."""

    lambda_beta: float
    lambda_system: float | None
    predicted_attractor: str
    attractor: tuple[ScalarField, ScalarField, ScalarField]
    slow_regime: bool
    equilibrium: EndemicEquilibrium | None
    v_b: ScalarField | None


def classify_scenario(coeffs: CoefficientSet, bc: BoundarySpec, initial: State) -> Classification:
    """Check the initial state, classify the scenario by its eigenvalues and
    solve for the predicted attractor."""
    mesh = coeffs.mesh
    if initial.mesh != mesh:
        raise ValidationError("initial state must live on the coefficient mesh")
    interior = mesh.interior
    for name in ("h_i", "v_u", "v_i"):
        if getattr(initial, name).values[interior].min() <= 0:
            raise ValidationError(f"initial {name} must be positive at interior nodes")

    scalar_eig = principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
    lam_beta = scalar_eig.lam
    lam_sys = None
    equilibrium = None
    v_b = None
    zero = field_from_constant(mesh, 0.0)
    if lam_beta >= 0:
        predicted = EXTINCT
        attractor = (zero, zero, zero)
    else:
        logistic = solve_logistic(coeffs, bc, scalar_eig=scalar_eig)
        v_b = logistic.v_b
        # solve_endemic decides the threshold: Absent exactly when lambda_system >= 0.
        result = solve_endemic(coeffs, bc, 0.0, logistic=logistic, scalar_eig=scalar_eig)
        lam_sys = result.lambda_system
        if isinstance(result, EndemicAbsent):
            predicted = DISEASE_FREE
            attractor = (zero, v_b, zero)
        else:
            predicted = ENDEMIC
            equilibrium = result
            attractor = (result.h_i, result.v_u, result.v_i)

    slow = abs(lam_beta) <= SLOW_BAND or (lam_sys is not None and abs(lam_sys) <= SLOW_BAND)
    return Classification(lam_beta, lam_sys, predicted, attractor, slow, equilibrium, v_b)


def threshold_report(
    prediction: Classification,
    traj: TrajectorySummary,
    distance_tol: float,
    *,
    envelope_ok: bool | None = None,
    eps: float = 0.0,
) -> ThresholdReport:
    """The threshold report of a classified scenario and its trajectory,
    integrated with the attractor as reference."""
    snaps = traj.snapshot_rows
    # Per snapshot, the sup norm of each component: max is exact, so these
    # are the values of the snapshot States, bit for bit.
    sups = np.abs([u for _, u in snaps]).max(axis=2).tolist() if snaps else []
    rows = [
        TrajectoryRow(t, dist, *sup)
        for (t, _), dist, sup in zip(snaps, traj.snapshot_distances, sups)
    ]
    return ThresholdReport(
        lambda_beta=prediction.lambda_beta,
        lambda_system=prediction.lambda_system,
        predicted_attractor=prediction.predicted_attractor,
        attractor=State(0.0, *prediction.attractor),
        final_sup_distance=traj.final_sup_distance,
        time_to_tolerance=traj.first_time_below,
        envelope_ok=envelope_ok,
        eps_used=eps,
        slow_regime=prediction.slow_regime,
        steady=traj.steady,
        steps=traj.steps,
        distance_tol=distance_tol,
        trajectory=rows,
        equilibrium=prediction.equilibrium,
        v_b=prediction.v_b,
        final_state=traj.final,
    )


def run_threshold_experiment(
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    initial: State,
    cfg: StepperConfig,
    *,
    distance_tol: float = 1e-4,
    eps: float = 0.0,
) -> ThresholdReport:
    """Classify the scenario by its eigenvalues, then integrate and record, at
    101 evenly spaced times on [0, t_end], how the trajectory approaches the
    predicted attractor."""
    prediction = classify_scenario(coeffs, bc, initial)
    traj = integrate(
        initial,
        coeffs,
        bc,
        cfg,
        snapshot_times=np.linspace(0.0, cfg.t_end, 101),
        reference=prediction.attractor,
        reference_tol=distance_tol,
    )
    envelope_ok = None
    if bc.kind == DIRICHLET and eps > 0 and prediction.lambda_beta < 0:
        env = check_envelope_dirichlet(coeffs, initial, eps, cfg)
        envelope_ok = env.t_eps is not None and env.held_until_end
    return threshold_report(prediction, traj, distance_tol, envelope_ok=envelope_ok, eps=eps)


@dataclass
class EnvelopeReport:
    t_eps: float | None
    held_until_end: bool
    lambda_beta: float
    eps: float
    t_end: float
    margins: list[tuple[float, float, float]] = field(default_factory=list)


def check_envelope_dirichlet(
    coeffs: CoefficientSet,
    initial: State,
    eps: float,
    cfg: StepperConfig,
    *,
    margin_times=None,
) -> EnvelopeReport:
    """Track when V = V_u + V_i first enters the moving envelope
    V_D - eps*phi < V < V_D + eps*phi at all interior nodes, and whether it
    stays inside until t_end (phi: sup-normalized principal eigenfunction
    of -L2 - beta under Dirichlet closure)."""
    if eps <= 0:
        raise ValidationError("envelope check needs eps > 0")
    bc = BoundarySpec.dirichlet()
    mesh = coeffs.mesh
    scalar_eig = principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
    if scalar_eig.lam >= 0:
        raise ValidationError(
            f"envelope check requires lambda_beta < 0, got {scalar_eig.lam:g} "
            "(no positive vector equilibrium exists)"
        )
    logistic = solve_logistic(coeffs, bc, scalar_eig=scalar_eig)
    check_eps_admissibility(coeffs, logistic.v_b, bc, eps, scalar_eig.phi, scalar_eig.lam)

    interior = mesh.interior
    lower = (logistic.v_b.values - eps * scalar_eig.phi.values)[interior]
    upper = (logistic.v_b.values + eps * scalar_eig.phi.values)[interior]
    v0 = ScalarField(mesh, initial.v_u.values + initial.v_i.values)

    found: list[float | None] = [None]
    held = [True]

    def observer(t: float, values: np.ndarray):
        vi = values[interior]
        inside = bool(np.all(lower < vi) and np.all(vi < upper))
        if inside and found[0] is None:
            found[0] = t
        if not inside and found[0] is not None:
            held[0] = False

    traj = integrate_scalar_logistic(v0, coeffs, bc, cfg, snapshot_times=margin_times, observer=observer)
    margins = [
        (t, float((v.values[interior] - lower).min()), float((upper - v.values[interior]).min()))
        for t, v in traj.snapshots
    ]
    return EnvelopeReport(
        t_eps=found[0],
        held_until_end=held[0] if found[0] is not None else False,
        lambda_beta=scalar_eig.lam,
        eps=eps,
        t_end=cfg.t_end,
        margins=margins,
    )


@dataclass(frozen=True)
class Scenario:
    coeffs: CoefficientSet
    initial: State


def _wavy(xi: np.ndarray, rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """c0 (1 + a sin(k pi xi)), drawn in this order: c0 log-uniform in
    [lo, hi], a uniform in [0, 0.5], k in {1, 2, 3}."""
    c0 = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    a = float(rng.uniform(0.0, 0.5))
    k = int(rng.integers(1, 4))
    return c0 * (1.0 + a * np.sin(k * np.pi * xi))


def wavy_field(mesh: Mesh1D, rng: np.random.Generator) -> ScalarField:
    """A seeded wavy profile, c0 log-uniform in [0.2, 5.0]; positive by construction."""
    return ScalarField(mesh, _wavy((mesh.nodes - mesh.a) / (mesh.b - mesh.a), rng, 0.2, 5.0))


def random_coefficients(mesh: Mesh1D, rng: np.random.Generator) -> CoefficientSet:
    """Seeded smooth positive coefficients (one wavy profile per name)."""
    names = ("d1", "d2", "rho", "sigma1", "sigma2", "beta", "mu", "h_u")
    return CoefficientSet(**{name: wavy_field(mesh, rng) for name in names})


def random_initial(mesh: Mesh1D, bc: BoundarySpec, rng: np.random.Generator) -> State:
    """Seeded wavy initial data, c0 log-uniform in [0.1, 2.0]; zero walls for Dirichlet."""
    xi = (mesh.nodes - mesh.a) / (mesh.b - mesh.a)
    if bc.kind == DIRICHLET:
        bump = np.sin(np.pi * xi)
        bump[0] = bump[-1] = 0.0
    else:
        bump = np.ones(mesh.n)
    return State(0.0, *(ScalarField(mesh, _wavy(xi, rng, 0.1, 2.0) * bump) for _ in range(3)))


def random_scenario(mesh: Mesh1D, bc: BoundarySpec, rng: np.random.Generator) -> Scenario:
    return Scenario(random_coefficients(mesh, rng), random_initial(mesh, bc, rng))
