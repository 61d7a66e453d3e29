"""IMEX time integration of the parabolic systems.

Every integrator runs one core, `_march`: the first-order forward-backward
IMEX splitting of Ascher, Ruuth & Spiteri (Appl. Numer. Math. 25, 1997),
implicit in diffusion (one tridiagonal solve per component per step) and
explicit in reaction, so the fixed points of the scheme are exactly the
discrete elliptic steady states.  The full system, the scalar logistic
reduction, the auxiliary pair and the two-state comparison differ only in
the right-hand side they hand the core and in what they record per step.

All share one time grid: floor(t_end/dt) full steps, then one remainder
step landing exactly on t_end.  The steady window (the state moved less
than steady_tol in sup norm over the last steady_window steps) is tested
after full steps only.  The explicit reaction imposes the step bound

    dt <= 0.5 / max_x (rho + 2 sigma2 Vhat + beta + 2 mu Vhat + sigma1 h_u),

with Vhat = max(max V(0), max beta/mu), a crude Lipschitz bound that also
keeps the update positivity-preserving.  Negative round-off in
(-1e-14, 0) is clamped to zero; anything below that, or a right-hand side
that overflows to a non-finite value, raises BlowUpError.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, MeshMismatchError, StabilityError, ValidationError
from .grid import DIRICHLET, BoundarySpec, CoefficientSet, ScalarField
from .operators import ShiftedSolve, assemble

CLAMP_BAND = 1e-14


@dataclass(frozen=True)
class State:
    """Time-stamped triple (H_i, V_u, V_i); all components nonnegative."""

    t: float
    h_i: ScalarField
    v_u: ScalarField
    v_i: ScalarField

    def __post_init__(self):
        mesh = self.h_i.mesh
        if self.v_u.mesh != mesh or self.v_i.mesh != mesh:
            raise MeshMismatchError("state components must share one mesh")
        for name in ("h_i", "v_u", "v_i"):
            if getattr(self, name).values.min() < 0:
                raise ValidationError(f"state component {name} has negative values")

    @property
    def mesh(self):
        return self.h_i.mesh


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    steady_tol: float = 1e-9
    steady_window: int = 50

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_end > 0 and np.isfinite(self.t_end)):
            raise ValidationError(f"t_end must be positive and finite, got {self.t_end}")
        if self.steady_tol <= 0 or self.steady_window < 1:
            raise ValidationError("steady_tol must be > 0 and steady_window >= 1")


def reaction_bound(coeffs: CoefficientSet, v_hat: float) -> float:
    """Nodewise Lipschitz bound of the reaction used for the dt limit."""
    c = coeffs
    den = (
        c.rho.values
        + 2.0 * c.sigma2.values * v_hat
        + c.beta.values
        + 2.0 * c.mu.values * v_hat
        + c.sigma1.values * c.h_u.values
    )
    return float(den.max())


def v_hat_bound(coeffs: CoefficientSet, v_initial_max: float) -> float:
    return max(float(v_initial_max), float((coeffs.beta.values / coeffs.mu.values).max()))


def stability_dt_max(coeffs: CoefficientSet, state: State) -> float:
    """Largest admissible dt for the 3-component system from this state."""
    v0 = float((state.v_u.values + state.v_i.values).max())
    return 0.5 / reaction_bound(coeffs, v_hat_bound(coeffs, v0))


def _check_dt(dt: float, bound: float) -> None:
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:g} exceeds the explicit-reaction bound {bound:g}")


def _clamp(values: np.ndarray, what: str) -> np.ndarray:
    lowest = values.min()
    if lowest <= -CLAMP_BAND:
        raise BlowUpError(f"{what} dropped to {lowest:.3e}, below the -1e-14 round-off band")
    if lowest < 0.0:
        values = np.maximum(values, 0.0)
    return values


def _snap_walls(u: np.ndarray, names) -> None:
    """Zero the Dirichlet wall nodes of each row in place; round-off
    residue (e.g. sin(pi)) is snapped, anything larger is rejected."""
    for row, name in zip(u, names):
        tol = 1e-12 * (1.0 + float(np.abs(row).max()))
        if abs(row[0]) > tol or abs(row[-1]) > tol:
            raise ValidationError(f"Dirichlet runs need zero boundary values in {name}")
    u[:, 0] = 0.0
    u[:, -1] = 0.0


def _snapshot_clock(snapshot_times, dt: float):
    """Return due(t): how many of the requested times, taken in order, the
    state at t stands for.  The initial state (t = 0) takes only times
    within round-off of zero; later states take every time they reach."""
    times = sorted(float(s) for s in snapshot_times) if snapshot_times is not None else []
    taken = 0

    def due(t: float) -> int:
        nonlocal taken
        slack = (1e-12 if t == 0.0 else 1e-9) * max(1.0, dt)
        start = taken
        while taken < len(times) and t >= times[taken] - slack:
            taken += 1
        return taken - start

    return due


def _solvers(ops, dt: float) -> list[ShiftedSolve]:
    """Per row, the solve against -L + 1/dt, factored once per distinct operator."""
    distinct = {id(op): op for op in ops}
    shared = {key: ShiftedSolve(op, np.full(op.mesh.n, 1.0 / dt)) for key, op in distinct.items()}
    return [shared[id(op)] for op in ops]


def _march(u, ops, names, rhs, dt: float, t_end: float, visit, steady=None):
    """Advance the stacked rows u (row i diffuses under ops[i]) from t = 0
    to t_end on the shared time grid.

    rhs(u, h) returns the stacked right-hand sides u/h + reaction for a
    step of size h; row i is then solved against -L_i + 1/h and clamped.
    visit(t, new, old) runs after every step.  Given a StepperConfig as
    steady, the run stops after the first full step that moved less than
    steady_tol over the last steady_window steps.  Returns (u, t, steps, settled).
    """

    def advance(u, solvers, h, t, k):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            f = rhs(u, h)
        if not np.isfinite(f).all():
            raise BlowUpError(f"step {k} (to t={t:g}) overflowed: non-finite right-hand side")
        new = np.array([_clamp(s.solve(r), what) for s, r, what in zip(solvers, f, names)])
        visit(t, new, u)
        return new

    n_full = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    solvers = _solvers(ops, dt)
    window = deque([u], maxlen=steady.steady_window + 1) if steady is not None else None
    t = 0.0
    for k in range(1, n_full + 1):
        t = k * dt
        u = advance(u, solvers, dt, t, k)
        if window is not None:
            window.append(u)
            if len(window) == window.maxlen and np.abs(u - window[0]).max() < steady.steady_tol:
                return u, t, k, True
    if remainder > 1e-12 * dt:
        u = advance(u, _solvers(ops, remainder), remainder, t_end, n_full + 1)
        return u, t_end, n_full + 1, False
    return u, t, n_full, False


def _system(coeffs: CoefficientSet, bc: BoundarySpec, copies: int = 1):
    """Operators, row names and right-hand side of the full system for
    `copies` states stacked as rows (H_i, V_u, V_i, H_i, ...)."""
    op1 = assemble(coeffs.d1, bc)
    op2 = assemble(coeffs.d2, bc)
    rho = coeffs.rho.values
    s1hu = coeffs.sigma1.values * coeffs.h_u.values
    s2 = coeffs.sigma2.values
    beta = coeffs.beta.values
    mu = coeffs.mu.values

    def rhs(u, dt):
        h, vu, vi = u[0::3], u[1::3], u[2::3]
        v = vu + vi
        inv_dt = 1.0 / dt
        cross = s2 * vu * h
        r_h = -rho * h + s1hu * vi
        r_vu = -cross + beta * v - mu * v * vu
        r_vi = cross - mu * v * vi
        f = np.empty_like(u)
        f[0::3] = h * inv_dt + r_h
        f[1::3] = vu * inv_dt + r_vu
        f[2::3] = vi * inv_dt + r_vi
        return f

    return [op1, op2, op2] * copies, ("H_i", "V_u", "V_i") * copies, rhs


def _rows(state: State) -> np.ndarray:
    return np.array([state.h_i.values, state.v_u.values, state.v_i.values])


def _state(t: float, u: np.ndarray, mesh) -> State:
    return State(t, ScalarField(mesh, u[0]), ScalarField(mesh, u[1]), ScalarField(mesh, u[2]))


def step(state: State, coeffs: CoefficientSet, bc: BoundarySpec, dt: float) -> State:
    """One IMEX step of the full system; dt must respect the stability bound."""
    if state.mesh != coeffs.mesh:
        raise MeshMismatchError("state and coefficients live on different meshes")
    _check_dt(dt, stability_dt_max(coeffs, state))
    ops, names, rhs = _system(coeffs, bc)
    u = _march(_rows(state), ops, names, rhs, dt, dt, lambda t, new, old: None)[0]
    return _state(state.t + dt, u, state.mesh)


@dataclass
class TrajectorySummary:
    final: State
    steady: bool
    steps: int
    dt: float
    snapshots: list[State] = field(default_factory=list)
    snapshot_distances: list[float] | None = None
    first_time_below: float | None = None
    final_sup_distance: float | None = None


def integrate(
    state0: State,
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    cfg: StepperConfig,
    *,
    snapshot_times=None,
    reference: tuple[ScalarField, ScalarField, ScalarField] | None = None,
    reference_tol: float | None = None,
    stop_at_steady: bool = True,
) -> TrajectorySummary:
    """Step until t_end, or until the state has moved less than steady_tol
    (sup norm, all components) over the last steady_window steps; the
    windowed measure catches slow drift that per-step changes would hide.
    With a reference triple the per-step sup distance is tracked and the
    first time it dips below reference_tol is recorded."""
    mesh = coeffs.mesh
    if state0.mesh != mesh:
        raise MeshMismatchError("state and coefficients live on different meshes")
    u0 = _rows(state0)
    if bc.kind == DIRICHLET:
        _snap_walls(u0, ("h_i", "v_u", "v_i"))
        state0 = _state(state0.t, u0, mesh)
    _check_dt(cfg.dt, stability_dt_max(coeffs, state0))

    ref = None if reference is None else np.array([f.values for f in reference])
    track = ref is not None and reference_tol is not None
    due = _snapshot_clock(snapshot_times, cfg.dt)
    summary = TrajectorySummary(state0, False, 0, cfg.dt)
    summary.snapshot_distances = None if ref is None else []

    def distance(u):
        return float(np.abs(u - ref).max())

    def visit(t, new, old):
        if track and summary.first_time_below is None and distance(new) < reference_tol:
            summary.first_time_below = t
        k = due(t)
        if k:
            summary.snapshots += [state0 if old is None else _state(t, new, mesh)] * k
            if ref is not None:
                summary.snapshot_distances += [distance(new)] * k

    visit(0.0, u0, None)
    ops, names, rhs = _system(coeffs, bc)
    run = _march(u0, ops, names, rhs, cfg.dt, cfg.t_end, visit, cfg if stop_at_steady else None)
    u, t, summary.steps, summary.steady = run
    if summary.steps:
        summary.final = _state(t, u, mesh)
    if ref is not None:
        summary.final_sup_distance = distance(u)
    return summary


@dataclass
class ScalarTrajectory:
    final: ScalarField
    steady: bool
    steps: int
    dt: float
    snapshots: list[tuple[float, ScalarField]] = field(default_factory=list)


def integrate_scalar_logistic(
    v0: ScalarField,
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    cfg: StepperConfig,
    *,
    snapshot_times=None,
    stop_at_steady: bool = True,
    observer=None,
) -> ScalarTrajectory:
    """Integrate the summed vector equation d V/dt - L2 V = beta V - mu V^2
    with the same IMEX splitting as the full system (so V_u + V_i of the
    3-component run and this trajectory agree to round-off).

    observer(t, values) is called on the initial data and after every step.
    """
    mesh = coeffs.mesh
    if v0.mesh != mesh:
        raise MeshMismatchError("v0 and coefficients live on different meshes")
    if v0.values[mesh.interior].min() <= 0:
        raise ValidationError("v0 must be positive at interior nodes")
    u0 = np.array([v0.values])
    if bc.kind == DIRICHLET:
        _snap_walls(u0, ("v0",))
    _check_dt(cfg.dt, 0.5 / reaction_bound(coeffs, v_hat_bound(coeffs, float(u0.max()))))

    beta = coeffs.beta.values
    mu = coeffs.mu.values
    due = _snapshot_clock(snapshot_times, cfg.dt)
    traj = ScalarTrajectory(final=v0, steady=False, steps=0, dt=cfg.dt)

    def visit(t, new, old):
        if observer is not None:
            observer(t, new[0])
        k = due(t)
        if k:
            traj.snapshots += [(t, ScalarField(mesh, new[0]))] * k

    visit(0.0, u0, None)
    u, _, traj.steps, traj.steady = _march(
        u0, [assemble(coeffs.d2, bc)], ("V",), lambda v, dt: v / dt + beta * v - mu * v * v,
        cfg.dt, cfg.t_end, visit, cfg if stop_at_steady else None,
    )
    traj.final = ScalarField(mesh, u[0])
    return traj


@dataclass
class AuxPairTrajectory:
    h: ScalarField
    v: ScalarField
    steady: bool
    steps: int
    dt: float
    monotone_ok: bool | None = None
    max_violation: float = 0.0
    first_violation_time: float | None = None


def integrate_aux_pair(
    h0: ScalarField,
    v0: ScalarField,
    coeffs: CoefficientSet,
    v_b: ScalarField,
    bc: BoundarySpec,
    cfg: StepperConfig,
    *,
    eps: float = 0.0,
    weight: ScalarField | None = None,
    monotone: str | None = None,
    monotone_tol: float = 1e-10,
    stop_at_steady: bool = True,
) -> AuxPairTrajectory:
    """Integrate the auxiliary two-component flow with frozen vector
    equilibrium and the positive-part infection term:

        dH/dt - L1 H = -rho H + sigma1 h_u V
        dV/dt - L2 V = sigma2 (V_B + eps w - V)^+ H - mu (V_B - eps w) V

    This is the flow whose trajectories from upper (lower) solutions are
    nodewise non-increasing (non-decreasing); pass monotone="nonincreasing"
    or "nondecreasing" to track violations beyond monotone_tol.  The step
    is capped so the update map is order-preserving over the run.
    """
    mesh = coeffs.mesh
    if weight is None:
        weight = ScalarField(mesh, np.ones(mesh.n))
    if monotone not in (None, "nonincreasing", "nondecreasing"):
        raise ValidationError(f"unknown monotone mode {monotone!r}")
    v_plus = v_b.values + eps * weight.values
    v_minus = v_b.values - eps * weight.values
    rho = coeffs.rho.values
    s1hu = coeffs.sigma1.values * coeffs.h_u.values
    s2 = coeffs.sigma2.values
    mu = coeffs.mu.values

    # Order preservation needs 1/dt >= rho and 1/dt >= sigma2 H + mu (V_B + |eps| w);
    # bound H over the run through the maximum principle.
    v_abs = v_b.values + abs(eps) * weight.values
    h_cap = max(float(h0.values.max()), float((s1hu * v_plus).max()) / float(rho.min()))
    den = np.maximum(rho, s2 * h_cap + mu * v_abs)
    dt = min(cfg.dt, 0.5 / float(den.max()))

    def rhs(u, dt):
        h, v = u
        f1 = -rho * h + s1hu * v
        f2 = s2 * np.maximum(v_plus - v, 0.0) * h - mu * v_minus * v
        return np.array([h / dt + f1, v / dt + f2])

    out = AuxPairTrajectory(h0, v0, False, 0, dt, monotone_ok=None if monotone is None else True)

    def visit(t, new, old):
        if monotone is None:
            return
        viol = float((new - old if monotone == "nonincreasing" else old - new).max())
        if viol > out.max_violation:
            out.max_violation = viol
        if viol > monotone_tol and out.first_violation_time is None:
            out.first_violation_time = t
            out.monotone_ok = False

    ops = [assemble(coeffs.d1, bc), assemble(coeffs.d2, bc)]
    steady = cfg if stop_at_steady else None
    u, _, out.steps, out.steady = _march(
        np.array([h0.values, v0.values]), ops, ("H", "V"), rhs, dt, cfg.t_end, visit, steady
    )
    out.h = ScalarField(mesh, u[0])
    out.v = ScalarField(mesh, u[1])
    return out


@dataclass
class ComparisonReport:
    ordered: bool
    first_violation_time: float | None
    max_violation: float
    t_end: float
    dt: float


def compare_trajectories(
    state_a: State,
    state_b: State,
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    cfg: StepperConfig,
    *,
    order_tol: float = 1e-10,
) -> ComparisonReport:
    """Integrate two states with identical configuration and report the first
    time (if any) the (H_i, V_i) ordering breaks beyond order_tol.

    Requires state_a <= state_b in (H_i, V_i) at t = 0.  The step is
    internally capped (never above cfg.dt) so the explicit reaction map is
    order-preserving in (H_i, V_i); the crude system bound alone does not
    control the sigma2*H term.
    """
    if state_a.mesh != state_b.mesh or state_a.mesh != coeffs.mesh:
        raise MeshMismatchError("states and coefficients must share one mesh")
    if (
        float((state_a.h_i.values - state_b.h_i.values).max()) > order_tol
        or float((state_a.v_i.values - state_b.v_i.values).max()) > order_tol
    ):
        raise ValidationError("state_a must be <= state_b in (H_i, V_i) at t = 0")

    v_hat = max(
        v_hat_bound(coeffs, float((state_a.v_u.values + state_a.v_i.values).max())),
        v_hat_bound(coeffs, float((state_b.v_u.values + state_b.v_i.values).max())),
    )
    s1hu = coeffs.sigma1.values * coeffs.h_u.values
    h_cap = max(
        float(state_a.h_i.values.max()),
        float(state_b.h_i.values.max()),
        float(s1hu.max()) * v_hat / float(coeffs.rho.values.min()),
    )
    order_den = np.maximum(
        coeffs.rho.values, coeffs.sigma2.values * h_cap + coeffs.mu.values * v_hat
    )
    dt = min(cfg.dt, 0.5 / reaction_bound(coeffs, v_hat), 0.5 / float(order_den.max()))

    report = ComparisonReport(True, None, 0.0, cfg.t_end, dt)

    def visit(t, new, old):
        # Rows 0-2 carry state_a, rows 3-5 state_b.
        viol = max(float((new[0] - new[3]).max()), float((new[2] - new[5]).max()))
        if viol > report.max_violation:
            report.max_violation = viol
        if viol > order_tol and report.first_violation_time is None:
            report.first_violation_time = t
            report.ordered = False

    ops, names, rhs = _system(coeffs, bc, copies=2)
    _march(np.vstack([_rows(state_a), _rows(state_b)]), ops, names, rhs, dt, cfg.t_end, visit)
    return report
