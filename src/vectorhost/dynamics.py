"""IMEX time integration of the parabolic systems.

Every integrator runs one lockstep core, `_march`, over R independent runs:
the first-order forward-backward IMEX splitting of Ascher, Ruuth & Spiteri
(Appl. Numer. Math. 25, 1997), implicit in diffusion and explicit in
reaction, so the fixed points of the scheme are exactly the discrete
elliptic steady states.  The full system, the scalar logistic reduction,
the auxiliary pair and the two-state comparison differ only in the
right-hand side they hand the core and in what they record per step.
`integrate_many` runs many full systems at once; every other integrator is
a batch of one.

Each run keeps its own time grid: floor(t_end/dt) full steps, then one
remainder step landing exactly on t_end.  The steady window (the state
moved less than steady_tol in sup norm over the last steady_window steps)
is tested after full steps only.

The core takes step k of every active run together.  It holds the rows of
all runs as one C-contiguous (rows, runs, n) array.  The rows of a run are
grouped by component: a comparison of two states stacks (H_i, H_i, V_u,
V_u, V_i, V_i), so each component of all states and runs is one contiguous,
flat block.  Whenever the active set changes, the core lays the runs'
coefficient rows and 1/dt out in that order once, with a small workspace;
each step then evaluates the reaction as 1-D ufunc calls on the blocks and
solves every row of every run in one dgttrs call.  That system is block
diagonal, one block -L_row + 1/dt_run per row, joined with zero coupling,
so each run keeps its own dt and gets the bits it would get alone.  It is
factored once per active set too.  A run retires when it settles, reaches
t_end or fails; its remainder step onto t_end changes the set too.  Retired
runs are compacted out of the arrays.  The steady window, snapshot clock,
clamping and errors stay per run, vectorized over runs.

The explicit reaction imposes the step bound

    dt <= 0.5 / max_x (rho + 2 sigma2 Vhat + beta + 2 mu Vhat + sigma1 h_u),

with Vhat = max(max V(0), max beta/mu), a crude Lipschitz bound that also
keeps the update positivity-preserving.  Negative round-off in
(-1e-14, 0) is clamped to zero; anything below that, or a right-hand side
that overflows to a non-finite value, stops the run with BlowUpError.
integrate_many records it for that run; the single-run integrators raise it.
Overflow is silenced for each stretch of steps between retirements, never
across a yield, so the caller's numpy error state holds whenever its code
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlowUpError,
    MeshMismatchError,
    StabilityError,
    ValidationError,
    VectorHostError,
)
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


def _clamp(u: np.ndarray, names) -> dict:
    """Zero the round-off negatives in (-1e-14, 0) of the stacked rows u
    (rows, runs, n) in place.  Return, for each run with a row below that
    band, a BlowUpError naming its first such row."""
    lows = u.min(axis=2)
    errors = {}
    for r, j in zip(*np.nonzero(lows.T <= -CLAMP_BAND)):
        if r not in errors:
            errors[r] = BlowUpError(
                f"{names[j]} dropped to {lows[j, r]:.3e}, below the -1e-14 round-off band"
            )
    neg = lows < 0.0
    u[neg] = np.maximum(u[neg], 0.0)
    return errors


def _snap_walls(u: np.ndarray, names) -> None:
    """Zero the Dirichlet wall nodes of each row in place; round-off
    residue (e.g. sin(pi)) is snapped, anything larger is rejected."""
    for row, name in zip(u, names):
        tol = 1e-12 * (1.0 + float(np.abs(row).max()))
        if abs(row[0]) > tol or abs(row[-1]) > tol:
            raise ValidationError(f"Dirichlet runs need zero boundary values in {name}")
    u[:, 0] = 0.0
    u[:, -1] = 0.0


class _SnapshotClock:
    """Per run, how many of the requested times, taken in order, its state
    at time t stands for.  The initial state (t = 0) takes only times
    within round-off of zero; later states take every time they reach.
    next[r] is the time from which run r's next state is due."""

    def __init__(self, snapshot_times, dts):
        self.times = sorted(float(s) for s in snapshot_times) if snapshot_times is not None else []
        self.scale = [max(1.0, float(dt)) for dt in dts]
        self.taken = [0] * len(self.scale)
        self.next = np.array([self._next(r) for r in range(len(self.scale))], dtype=float)

    def _next(self, r: int) -> float:
        i = self.taken[r]
        return self.times[i] - 1e-9 * self.scale[r] if i < len(self.times) else np.inf

    def take(self, r: int, t: float) -> int:
        slack = (1e-12 if t == 0.0 else 1e-9) * self.scale[r]
        start = self.taken[r]
        while self.taken[r] < len(self.times) and t >= self.times[self.taken[r]] - slack:
            self.taken[r] += 1
        self.next[r] = self._next(r)
        return self.taken[r] - start


def _sup_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per run, the sup-norm distance between stacked rows u and v (rows, runs, n)."""
    d = u - v
    np.abs(d, out=d)
    return d.max(axis=(0, 2))


def _joined_solver(ops, h, n: int):
    """One ShiftedSolve for every row of the active runs against its
    -L + 1/h, blocks in the row-major order of the stacked rows (rows, runs,
    n), and the flat indices of the active nodes there (None when every node
    is active)."""
    flat = [run[j] for j in range(len(ops[0])) for run in ops]
    solver = ShiftedSolve(flat, np.tile(1.0 / h, len(ops[0])))
    if all(op.m == n for op in flat):
        return solver, None
    nodes = np.arange(n)
    return solver, np.concatenate([b * n + nodes[op.sl] for b, op in enumerate(flat)])


def _march(u, ops, names, rhs, coef, dt, t_end, visit, steady):
    """Advance R independent runs in lockstep, each from t = 0 to its t_end
    on its own time grid.

    u (rows, R, n) stacks the runs' rows, those of several states grouped by
    component (see _system): row j of run r diffuses under ops[r][j], and
    names[j] names it in errors.  Whenever the active set or its step sizes
    change, rhs(c, h, rows) gets the active runs' coefficient rows
    c = coef[:, active], their step sizes h (active,) and the row count, and
    returns react(u): for the active runs' rows u (rows, active, n),
    C-contiguous, a fresh array of their right-hand sides, u/h plus the
    reaction.
    Each row is then solved against -L + 1/h and clamped.
    visit(t, new, old, runs) runs after every step with the active runs'
    indices, their times and their rows after and before the step; it runs
    under the error state that lets react overflow.  Given a StepperConfig
    as steady[r], run r stops after the first full step that moved less
    than steady_tol over the last steady_window steps.

    Yields (r, outcome) for each run r as it retires: its (rows, t, steps,
    settled), or the BlowUpError that stopped it.  The error state is left
    before each yield, so the caller's is in force whenever it runs.
    """
    n = u.shape[2]
    dt = np.asarray(dt, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    n_full = np.floor(t_end / dt + 1e-12)  # float: t_end/dt may exceed any int64
    rem = t_end - n_full * dt
    n_steps = n_full + (rem > 1e-12 * dt)
    window = np.array([0 if s is None else s.steady_window for s in steady], dtype=int)
    # A run without a steady test never moves less than -inf.
    tol = np.array([-np.inf if s is None else s.steady_tol for s in steady])
    for r in np.flatnonzero(n_steps == 0):
        yield r, (u[:, r], 0.0, 0, False)

    runs = np.flatnonzero(n_steps > 0)
    u, coef = u.take(runs, axis=1), coef.take(runs, axis=1)  # C-contiguous, unlike u[:, runs]
    dt, t_end, n_full, rem, n_steps, window, tol = (
        x[runs] for x in (dt, t_end, n_full, rem, n_steps, window, tol)
    )
    w_max = int(window.max(initial=0))
    ring = [u] * w_max  # u_j at slot j % w_max; the arrays are never written in place
    solver = None
    k = 0
    while runs.size:
        # One error state per stretch of steps between retirements: overflow
        # in react is reported as a BlowUpError instead.
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                k += 1
                last = None
                if solver is None:
                    n_full_min, n_steps_min = float(n_full.min()), float(n_steps.min())
                    # Runs sharing a window share the ring slot of their oldest state.
                    windows = [(w, window == w) for w in np.unique(window[window > 0]).tolist()]
                    h = dt
                if k > n_full_min:  # some runs take their remainder step onto t_end
                    last = k > n_full
                    h = np.where(last, rem, dt)
                    t = np.where(last, t_end, k * dt)
                    solver = None
                else:
                    t = k * dt
                if solver is None:
                    solver, active = _joined_solver([ops[r] for r in runs], h, n)
                    react = rhs(coef, h, u.shape[0])

                f = react(u)
                failed = {}
                if not math.isfinite(f.sum()):
                    bad = ~np.isfinite(f).all(axis=(0, 2))
                    for i in np.flatnonzero(bad):
                        failed[i] = BlowUpError(
                            f"step {k} (to t={t[i]:g}) overflowed: non-finite right-hand side"
                        )
                    f[:, bad] = 0.0  # keeps the joined solve finite for the other runs
                if active is None:
                    new = solver.solve_active(f.reshape(-1)).reshape(u.shape)
                else:
                    new = np.zeros(u.shape)  # Dirichlet walls stay exactly 0
                    new.reshape(-1)[active] = solver.solve_active(f.reshape(-1)[active])
                if new.min() < 0.0:
                    for i, err in _clamp(new, names).items():
                        failed.setdefault(i, err)
                if failed:
                    ok = np.ones(runs.size, dtype=bool)
                    ok[list(failed)] = False
                    if ok.any():
                        visit(t[ok], new[:, ok], u[:, ok], runs[ok])
                else:
                    visit(t, new, u, runs)

                settled = None
                for w, members in windows:
                    if k < w:
                        continue
                    oldest = ring[(k - w) % w_max]
                    if len(windows) == 1:
                        settled = _sup_distance(new, oldest) < tol
                    else:
                        if settled is None:
                            settled = np.zeros(runs.size, dtype=bool)
                        settled[members] = (
                            _sup_distance(new[:, members], oldest[:, members]) < tol[members]
                        )
                if settled is not None and last is not None:
                    settled &= ~last
                if w_max:
                    ring[k % w_max] = new
                # count_nonzero is the cheapest any() on these small masks.
                any_settled = settled is not None and np.count_nonzero(settled)
                if k >= n_steps_min or failed or any_settled:
                    break
                u = new

        done = k >= n_steps
        if settled is not None:
            done |= settled
        if failed:
            done[list(failed)] = True
        for i in np.flatnonzero(done):
            if i in failed:
                yield runs[i], failed[i]
            else:
                rows = new[:, i].copy()  # not a view that keeps the whole batch alive
                yield runs[i], (rows, float(t[i]), k, settled is not None and bool(settled[i]))
        keep = ~done
        u, coef = new.compress(keep, axis=1), coef.compress(keep, axis=1)
        runs, dt, t_end, n_full, rem, n_steps, window, tol = (
            x[keep] for x in (runs, dt, t_end, n_full, rem, n_steps, window, tol)
        )
        for s in range(w_max):  # one slot at a time, so the ring is never held twice
            ring[s] = ring[s].compress(keep, axis=1)
        solver = None


def _system(coeffs: CoefficientSet, bc: BoundarySpec, copies: int = 1):
    """Operators and coefficient rows of the full system for `copies` states
    stacked as rows grouped by component, (H_i x copies, V_u x copies,
    V_i x copies); _system_rhs is its right-hand side."""
    c = coeffs
    op1 = assemble(c.d1, bc)
    op2 = assemble(c.d2, bc)
    rows = np.array(
        [c.rho.values, c.sigma1.values * c.h_u.values, c.sigma2.values, c.beta.values, c.mu.values]
    )
    return [op1] * copies + [op2] * (2 * copies), rows


def _system_rhs(c, h, rows):
    """The right-hand side u * (1/h) + reaction of the full system for
    `rows` stacked rows grouped by component, given the coefficient rows
    c = (rho, sigma1 h_u, sigma2, beta, mu) and step sizes h of the runs.
    The reactions are, evaluated left to right,

        H_i: -rho H_i + sigma1 h_u V_i
        V_u: -sigma2 V_u H_i + beta V - mu V V_u
        V_i:  sigma2 V_u H_i - mu V V_i,    V = V_u + V_i.

    Each component is one contiguous block of u, so the reaction runs as
    1-D ufunc calls (the third argument is out) against coefficients, 1/h
    and a workspace laid out here once; a step allocates only the
    right-hand side it returns.
    """
    shape = (rows, *c.shape[1:])
    # Each coefficient row once per state, in the order of a component block.
    rho, s1hu, s2, beta, mu = (np.broadcast_to(x, (rows // 3, *x.shape)).ravel() for x in c)
    inv_h = np.broadcast_to((1.0 / h)[:, None], shape).copy()
    v, muv, tmp = np.empty((3, rho.size))
    reaction = np.empty(shape)
    r_hi, r_vu, cross = reaction.reshape(3, -1)

    def react(u):
        hi, vu, vi = u.reshape(3, -1)
        np.add(vu, vi, v)
        np.multiply(mu, v, muv)
        np.multiply(s2, vu, cross)
        np.multiply(cross, hi, cross)
        np.multiply(s1hu, vi, r_hi)
        np.subtract(r_hi, np.multiply(rho, hi, tmp), r_hi)
        np.multiply(beta, v, r_vu)
        np.subtract(r_vu, cross, r_vu)
        np.subtract(r_vu, np.multiply(muv, vu, tmp), r_vu)
        np.subtract(cross, np.multiply(muv, vi, tmp), cross)
        f = np.multiply(u, inv_h)
        return np.add(f, reaction, f)

    return react


SYSTEM_ROWS = ("H_i", "V_u", "V_i")


def _rows(state: State) -> np.ndarray:
    return np.array([state.h_i.values, state.v_u.values, state.v_i.values])


def _state(t: float, u: np.ndarray, mesh) -> State:
    return State(t, ScalarField(mesh, u[0]), ScalarField(mesh, u[1]), ScalarField(mesh, u[2]))


def _unwrap(batch):
    """The outcome of a batch of one, raising the error that stopped it."""
    ((_, outcome),) = batch
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def step(state: State, coeffs: CoefficientSet, bc: BoundarySpec, dt: float) -> State:
    """One IMEX step of the full system; dt must respect the stability bound."""
    if state.mesh != coeffs.mesh:
        raise MeshMismatchError("state and coefficients live on different meshes")
    _check_dt(dt, stability_dt_max(coeffs, state))
    ops, coef = _system(coeffs, bc)
    out = _march(
        _rows(state)[:, None], [ops], SYSTEM_ROWS, _system_rhs, coef[:, None], [dt], [dt],
        lambda *args: None, [None],
    )
    return _state(state.t + dt, _unwrap(out)[0], state.mesh)


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
    return _unwrap(integrate_many(
        [state0], [coeffs], [bc], [cfg], snapshot_times=snapshot_times,
        references=[reference], reference_tol=reference_tol, stop_at_steady=stop_at_steady,
    ))


def _start(state0: State, coeffs: CoefficientSet, bc: BoundarySpec, cfg: StepperConfig):
    """The checked initial state of a full-system run and its rows, with
    Dirichlet walls snapped to zero."""
    mesh = coeffs.mesh
    if state0.mesh != mesh:
        raise MeshMismatchError("state and coefficients live on different meshes")
    u0 = _rows(state0)
    if bc.kind == DIRICHLET:
        _snap_walls(u0, ("h_i", "v_u", "v_i"))
        state0 = _state(state0.t, u0, mesh)
    _check_dt(cfg.dt, stability_dt_max(coeffs, state0))
    return state0, u0


def integrate_many(
    states,
    coeffs,
    bcs,
    cfgs,
    *,
    snapshot_times=None,
    references=None,
    reference_tol: float | None = None,
    stop_at_steady: bool = True,
):
    """Integrate independent runs of the full system in lockstep.

    Run r is integrate(states[r], coeffs[r], bcs[r], cfgs[r], reference=
    references[r], ...), with the other keywords shared, and its summary is
    bit-identical to that call's: each run keeps its own dt, time grid,
    steady window, snapshots and reference tracking.  All runs need the
    same number of mesh nodes.

    Yields (r, result) for each run as it finishes, so a caller can drop
    finished runs while the rest step on.  The result is the run's
    TrajectorySummary, or the VectorHostError that stopped it (a rejected
    input, or a BlowUpError at some step): one failing run does not stop
    the others.
    """
    references = [None] * len(states) if references is None else references
    batch = []
    for r, args in enumerate(zip(states, coeffs, bcs, cfgs, references, strict=True)):
        try:
            batch.append((r, *_start(*args[:4])))
        except VectorHostError as exc:
            yield r, exc
    if not batch:
        return
    if len({coeffs[r].mesh.n for r, *_ in batch}) > 1:
        raise ValidationError("integrate_many runs must share one node count")

    index = [r for r, *_ in batch]
    meshes = [coeffs[r].mesh for r in index]
    u = np.stack([u0 for *_, u0 in batch], axis=1)
    refs = np.zeros_like(u)
    has_ref = np.array([references[r] is not None for r in index])
    for b in np.flatnonzero(has_ref):
        refs[:, b] = [f.values for f in references[index[b]]]
    open_ = has_ref & (reference_tol is not None)  # still looking for first_time_below
    first = np.full(len(batch), np.nan)
    clock = _SnapshotClock(snapshot_times, [cfgs[r].dt for r in index])
    summaries = [TrajectorySummary(state0, False, 0, cfgs[r].dt) for r, state0, _ in batch]
    for b in np.flatnonzero(has_ref):
        summaries[b].snapshot_distances = []

    # Per active set: its runs, their references, which still look for the
    # first time below reference_tol, and when their next snapshot is due.
    active = ref_a = open_a = next_a = None
    any_open = False

    def visit(t, new, old, runs):
        nonlocal active, ref_a, open_a, next_a, any_open
        if runs is not active:
            active, ref_a, open_a, next_a = runs, refs[:, runs], open_[runs], clock.next[runs]
            any_open = bool(np.count_nonzero(open_a))
        if any_open:
            hit = _sup_distance(new, ref_a) < reference_tol
            hit &= open_a
            if np.count_nonzero(hit):
                first[runs[hit]] = t[hit]
                open_[runs[hit]] = False
                open_a &= ~hit
                any_open = bool(np.count_nonzero(open_a))
        due = t >= next_a
        if np.count_nonzero(due):
            for i in np.flatnonzero(due):
                b = runs[i]
                count = clock.take(b, t[i])
                next_a[i] = clock.next[b]
                # Rows while the run steps, States once it finishes: a State takes
                # about 40% more memory, and every active run holds its snapshots.
                snapshot = batch[b][1] if old is None else (float(t[i]), new[:, i].copy())
                summaries[b].snapshots += [snapshot] * count
                if has_ref[b]:
                    distance = float(np.abs(new[:, i] - refs[:, b]).max())
                    summaries[b].snapshot_distances += [distance] * count

    visit(np.zeros(len(batch)), u, None, np.arange(len(batch)))
    systems = [_system(coeffs[r], bcs[r]) for r in index]
    outcomes = _march(
        u,
        [ops for ops, _ in systems],
        SYSTEM_ROWS,
        _system_rhs,
        np.stack([rows for _, rows in systems], axis=1),
        [cfgs[r].dt for r in index],
        [cfgs[r].t_end for r in index],
        visit,
        [cfgs[r] if stop_at_steady else None for r in index],
    )
    for b, outcome in outcomes:
        summary, summaries[b] = summaries[b], None
        if isinstance(outcome, VectorHostError):
            yield index[b], outcome
            continue
        rows, t, summary.steps, summary.steady = outcome
        if summary.steps:
            summary.final = _state(t, rows, meshes[b])
        snapshots = summary.snapshots
        for j, snapshot in enumerate(snapshots):
            if isinstance(snapshot, tuple):
                snapshots[j] = _state(*snapshot, meshes[b])
        if has_ref[b]:
            summary.final_sup_distance = float(np.abs(rows - refs[:, b]).max())
        if not np.isnan(first[b]):
            summary.first_time_below = float(first[b])
        yield index[b], summary


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

    clock = _SnapshotClock(snapshot_times, [cfg.dt])
    traj = ScalarTrajectory(final=v0, steady=False, steps=0, dt=cfg.dt)
    caller = np.geterr()  # the core silences overflow; the observer runs under this

    def visit(t, new, old, runs):
        if observer is not None:
            with np.errstate(**caller):
                observer(float(t[0]), new[0, 0])
        if t[0] >= clock.next[0]:
            traj.snapshots += [(float(t[0]), ScalarField(mesh, new[0, 0]))] * clock.take(0, t[0])

    def rhs(c, dt, rows):
        beta, mu = c
        dt = dt[:, None]
        return lambda v: v / dt + beta * v - mu * v * v

    visit(np.zeros(1), u0[:, None], None, None)
    out = _march(
        u0[:, None], [[assemble(coeffs.d2, bc)]], ("V",), rhs,
        np.array([coeffs.beta.values, coeffs.mu.values])[:, None],
        [cfg.dt], [cfg.t_end], visit, [cfg if stop_at_steady else None],
    )
    u, _, traj.steps, traj.steady = _unwrap(out)
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

    def rhs(c, dt, rows):
        rho, s1hu, s2, v_plus, mu, v_minus = c
        dt = dt[:, None]

        def react(u):
            h, v = u
            f1 = -rho * h + s1hu * v
            f2 = s2 * np.maximum(v_plus - v, 0.0) * h - mu * v_minus * v
            return np.array([h / dt + f1, v / dt + f2])

        return react

    out = AuxPairTrajectory(h0, v0, False, 0, dt, monotone_ok=None if monotone is None else True)

    def visit(t, new, old, runs):
        if monotone is None:
            return
        viol = float((new - old if monotone == "nonincreasing" else old - new).max())
        if viol > out.max_violation:
            out.max_violation = viol
        if viol > monotone_tol and out.first_violation_time is None:
            out.first_violation_time = float(t[0])
            out.monotone_ok = False

    run = _march(
        np.array([h0.values, v0.values])[:, None],
        [[assemble(coeffs.d1, bc), assemble(coeffs.d2, bc)]],
        ("H", "V"),
        rhs,
        np.array([rho, s1hu, s2, v_plus, mu, v_minus])[:, None],
        [dt],
        [cfg.t_end],
        visit,
        [cfg if stop_at_steady else None],
    )
    u, _, out.steps, out.steady = _unwrap(run)
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

    def visit(t, new, old, runs):
        # Rows (H_i, V_i) of state_a are 0 and 4, those of state_b 1 and 5.
        viol = float((new[0::4] - new[1::4]).max())
        if viol > report.max_violation:
            report.max_violation = viol
        if viol > order_tol and report.first_violation_time is None:
            report.first_violation_time = float(t[0])
            report.ordered = False

    ops, coef = _system(coeffs, bc, copies=2)
    u0 = np.stack([_rows(state_a), _rows(state_b)], axis=1)  # (H_i, V_u, V_i) x (a, b)
    names = tuple(name for name in SYSTEM_ROWS for _ in "ab")
    _unwrap(_march(
        u0.reshape(6, 1, -1), [ops], names, _system_rhs, coef[:, None], [dt], [cfg.t_end], visit,
        [None],
    ))
    return report
