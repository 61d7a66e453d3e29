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

Each run keeps its own clock, state k at t0 + (k - k0) h: h = dt from
k0 = t0 = 0 for floor(t_end/dt) full steps, then a remainder re-grids it to
one step onto t_end.  The steady window (a sup-norm move below steady_tol
over the last steady_window steps) is tested after full steps only.

The core takes the steps of all active runs together, B at a time.  The rows
of all runs form one C-contiguous (rows, runs, n) array, grouped by
component: a comparison of two states stacks (H_i, H_i, V_u, V_u, V_i, V_i),
so each component of all states and runs is one flat block.  Per active set,
the core lays the runs' coefficient rows and 1/dt out in that order and
factors one joined tridiagonal system, block diagonal with one block
-L_row + 1/dt_run per row, so each run keeps its own dt and gets the bits it
would get alone.  A step writes W times the right-hand side, W the operators'
weights (1, or 1/2 at Neumann and Robin walls), straight into a slot of one
preallocated state ring (the longest closable steady window plus a block
of B states, about BLOCK_BYTES), for the full system in 12 contiguous 1-D calls
with W folded into the coefficients, and solves that slot in place with one
bare dpttrs call.  After each block one vectorized pass finds, per run, the
first non-finite or negative step, the first settled step and the reference
distances; the caller's visit gets the block to record order violations,
observer calls, first times below a tolerance and snapshots, chosen by step
time.  A non-finite or negative entry sends every run back to the last clean
step, which is redone alone with the per-step checks below.  A run retires
when it settles, reaches t_end (its remainder step is a block of one) or
fails; its later steps in the block are dropped and it is compacted
out.  integrate_many keeps each snapshot as its time and rows;
TrajectorySummary.snapshots builds the States on access.

The explicit reaction imposes the step bound

    dt <= 0.5 / max_x (rho + 2 sigma2 Vhat + beta + 2 mu Vhat + sigma1 h_u),

with Vhat = max(max V(0), max beta/mu), a crude Lipschitz bound that also
keeps the update positivity-preserving.  Negative round-off in
(-1e-14, 0) is clamped to zero; anything below that, or a right-hand side
that overflows to a non-finite value, stops the run with BlowUpError.
integrate_many records it for that run; the single-run integrators raise
it.  Overflow is silenced for each stretch of blocks between retirements,
never across a yield, so the caller's numpy error state holds whenever its
code runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .eigen import EndemicProblem
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
# How far a monotone flow or an ordered pair may move the wrong way before
# it counts as a violation.
ORDER_TOL = 1e-10
# The states of one block of lockstep steps fill about this many bytes.
BLOCK_BYTES = 1 << 18


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
        for name in ("dt", "t_end", "steady_tol"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        window = self.steady_window
        if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window < 1:
            raise ValidationError(f"steady_window must be an int >= 1, got {window!r}")


def _dt_bound(coeffs: CoefficientSet, v_max: float) -> tuple[float, float]:
    """(dt bound, v_hat) for a run whose V starts at or below v_max: V stays
    below v_hat = max(v_max, max beta/mu), and the explicit-reaction bound is
    0.5 over the max of the reaction's nodewise Lipschitz bound at v_hat."""
    c = coeffs
    v_hat = max(float(v_max), float((c.beta.values / c.mu.values).max()))
    den = (
        c.rho.values
        + 2.0 * c.sigma2.values * v_hat
        + c.beta.values
        + 2.0 * c.mu.values * v_hat
        + c.sigma1.values * c.h_u.values
    )
    return 0.5 / float(den.max()), v_hat


def stability_dt_max(coeffs: CoefficientSet, state: State) -> float:
    """Largest admissible dt for the 3-component system from this state."""
    return _dt_bound(coeffs, float((state.v_u.values + state.v_i.values).max()))[0]


def _order_dt(coeffs: CoefficientSet, h_max: float, v_max) -> float:
    """Largest dt that keeps the explicit (H, V) reaction map order-preserving:
    1/dt >= rho and 1/dt >= sigma2 H + mu v_max, where v_max (a field or a
    constant) bounds V and the maximum principle bounds H over the run by
    max(h_max, max(sigma1 h_u v_max) / min rho), h_max the starting max of H.
    """
    s1hu = coeffs.sigma1.values * coeffs.h_u.values
    rho = coeffs.rho.values
    h_cap = max(h_max, float((s1hu * v_max).max()) / float(rho.min()))
    return 0.5 / float(np.maximum(rho, coeffs.sigma2.values * h_cap + coeffs.mu.values * v_max).max())


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


def _snapshot_times(snapshot_times) -> np.ndarray:
    """The requested snapshot times, checked and sorted.  A time that is not
    finite is rejected: a NaN would void every comparison after it."""
    times = np.asarray([] if snapshot_times is None else snapshot_times, dtype=float)
    if times.ndim != 1:
        raise ValidationError("snapshot times must be a 1-D sequence of finite numbers")
    if not np.isfinite(times).all():
        raise ValidationError("snapshot times must be finite")
    return np.sort(times)


def _snapshots(times, dt):
    """Given the sorted times of _snapshot_times and each run's dt, a function
    take(runs, t) that gives, for the times t (L, active) of a visit's
    states, the (active index, position) of the state each newly due time
    takes, once per time.  A time is due at the first state whose time
    reaches it within 1e-9 max(1, dt); the initial state (t = 0) takes
    exactly the times within 1e-12 max(1, dt) of zero."""
    scale = np.maximum(1.0, np.asarray(dt, dtype=float))[:, None]
    due = times - 1e-9 * scale
    # Clamped to the smallest positive float, the other times stay off step 0.
    due = np.where(times - 1e-12 * scale <= 0.0, due, np.maximum(due, np.nextafter(0.0, 1.0)))
    # Per run: its times, then inf, the count taken and its next time (in an
    # array, to test the active runs at once).
    due = [row + [math.inf] for row in due.tolist()]
    taken, nxt = [0] * len(due), np.array([row[0] for row in due])

    def take(runs, t):
        pairs = []
        for i in np.flatnonzero(t[-1] >= nxt[runs]).tolist():
            r = runs[i]
            col, row, n = t[:, i].tolist(), due[r], taken[r]
            while row[n] <= col[-1]:
                pairs.append((i, bisect_left(col, row[n])))
                n += 1
            taken[r], nxt[r] = n, row[n]
        return pairs

    return take


def _joined_solver(ops, h, n: int):
    """One ShiftedSolve for every row of the active runs against its
    -L + 1/h, blocks in the row-major order of the stacked rows (rows, runs,
    n), and the flat indices of the active and of the Dirichlet wall nodes
    there (None, None when every node is active)."""
    flat = [run[j] for j in range(len(ops[0])) for run in ops]
    solver = ShiftedSolve(flat, np.tile(1.0 / h, len(ops[0])))
    if all(op.m == n for op in flat):
        return solver, None, None
    inner = np.zeros((len(flat), n), dtype=bool)
    for b, op in enumerate(flat):
        inner[b, op.sl] = True
    return solver, np.flatnonzero(inner), np.flatnonzero(~inner)


def _spans(ring, start: int, count: int):
    """Ring slots start, ..., start + count - 1, taken modulo the ring's
    length, as (offset, view) pairs: one, or two where they wrap."""
    head = ring[start % len(ring):][:count]
    return [(0, head)] + [(len(head), ring[:count - len(head)])] * (len(head) < count)


def _block_steps(values: int) -> int:
    """B, the steps of one block of a march whose stacked rows hold `values`
    floats: as many as fill BLOCK_BYTES with their states, at least one."""
    return max(1, BLOCK_BYTES // (8 * values))


def _march(u, ops, names, rhs, coef, dt, t_end, visit, steady, ref=None):
    """Advance R independent runs in lockstep from t = 0 to their t_end, each
    on its own clock, B = _block_steps(u.size) steps at a time.

    Run r's clock puts state k at t0 + (k - k0) h up to state `end`, then rem
    is due (0 if no step is): at first k0 = t0 = 0, h = dt[r] and end =
    floor(t_end/dt + 1e-12).  Blocks stop at the nearest end.  At the top of
    a block a run at its end with rem > 0 re-grids to h = rem, k0 = end =
    k + 1, t0 = t_end, rem = 0 and no steady test: one step onto t_end.

    u (rows, R, n) stacks the runs' rows, those of several states grouped by
    component (see _system): row j of run r diffuses under ops[r][j], and
    names[j] names it in errors.  Whenever the active set or a clock's h
    changes, rhs(c, h, rows) gets the active runs' coefficient rows
    c = coef[:, active], their step sizes h (active,) and the row count, and
    returns react(u, out), which writes W (u/h + reaction) into out, W the
    operators' weights (ones under Dirichlet).  u, the state before the
    step, and out, its ring slot, are flat views of the active runs' rows
    (rows, active, n), C-contiguous, made once per block; out is then solved
    in place against W(-L + 1/h), row by row, by one bare dpttrs call
    (ShiftedSolve.solve_weighted).

    State k >= 1 sits in ring slot (k - 1) % S and the initial state in slot
    S - 1; S, a multiple of B, holds the longest steady window that can close
    plus a block, so a block never wraps.  A block with a non-finite or
    negative entry is cut before that step, which is then redone as a block
    of one: there a non-finite right-hand side fails its run (zeroed, so the
    joined solve stays finite for the others), negatives in (-1e-14, 0) are
    clamped and lower ones fail the run.  Given a StepperConfig as
    steady[r], run r stops after the first full step that moved less than
    steady_tol over the last steady_window steps; given ref (rows, R, n),
    each step's sup distance of each run to ref[:, r] is taken.

    visit(k, t, new, old, runs, dist) gets each block, split where runs
    retire: k the step index of new[0], the times t (L, active) (snapshots
    are chosen by these), the states after each step new (L, rows, active,
    n) and before the first old (rows, active, n), the runs' indices and
    their distances dist (L, active) or None.  new and old are valid during
    the call only.  visit runs under the error state that lets react overflow.

    Yields (r, outcome) for each run r as it retires, by step and then by
    index: its (rows, t, steps, settled), or the BlowUpError that stopped
    it.  The error state is left before each yield, so the caller's is in
    force whenever it runs.
    """
    n = u.shape[2]
    h = np.asarray(dt, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    end = np.floor(t_end / h + 1e-12)  # a float: t_end/h may exceed any int64
    rem = t_end - end * h
    rem[rem <= 1e-12 * h] = 0.0
    window = np.array([0 if s is None else s.steady_window for s in steady], dtype=int)
    window[window > end] = 0  # never closes: a window closes at a full-step state k >= its length
    # A run without a steady test never moves less than -inf.
    tol = np.array([-np.inf if s is None else s.steady_tol for s in steady])
    idle = (end == 0) & (rem == 0)
    for r in np.flatnonzero(idle):
        yield r, (u[:, r], 0.0, 0, False)

    runs = np.flatnonzero(~idle)
    if not runs.size:
        return
    u, coef = u.take(runs, axis=1), coef.take(runs, axis=1)  # C-contiguous, unlike u[:, runs]
    if ref is not None:
        ref = ref.take(runs, axis=1)
    # The clock of each run, its own copies: state k stands at t0 + (k - k0) h.
    h, t_end, end, rem, window, tol = (x[runs] for x in (h, t_end, end, rem, window, tol))
    k0, t0 = np.zeros((2, runs.size))
    w_max = int(window.max(initial=0))
    block = _block_steps(u.size)
    ring = np.empty((block * (-(-w_max // block) + 1), *u.shape))
    ring[-1] = u
    # Room for one block's distance terms, reshaped as runs retire.
    room = np.empty(block * u.size) if w_max or ref is not None else None
    redo = False
    k = 0
    while runs.size:
        windows = [(w, window == w) for w in np.unique(window[window > 0]).tolist()]
        windows = [(w, slice(None) if m.all() else m) for w, m in windows]
        scratch = None if room is None else room[:block * u.size].reshape(block, *u.shape)
        u_flat = u.reshape(-1)
        solver = None
        # One error state per stretch of blocks between retirements: overflow
        # in react is reported as a BlowUpError instead.
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                gap = (end - k).min()
                if not gap:  # remainder steps: each a grid of one step onto t_end, untested
                    regrid = end == k
                    h[regrid], k0[regrid], t0[regrid], end[regrid], rem[regrid], tol[regrid] = (
                        rem[regrid], k + 1, t_end[regrid], k + 1, 0.0, -np.inf)
                    solver, gap = None, 1
                if solver is None:
                    solver, active, walls = _joined_solver([ops[r] for r in runs], h, n)
                    react = rhs(coef, h, u.shape[0])
                size = 1 if redo else int(min(block, gap, len(ring) - k % len(ring)))
                t = t0 + ((k + 1 + np.arange(size))[:, None] - k0) * h
                new = ring[k % len(ring):][:size]
                failed = {}
                prev = u_flat
                for f in new.reshape(size, -1):  # the block's slots, flat
                    react(prev, f)
                    if size == 1 and not math.isfinite(f.sum()):
                        rows = f.reshape(u.shape)
                        bad = ~np.isfinite(rows).all(axis=(0, 2))
                        for i in np.flatnonzero(bad):
                            failed[i] = BlowUpError(
                                f"step {k + 1} (to t={t[0, i]:g}) overflowed: non-finite right-hand side"
                            )
                        rows[:, bad] = 0.0  # keeps the joined solve finite for the other runs
                    if active is None:
                        solver.solve_weighted(f)
                    else:
                        f[active] = solver.solve_weighted(f[active])
                        f[walls] = 0.0
                    prev = f
                if size == 1:
                    redo = False
                    if new.min() < 0.0:
                        for i, err in _clamp(new[0], names).items():
                            failed.setdefault(i, err)
                elif not (math.isfinite(new.sum()) and new.min() >= 0.0):
                    clean = np.isfinite(new).all(axis=(1, 2, 3)) & (new.min(axis=(1, 2, 3)) >= 0.0)
                    if not clean.all():
                        size = int(clean.argmin())  # the steps before the first unclean one
                        new, t, redo = new[:size], t[:size], True
                        if not size:
                            continue

                win = dist = None
                if w_max:
                    win = np.full((size, runs.size), np.inf)
                    for w, members in windows:
                        j = max(0, w - k - 1)  # step k + 1 + j is the first with a full window
                        if j < size:
                            for o, old in _spans(ring, k + j - w, size - j):
                                o += j
                                np.subtract(new[o:o + len(old)], old, out=scratch[o:o + len(old)])
                            d = np.abs(scratch[j:size], out=scratch[j:size])
                            win[j:, members] = d.max(axis=(1, 3))[:, members]
                if ref is not None:
                    d = np.subtract(new, ref, out=scratch[:size])
                    dist = np.abs(d, out=d).max(axis=(1, 3))
                stop = np.full(runs.size, size)  # the steps of this block each run keeps
                settled = np.zeros(runs.size, dtype=bool)
                if win is not None:
                    hit = win < tol
                    settled = hit.any(axis=0)
                    stop[settled] = hit.argmax(axis=0)[settled] + 1
                if failed:
                    stop[list(failed)] = 0
                b = 0
                for e in sorted(set(stop.tolist()) - {0}):  # one visit per stretch of one active set
                    keep, seg = stop >= e, new[b:e]
                    if keep.all():
                        keep = slice(None)
                    else:  # the survivors' columns, packed into the scratch the distances are done with
                        shape = (e - b, seg.shape[1], np.count_nonzero(keep), n)
                        out = None if room is None else room[:math.prod(shape)].reshape(shape)
                        seg = np.compress(keep, seg, axis=2, out=out)
                    visit(k + b + 1, t[b:e, keep], seg, (new[b - 1] if b else u)[:, keep],
                          runs[keep], None if dist is None else dist[b:e, keep])
                    b = e
                k += size
                np.copyto(u, new[-1])
                done = settled | ((k >= end) & (rem == 0))
                if failed:
                    done[list(failed)] = True
                if done.any():
                    break

        # Runs retire in the order of their last step, by index within a step.
        for i in sorted(np.flatnonzero(done), key=lambda i: size if i in failed else stop[i]):
            if i in failed:
                yield runs[i], failed[i]
            else:
                j = stop[i] - 1  # rows: not a view that keeps the ring alive
                yield runs[i], (new[j, :, i].copy(), float(t[j, i]), int(k - size + stop[i]), bool(settled[i]))
        keep = ~done
        u, coef = u.compress(keep, axis=1), coef.compress(keep, axis=1)
        # Compacted in place, slot by slot, so the ring is never held twice:
        # slot s of the narrower ring ends before slot s + 1 of the wider one.
        packed = ring.reshape(-1)[:len(ring) * u.size].reshape(len(ring), *u.shape)
        for s in range(len(ring)):
            packed[s] = ring[s].compress(keep, axis=1)
        ring = packed
        if ref is not None:
            ref = ref.compress(keep, axis=1)
        runs, h, k0, t0, end, rem, t_end, window, tol = (
            x[keep] for x in (runs, h, k0, t0, end, rem, t_end, window, tol)
        )


def _weights(op, n: int) -> np.ndarray:
    """op's weights W on all n nodes: ones under Dirichlet, whose walls are
    not solved for."""
    return np.ones(n) if op.unit_weights else op.weights


def _system(coeffs: CoefficientSet, bc: BoundarySpec, copies: int = 1):
    """Operators and coefficient rows (rho, sigma1 h_u, sigma2, beta, mu, W)
    of the full system for `copies` states stacked as rows grouped by
    component, (H_i x copies, V_u x copies, V_i x copies); _system_rhs is
    its right-hand side."""
    c = coeffs
    op1 = assemble(c.d1, bc)
    op2 = assemble(c.d2, bc)
    rows = np.array([
        c.rho.values, c.sigma1.values * c.h_u.values, c.sigma2.values, c.beta.values, c.mu.values,
        _weights(op1, c.mesh.n),
    ])
    return [op1] * copies + [op2] * (2 * copies), rows


def _system_rhs(c, h, rows):
    """W (u * (1/h) + reaction) of the full system for `rows` stacked rows
    grouped by component, given the coefficient rows c = (rho, sigma1 h_u,
    sigma2, beta, mu, W) and step sizes h of the runs.  The reactions are,
    evaluated left to right,

        H_i: -rho H_i + sigma1 h_u V_i
        V_u: -sigma2 V_u H_i + beta V - mu V V_u
        V_i:  sigma2 V_u H_i - mu V V_i,    V = V_u + V_i.

    W, each weight 1 or 1/2, is folded into the coefficients and 1/h, which
    is exact: every entry gets the bits of W times the unweighted one.  Each
    component is one contiguous block of the flat u, so a step is 12 1-D
    calls (ufuncs, whose third argument is out, and one copyto) against
    coefficients, W/h and a workspace laid out here once: the loss terms
    (W rho H_i, W mu V V_u, W mu V V_i) in one call, the gains less the
    losses in another.
    """
    shape = (rows, *c.shape[1:])
    k = rows // 3 * c[0].size  # the values of one component block
    # Each coefficient row once per state, in the order of a component block.
    rho, s1hu, s2, beta, mu = (np.broadcast_to(x * c[5], (rows // 3, *x.shape)).ravel() for x in c[:5])
    w_h = np.broadcast_to(c[5] * (1.0 / h)[:, None], shape).ravel()
    v = np.empty(k)
    loss_coef = np.empty(3 * k)  # (W rho, W mu V, W mu V)
    loss_coef[:k] = rho
    mu_v, mu_v2 = loss_coef[k:2 * k], loss_coef[2 * k:]
    loss, gain = np.empty((2, 3 * k))
    g_hi, g_vu, cross = gain[:k], gain[k:2 * k], gain[2 * k:]

    def react(u, out):
        hi, vu, vi = u[:k], u[k:2 * k], u[2 * k:]
        np.add(vu, vi, v)
        np.multiply(mu, v, mu_v)
        np.copyto(mu_v2, mu_v)
        np.multiply(loss_coef, u, loss)
        np.multiply(s2, vu, cross)
        np.multiply(cross, hi, cross)
        np.multiply(s1hu, vi, g_hi)
        np.multiply(beta, v, g_vu)
        np.subtract(g_vu, cross, g_vu)
        np.subtract(gain, loss, gain)
        np.multiply(u, w_h, out)
        np.add(out, gain, out)

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
    """A run's outcome; snapshot_rows holds each snapshot as (t, rows (3, n))."""

    final: State
    steady: bool
    steps: int
    dt: float
    snapshot_rows: list[tuple[float, np.ndarray]] = field(default_factory=list)
    snapshot_distances: list[float] | None = None
    first_time_below: float | None = None
    final_sup_distance: float | None = None

    @property
    def snapshots(self) -> list[State]:
        """The snapshots as States, built on each access."""
        return [_state(t, rows, self.final.mesh) for t, rows in self.snapshot_rows]


def integrate(
    state0: State,
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    cfg: StepperConfig,
    *,
    snapshot_times=None,
    reference: tuple[ScalarField, ScalarField, ScalarField] | None = None,
    reference_tol: float | None = None,
) -> TrajectorySummary:
    """Step until t_end, or until the state has moved less than steady_tol
    (sup norm, all components) over the last steady_window steps; the
    windowed measure catches slow drift that per-step changes would hide.
    With a reference triple the per-step sup distance is tracked and the
    first time it dips below reference_tol is recorded."""
    return _unwrap(integrate_many(
        [state0], [coeffs], [bc], [cfg], snapshot_times=snapshot_times,
        references=[reference], reference_tol=reference_tol,
    ))


def _start(state0: State, coeffs: CoefficientSet, bc: BoundarySpec):
    """The checked initial state of a full-system run and its rows, with
    Dirichlet walls snapped to zero.  Runs start at t = 0: the stepping
    clock, the snapshot times and t_end all count from there."""
    mesh = coeffs.mesh
    if state0.mesh != mesh:
        raise MeshMismatchError("state and coefficients live on different meshes")
    if state0.t != 0.0:
        raise ValidationError(f"runs start at t = 0, got an initial state at t = {state0.t:g}")
    u0 = _rows(state0)
    if bc.kind == DIRICHLET:
        _snap_walls(u0, ("h_i", "v_u", "v_i"))
        state0 = _state(state0.t, u0, mesh)
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
    if reference_tol is not None and not (reference_tol > 0 and np.isfinite(reference_tol)):
        raise ValidationError(f"reference_tol must be positive and finite, got {reference_tol}")
    # Checked before the runs: a bad time is the batch's error, not one run's.
    times = _snapshot_times(snapshot_times)
    references = [None] * len(states) if references is None else references
    batch = []
    for r, args in enumerate(zip(states, coeffs, bcs, cfgs, references, strict=True)):
        try:
            state0, u0 = _start(*args[:3])
            _check_dt(args[3].dt, stability_dt_max(args[1], state0))
            batch.append((r, state0, u0))
        except VectorHostError as exc:
            yield r, exc
    if not batch:
        return
    if len({coeffs[r].mesh.n for r, *_ in batch}) > 1:
        raise ValidationError("integrate_many runs must share one node count")

    index = [r for r, *_ in batch]
    u = np.stack([u0 for *_, u0 in batch], axis=1)
    has_ref = np.array([references[r] is not None for r in index])
    refs = np.zeros_like(u) if has_ref.any() else None  # None: no distances to take
    for b in np.flatnonzero(has_ref):
        refs[:, b] = [f.values for f in references[index[b]]]
    # A run records first_time_below when its distance drops below its
    # limit: reference_tol while it still looks for it, else -inf.
    limit = np.full(len(batch), -np.inf)
    if reference_tol is not None:
        limit[has_ref] = reference_tol
    first = np.full(len(batch), np.nan)
    take = _snapshots(times, [cfgs[r].dt for r in index])
    summaries = [TrajectorySummary(state0, False, 0, cfgs[r].dt) for r, state0, _ in batch]
    for b in np.flatnonzero(has_ref):
        summaries[b].snapshot_distances = []

    def visit(k, t, new, old, runs, dist):
        if dist is not None:
            hit = dist < limit[runs]
            if hit.any():
                i = np.flatnonzero(hit.any(axis=0))
                first[runs[i]] = t[hit[:, i].argmax(axis=0), i]
                limit[runs[i]] = -np.inf
        for i, j in take(runs, t):
            b = runs[i]
            summaries[b].snapshot_rows.append((float(t[j, i]), new[j, :, i].copy()))
            if has_ref[b]:
                summaries[b].snapshot_distances.append(float(dist[j, i]))

    dist0 = None if refs is None else np.abs(u - refs).max(axis=(0, 2))[None]
    visit(0, np.zeros((1, len(batch))), u[None], None, np.arange(len(batch)), dist0)
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
        [cfgs[r] for r in index],
        refs,
    )
    for b, outcome in outcomes:
        summary, summaries[b] = summaries[b], None
        if isinstance(outcome, VectorHostError):
            yield index[b], outcome
            continue
        rows, t, summary.steps, summary.steady = outcome
        if summary.steps:
            summary.final = _state(t, rows, coeffs[index[b]].mesh)
        if has_ref[b]:
            summary.final_sup_distance = float(np.abs(rows - refs[:, b]).max())
        if not np.isnan(first[b]):
            summary.first_time_below = float(first[b])
        yield index[b], summary


@dataclass
class ScalarTrajectory:
    final: ScalarField
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
    observer=None,
) -> ScalarTrajectory:
    """Integrate the summed vector equation d V/dt - L2 V = beta V - mu V^2
    with the same IMEX splitting as the full system (so V_u + V_i of the
    3-component run and this trajectory agree to round-off), always to t_end.

    observer(t, values) is called on the initial data and after every step,
    in order; values is valid during the call only.
    """
    mesh = coeffs.mesh
    if v0.mesh != mesh:
        raise MeshMismatchError("v0 and coefficients live on different meshes")
    if v0.values[mesh.interior].min() <= 0:
        raise ValidationError("v0 must be positive at interior nodes")
    u0 = np.array([v0.values])
    if bc.kind == DIRICHLET:
        _snap_walls(u0, ("v0",))
    _check_dt(cfg.dt, _dt_bound(coeffs, float(u0.max()))[0])

    take = _snapshots(_snapshot_times(snapshot_times), [cfg.dt])
    traj = ScalarTrajectory(final=v0, steps=0, dt=cfg.dt)
    caller = np.geterr()  # the core silences overflow; the observer runs under this

    def visit(k, t, new, old, runs, dist):
        if observer is not None:
            with np.errstate(**caller):
                for j in range(len(t)):
                    observer(float(t[j, 0]), new[j, 0, 0])
        for _, j in take([0], t):
            traj.snapshots.append((float(t[j, 0]), ScalarField(mesh, new[j, 0, 0])))

    op = assemble(coeffs.d2, bc)
    w = _weights(op, mesh.n)

    def rhs(c, dt, rows):
        beta, mu = c[:, 0]
        return lambda v, out: np.multiply(v / dt + beta * v - mu * v * v, w, out)

    visit(0, np.zeros((1, 1)), u0[None, :, None], None, None, None)
    out = _march(
        u0[:, None], [[op]], ("V",), rhs,
        np.array([coeffs.beta.values, coeffs.mu.values])[:, None],
        [cfg.dt], [cfg.t_end], visit, [None],
    )
    u, _, traj.steps, _ = _unwrap(out)
    traj.final = ScalarField(mesh, u[0])
    return traj


def _record_violations(report, diff, t) -> None:
    """Fold the wrong-way moves diff (L, ...) of a block's steps, at times
    t (L, 1), into report.max_violation and report.first_violation_time, the
    first time a move exceeded ORDER_TOL."""
    per_step = diff.max(axis=tuple(range(1, diff.ndim)))
    report.max_violation = max(report.max_violation, float(per_step.max()))
    if report.first_violation_time is None and report.max_violation > ORDER_TOL:
        report.first_violation_time = float(t[int(np.argmax(per_step > ORDER_TOL)), 0])


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
) -> AuxPairTrajectory:
    """Integrate the auxiliary two-component flow with frozen vector
    equilibrium and the positive-part infection term:

        dH/dt - L1 H = -rho H + sigma1 h_u V
        dV/dt - L2 V = sigma2 (V_B + eps w - V)^+ H - mu (V_B - eps w) V

    whose reaction is EndemicProblem.reaction (v_b, eps and weight must
    pass its checks).  This is the flow whose trajectories from upper
    (lower) solutions are nodewise non-increasing (non-decreasing); pass
    monotone="nonincreasing" or "nondecreasing" to track violations beyond
    ORDER_TOL.  The step is capped so the update map is order-preserving
    over the run.
    """
    mesh = coeffs.mesh
    if h0.mesh != mesh or v0.mesh != mesh:
        raise MeshMismatchError("h0, v0 and coefficients must share one mesh")
    if weight is None:
        weight = ScalarField(mesh, np.ones(mesh.n))
    if monotone not in (None, "nonincreasing", "nondecreasing"):
        raise ValidationError(f"unknown monotone mode {monotone!r}")
    problem = EndemicProblem(coeffs, bc, v_b, eps, weight)
    sl = problem.op1.sl
    u0 = np.array([h0.values, v0.values])
    if bc.kind == DIRICHLET:
        _snap_walls(u0, ("h0", "v0"))
    # V_B + |eps| w bounds both V and V_B - eps w.
    dt = min(cfg.dt, _order_dt(coeffs, float(h0.values.max()), v_b.values + abs(eps) * weight.values))

    w = _weights(problem.op1, mesh.n)

    def rhs(c, dt, rows):
        def react(u, out):
            u, f = u.reshape(2, -1), out.reshape(2, -1)
            np.divide(u, dt, f)  # Dirichlet walls are not solved for
            f[:, sl] += problem.reaction(u[0, sl], u[1, sl])
            np.multiply(f, w, f)

        return react

    out = AuxPairTrajectory(h0, v0, False, 0, dt, monotone_ok=None if monotone is None else True)

    def visit(k, t, new, old, runs, dist):
        if monotone is not None:
            step = np.diff(new, axis=0, prepend=old[None])
            _record_violations(out, step if monotone == "nonincreasing" else -step, t)
            out.monotone_ok = out.first_violation_time is None

    # The reaction's coefficients live in problem.
    run = _march(u0[:, None], [[problem.op1, problem.op2]], ("H", "V"), rhs, np.empty((0, 1)),
                 [dt], [cfg.t_end], visit, [cfg])
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
) -> ComparisonReport:
    """Integrate two states with identical configuration and report the first
    time (if any) the (H_i, V_i) ordering breaks beyond ORDER_TOL.

    Requires state_a <= state_b in (H_i, V_i) at t = 0.  The step is
    internally capped (never above cfg.dt) so the explicit reaction map is
    order-preserving in (H_i, V_i); the crude system bound alone does not
    control the sigma2*H term.
    """
    if state_a.mesh != state_b.mesh or state_a.mesh != coeffs.mesh:
        raise MeshMismatchError("states and coefficients must share one mesh")
    (state_a, u_a), (state_b, u_b) = (_start(s, coeffs, bc) for s in (state_a, state_b))
    if float((u_a[0::2] - u_b[0::2]).max()) > ORDER_TOL:  # rows H_i and V_i
        raise ValidationError("state_a must be <= state_b in (H_i, V_i) at t = 0")

    v_max = max(float((s.v_u.values + s.v_i.values).max()) for s in (state_a, state_b))
    bound, v_hat = _dt_bound(coeffs, v_max)
    h_max = max(float(state_a.h_i.values.max()), float(state_b.h_i.values.max()))
    dt = min(cfg.dt, bound, _order_dt(coeffs, h_max, v_hat))

    report = ComparisonReport(True, None, 0.0, cfg.t_end, dt)
    n = coeffs.mesh.n
    gaps = np.empty((_block_steps(6 * n), 2, 1, n))  # one block's (H_i, V_i) order gaps

    def visit(k, t, new, old, runs, dist):
        # Rows (H_i, V_i) of state_a are 0 and 4, those of state_b 1 and 5.
        _record_violations(report, np.subtract(new[:, 0::4], new[:, 1::4], out=gaps[:len(t)]), t)
        report.ordered = report.first_violation_time is None

    ops, coef = _system(coeffs, bc, copies=2)
    u0 = np.stack([u_a, u_b], axis=1)  # (H_i, V_u, V_i) x (a, b)
    names = tuple(name for name in SYSTEM_ROWS for _ in "ab")
    _unwrap(_march(
        u0.reshape(6, 1, -1), [ops], names, _system_rhs, coef[:, None], [dt], [cfg.t_end], visit,
        [None],
    ))
    return report
