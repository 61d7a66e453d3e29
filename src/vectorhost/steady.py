"""Nonlinear steady states of the model.

Three layers:

  * solve_logistic: the vector-population equilibrium V_B of
    -L2 V = beta V - mu V^2 (exists iff the scalar principal eigenvalue
    of -L2 - beta is negative), computed by plain Newton from the
    constant upper bound max(beta/mu);
  * solve_endemic: EndemicAbsent exactly when the system principal
    eigenvalue is >= 0 (the package's one disease-free verdict), else the
    infection equilibrium pair of the perturbed cooperative system, built
    the classical way — a downward monotone iteration from an explicit
    upper-solution pair and an upward one from a small multiple of the
    principal eigenfunction, swept in lockstep — then polished by damped
    Newton, whose line search stops at a trial that is the current iterate
    and, from a residual already at its round-off floor, tries the full
    step only; each polished limit must meet the residual gate before the
    two are held to the agreement tolerance;
  * monotone_iterate: one run of the sweep kernel, usable standalone.

Each monotone sweep is one block Gauss-Seidel step with nodewise damping
potentials (C. V. Pao, Numer. Math. 72, 1995, and 79, 1998):

    (-L1 + K1) H_new = f1(H_old, V_old) + K1 H_old
    (-L2 + K2) V_new = f2(H_new, V_old) + K2 V_old

K1 = rho is exact, because f1 = -rho H + sigma1 h_u V is linear in H.
K2 = sigma2 h_top + mu (V_B - eps w) bounds -df2/dV over the order
interval, where h_top is the H component at its top, so f2 + K2 V is
non-decreasing in V there.  f2 is non-decreasing in H (the system is
cooperative), so taking V's reaction at the new H keeps the sweep map
order-preserving and the iterates nodewise monotone.  A downward run's
iterates fall, so its latest H tops the rest of the run: after sweeps 1,
2, 4, 8, ... it re-damps with K2 from that H, a smaller K2 that contracts
faster (Pao allows K to vary from sweep to sweep as long as it bounds
-df2/dV on the current order interval).

solve_endemic computes the upper and lower sequences together, as Pao's
method does (C. V. Pao, Nonlinear Parabolic and Elliptic Equations, 1992):
one pass sweeps both runs under one K2, and the downward run leads it.
Every upward iterate lies below the minimal solution, hence below every
downward iterate, so the downward run's latest H also tops the upward run,
and the K2 it gives bounds -df2/dV for both: after passes 1, 2, 4, 8, ...
K2 is re-damped from it, and from the downward limit once that run
converges, after which the upward run goes on alone.  The downward run is
thus the standalone one, bit for bit; only the upward run's passes before
that get a larger K2 than the limit's.

The sweeps run on a stacked (component, run, m) state: the iterate and its
successor are two (2, R, m) arrays with component rows H and V of shape
(R, m), laid out with the first two factorizations and again when a run
retires.  Each half-sweep builds its right-hand side W f, W the operators'
weights, by ufunc calls on W-scaled coefficients into a component row of
the successor (each weight is 1 or 1/2, so W f has the bits of f times W)
and solves all its runs there in place (one dpttrs call on R right-hand
sides); one min and one max of each run's difference give its direction
check and its change, and the scale max |u| is taken only for a wrong-way
sweep.  Max and min are exact, and the arithmetic keeps the per-component
order, so each run's iterates are those of separate H and V arrays bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    ConvergenceError,
    MonotonicityError,
    UniquenessViolation,
    ValidationError,
)
from .eigen import (
    EndemicProblem,
    ScalarEigenpair,
    SystemEigenpair,
    _system_eigenpair,
    principal_eigen_scalar,
    roundoff_floor,
)
from .grid import DIRICHLET, BoundarySpec, CoefficientSet, ScalarField, field_from_constant
from .operators import ShiftedSolve, _factor, _stiffness, assemble

SWEEP_TOL = 1e-10
MAX_SWEEPS = 5000
AGREEMENT_TOL = 2e-8
RESIDUAL_TOL = 1e-8
MAX_NEWTON = 60
POLISH_TOL = 1e-12
MAX_POLISH = 40
DELTA_CANDIDATES = tuple(10.0 ** (-k) for k in range(1, 9))


@dataclass(frozen=True)
class LogisticSteady:
    """Vector-population equilibrium; v_b is None when none exists."""

    v_b: ScalarField | None
    lambda_beta: float

    @property
    def exists(self) -> bool:
        return self.v_b is not None


@dataclass(frozen=True)
class EndemicEquilibrium:
    h_i: ScalarField
    v_i: ScalarField
    v_u: ScalarField
    lambda_system: float
    eps: float
    iterations_upper: int
    iterations_lower: int
    residual: float
    # False when that monotone iteration hit its cap and Newton polish rescued it.
    converged_upper: bool
    converged_lower: bool


@dataclass(frozen=True)
class EndemicAbsent:
    """No positive equilibrium: the system eigenvalue is nonnegative."""

    lambda_system: float
    eps: float = 0.0


def solve_logistic(
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    *,
    scalar_eig: ScalarEigenpair | None = None,
) -> LogisticSteady:
    """Unique positive solution of -L2 V = beta V - mu V^2, or Absent.

    Plain Newton from the constant upper bound max(beta/mu), every step
    taken in full.  F(v) = -L2 v - beta v + mu v^2 is convex and its
    Jacobian is an M-matrix for v >= V_B, so the iterates decrease
    monotonically to V_B (Ortega & Rheinboldt 1970, sec. 13.3; C. V. Pao
    1992).  Newton stops at a sup residual of 1e-12 scale or once a step
    no longer lowers it.  ConvergenceError is raised for an iterate that
    loses positivity, for one that rises by more than 1e-10 max v while
    the residual is above its round-off floor, and at MAX_NEWTON steps
    (SingularSystemError for a Jacobian that is not definite).
    """
    if scalar_eig is None:
        scalar_eig = principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
    lam = scalar_eig.lam
    if lam >= 0:
        return LogisticSteady(None, lam)

    op = assemble(coeffs.d2, bc)
    beta = op.restrict(coeffs.beta)
    mu = op.restrict(coeffs.mu)
    v0 = float((coeffs.beta.values / coeffs.mu.values).max())
    v = np.full(op.m, v0)
    scale = 1.0 + float((beta * v).max())

    def residual(u):
        return op.matvec(u) - beta * u + mu * u * u

    def accept_tol(u):
        # Quadratic convergence bottoms out at the evaluation round-off of
        # -L v, which grows with the stencil: accept a stall below 1e-9
        # (1 + max v) or below the round-off floor of the Jacobian's |row| sums.
        floor = roundoff_floor(_stiffness(op, op.diag - beta + 2.0 * mu * u))
        return max(1e-12 * scale, 1e-9 * (1.0 + float(u.max())), floor * scale)

    r = residual(v)
    rn = float(np.abs(r).max())
    for _ in range(MAX_NEWTON):
        if rn <= 1e-12 * scale:
            break
        # -beta + 2 mu v may be negative, but v >= V_B keeps W F'(v) definite.
        trial = v + _factor(op, op.diag - beta + 2.0 * mu * v)(-r)
        # Once the residual is at round-off, so is the step, and it may rise.
        rise = float((trial - v).max())
        if rise > 1e-10 * float(v.max()) and rn > accept_tol(v):
            raise ConvergenceError(f"logistic Newton iterate rose by {rise:.3e}", residual=rn)
        if trial.min() <= 0:
            raise ConvergenceError("logistic Newton iterate lost positivity", residual=rn)
        r_trial = residual(trial)
        rn_trial = float(np.abs(r_trial).max())
        if rn_trial >= rn:
            break
        v, r, rn = trial, r_trial, rn_trial
    else:
        raise ConvergenceError(f"logistic Newton hit its cap of {MAX_NEWTON} steps", residual=rn)
    if rn > accept_tol(v):
        raise ConvergenceError("logistic Newton stalled above tolerance", residual=rn)
    return LogisticSteady(ScalarField(coeffs.mesh, op.embed(v)), lam)


def default_weight(
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    scalar_eig: ScalarEigenpair | None = None,
) -> ScalarField:
    """Perturbation weight: the (sup-normalized) principal eigenfunction of
    -L2 - beta for Dirichlet closures, the constant 1 otherwise."""
    if bc.kind == DIRICHLET:
        if scalar_eig is None:
            scalar_eig = principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
        return scalar_eig.phi
    return field_from_constant(coeffs.mesh, 1.0)


def check_eps_admissibility(
    coeffs: CoefficientSet,
    v_b: ScalarField,
    bc: BoundarySpec,
    eps: float,
    weight: ScalarField,
    lambda_beta: float,
) -> None:
    """Raise AdmissibilityError naming the first violated smallness condition.

    Neumann/Robin:  eps^2 mu < beta V_B      at every node;
    Dirichlet:      (eps phi)^2 mu < beta V_D + eps phi (lambda + beta)
                    at interior nodes,
    plus positivity V_B - |eps| weight > 0 in both cases: all on the
    active nodes, the interior for Dirichlet and every node otherwise.
    """
    if eps == 0.0:
        return
    sl = assemble(coeffs.d2, bc).sl
    vb, ew = v_b.values[sl], eps * weight.values[sl]
    low = float(np.min(vb - np.abs(ew)))
    if low <= 0:
        raise AdmissibilityError("V_B - |eps|*weight > 0", f"min over active nodes is {low:.3e}")
    mu, beta = coeffs.mu.values[sl], coeffs.beta.values[sl]
    if bc.kind == DIRICHLET:
        lhs = ew**2 * mu
        rhs = beta * vb + ew * (lambda_beta + beta)
        if np.any(lhs >= rhs):
            raise AdmissibilityError(
                "(eps*phi)^2 * mu < beta*V_B + eps*phi*(lambda_beta + beta)",
                f"worst margin {np.min(rhs - lhs):.3e}",
            )
    else:
        lhs = eps * eps * mu
        rhs = beta * vb
        if np.any(lhs >= rhs):
            raise AdmissibilityError(
                "eps^2 * mu < beta*V_B",
                f"worst margin {np.min(rhs - lhs):.3e}",
            )


def upper_solution_h(coeffs: CoefficientSet, v_b: ScalarField, bc: BoundarySpec) -> ScalarField:
    """Solve (-L1 + rho) H = sigma1 h_u V_B.

    Together with V_B this is an upper-solution pair of the infection
    system; solve_endemic takes the perturbed pair from its EndemicProblem.
    """
    op = assemble(coeffs.d1, bc)
    sl = op.sl
    s1hu = (coeffs.sigma1.values * coeffs.h_u.values)[sl]
    h_bar = _h_bar(op, coeffs.rho.values[sl], s1hu, v_b.values[sl])
    return ScalarField(coeffs.mesh, op.embed(h_bar))


def _h_bar(op1, rho: np.ndarray, s1hu: np.ndarray, v_plus: np.ndarray) -> np.ndarray:
    """H_bar on the active nodes of op1, given rho, sigma1 h_u and
    V_B + eps w there: the one solve behind upper_solution_h, the upper
    pair of solve_endemic and the default top of an upward monotone
    iteration."""
    return ShiftedSolve(op1, rho).solve_active(s1hu * v_plus)


@dataclass
class MonotoneIteration:
    h: ScalarField
    v: ScalarField
    sweeps: int
    converged: bool
    k_c: float  # max over nodes and sweeps of the K2 used
    final_change: float
    history: list[tuple[ScalarField, ScalarField]] | None = None


def monotone_iterate(
    problem: EndemicProblem,
    h0: ScalarField,
    v0: ScalarField,
    direction: str,
    *,
    h_top: ScalarField | None = None,
    keep_history: bool = False,
) -> MonotoneIteration:
    """Run Gauss-Seidel monotone sweeps from an upper ("down") or lower ("up") pair.

    The one-run call of the sweep kernel that solve_endemic runs its two
    iterations through in lockstep; a "down" run is the downward run of
    solve_endemic bit for bit.  The damping potentials are K1 = rho and
    K2 = problem.sweep_potential(h_top), each factored once, except that a
    "down" run re-damps K2 from its latest H after sweeps 1, 2, 4, 8, ...
    (see the module docstring; at most 13 times before the cap); in
    between, the sweeps allocate no array of the mesh's size but the
    history.
    h_top is the H component at the top of the order interval; by default
    the starting H for "down", and for "up" the H_bar solving
    (-L1 + rho) H_bar = sigma1 h_u (V_B + eps w).  An h_top below
    the starting H at any node raises ValidationError; one below later
    iterates voids the order guarantee, and only a sweep that moves the
    wrong way reveals it.  The starting pair is verified to satisfy the
    matching discrete inequalities; every sweep is checked to move nodewise
    in the declared direction, and one that moves the wrong way by more
    than a positive round-off tolerance (computed only for such a sweep)
    raises MonotonicityError.  Stops when the sweep-to-sweep sup change
    drops below SWEEP_TOL, or at the cap of MAX_SWEEPS sweeps.
    """
    if direction not in ("down", "up"):
        raise ValidationError(f"direction must be 'down' or 'up', got {direction!r}")
    h_start = problem.op1.restrict(h0)
    v_start = problem.op2.restrict(v0)
    is_valid = problem.is_upper if direction == "down" else problem.is_lower
    if not is_valid(h_start, v_start):
        raise ValidationError(
            f"starting pair is not a valid {'upper' if direction == 'down' else 'lower'} solution"
        )
    if h_top is not None:
        top = problem.op1.restrict(h_top)
        # A top below the start lets the first sweeps drop below the order
        # interval without ever moving the wrong way.
        gap = float((top - h_start).min())
        if gap < -1e-12 * (1.0 + float(np.abs(h_start).max())):
            raise ValidationError(f"h_top lies up to {-gap:.3e} below the starting H")
    elif direction == "down":
        top = h_start
    else:  # H_bar, the H of the upper-solution pair
        top = _h_bar(problem.op1, problem.rho, problem.s1hu, problem.v_plus)
    (run,) = _monotone_runs(problem, [(h_start, v_start, direction)], top, keep_history)
    return run


def _monotone_runs(problem: EndemicProblem, runs, top: np.ndarray, keep_history: bool):
    """The sweep kernel: the monotone runs (h0, v0, direction), given on the
    active nodes, swept in lockstep on one stacked state, with K2 first
    damped from top; a MonotoneIteration per run, in order.  Each start must
    be an upper ("down") or lower ("up") solution, checked by the caller.

    Every pass solves the H rows of all runs against one K1 factor and their
    V rows against one K2 factor.  The first "down" run, if any, leads the
    damping: after passes 1, 2, 4, 8, ... K2 is re-damped from its latest H,
    and once it retires from its limit; then no run leads.  Each run keeps
    its own direction check, change, cap and retirement, and a retired run
    leaves the state, which is re-laid for the runs still sweeping.
    """
    k1 = problem.rho
    solve1 = ShiftedSolve(problem.op1, k1)
    w = problem.op1.weights
    # The coefficient rows once per run, so that each ufunc call of a pass
    # works on flat arrays of one length: broadcasting costs more.
    node_coef = (w * problem.s1hu, w * problem.s2, w * problem.muv, problem.v_plus)
    coef = [np.tile(c, len(runs)) for c in node_coef]

    def damp(top):
        """K2 for the H top, W K2 once per run, K2's factor, and mono_coef
        and k_min of the wrong-way tolerance, the round-off floor of one
        sweep: evaluating the residual costs eps*stiffness*|u| and the sweep
        damps it by (M + K)^{-1} ~ 1/min K."""
        k2 = problem.sweep_potential(top)
        k_min = min(float(k1.min()), float(k2.min()))
        stiff = max(float(problem.op1.diag.max()), float(problem.op2.diag.max()))
        stiff += max(float(k1.max()), float(k2.max()))
        w_k2 = np.tile(w * k2, len(runs))
        return k2, w_k2, ShiftedSolve(problem.op2, k2), 256.0 * np.finfo(float).eps * stiff, k_min

    def lay(u):
        """The iterate u, a (2, R, m) array with component rows H and V of
        shape (R, m), and its successor, each as (u, H, V, H^T, V^T) with H
        and V flat; the difference d, the scratch row and the coefficients
        for the R runs."""
        cur, nxt = ((x, x[0].reshape(-1), x[1].reshape(-1), x[0].T, x[1].T) for x in (u, np.empty_like(u)))
        return cur, nxt, np.empty_like(u), np.empty(u[0].size), (c[: u[0].size] for c in coef)

    k2, w_k2, solve2, mono_coef, k_min = damp(top)
    down = [direction == "down" for *_, direction in runs]
    lead = down.index(True) if any(down) else None  # its index in the state
    k_c = [float(k2.max())] * len(runs)
    change = [np.inf] * len(runs)
    history = [[] if keep_history else None for _ in runs]
    done = [None] * len(runs)
    active = list(range(len(runs)))  # the runs still sweeping, in state order
    start = np.array([[h for h, _, _ in runs], [v for _, v, _ in runs]])
    cur, nxt, d, row, (s1hu, s2, muv, v_plus) = lay(start)
    w_k = w_k2[: row.size]  # W K2 for the runs in the state

    def result(r, i, converged):
        """Run r, at row i of the current iterate, as a MonotoneIteration."""
        u = cur[0]
        return MonotoneIteration(
            ScalarField(problem.mesh, problem.op1.embed(u[0, i])),
            ScalarField(problem.mesh, problem.op2.embed(u[1, i])),
            sweep if converged else MAX_SWEEPS,
            converged,
            k_c[r],
            change[r],
            history[r],
        )

    for sweep in range(1, MAX_SWEEPS + 1):
        u, h, v, _, _ = cur
        u_new, h_new, v_new, h_cols, v_cols = nxt
        # H half-sweep: f1 + K1 H = sigma1 h_u V, since K1 = rho.
        np.multiply(s1hu, v, out=h_new)
        solve1.solve_weighted(h_cols)
        # V half-sweep: f2(H_new, V) + K2 V, in the order of problem.reaction.
        np.subtract(v_plus, v, out=v_new)
        np.maximum(v_new, 0.0, out=v_new)
        np.multiply(s2, v_new, out=v_new)
        np.multiply(v_new, h_new, out=v_new)
        np.multiply(muv, v, out=row)
        np.subtract(v_new, row, out=v_new)
        np.multiply(w_k, v, out=row)
        np.add(v_new, row, out=v_new)
        solve2.solve_weighted(v_cols)
        np.subtract(u_new, u, out=d)
        # One min and one max per run: max(u - u_new) is exactly -d_lo.
        d_lo, d_hi = d.min(axis=(0, 2)).tolist(), d.max(axis=(0, 2)).tolist()
        retired = []
        for i, r in enumerate(active):
            # The tolerance is > 0, so a violation <= 0 passes.
            violation = d_hi[i] if down[r] else -d_lo[i]
            if not violation <= 0.0:
                u_scale = 1.0 + float(np.abs(u[:, i]).max())
                if violation > mono_coef * u_scale / k_min:
                    raise MonotonicityError(
                        f"sweep {sweep} moved {violation:.3e} against the declared direction "
                        f"(max K2={float(k2.max()):g})"
                    )
            change[r] = abs(max(d_hi[i], -d_lo[i]))  # abs(d).max(), never -0.0
            if change[r] < SWEEP_TOL:
                retired.append(i)
            if history[r] is not None:
                history[r].append(
                    (
                        ScalarField(problem.mesh, problem.op1.embed(u_new[0, i])),
                        ScalarField(problem.mesh, problem.op2.embed(u_new[1, i])),
                    )
                )
        cur, nxt = nxt, cur
        for i in retired:
            done[active[i]] = result(active[i], i, True)
        if len(retired) == len(active):
            break
        # The leader's latest H re-damps K2 after a power-of-2 pass, and its
        # limit once it retires.
        if lead is not None and (lead in retired or sweep & (sweep - 1) == 0):
            k2, w_k2, solve2, mono_coef, k_min = damp(u_new[0, lead])
            w_k = w_k2[: row.size]
            for r in active:  # a retired run's result already holds its k_c
                k_c[r] = max(k_c[r], float(k2.max()))
            lead = None if lead in retired else lead
        if retired:
            keep = [i for i in range(len(active)) if i not in retired]
            lead = None if lead is None else keep.index(lead)
            active = [active[i] for i in keep]
            cur, nxt, d, row, (s1hu, s2, muv, v_plus) = lay(u_new[:, keep])
            w_k = w_k2[: row.size]
    else:  # the cap
        for i, r in enumerate(active):
            done[r] = result(r, i, False)
    return done


def _newton_polish(problem: EndemicProblem, h: np.ndarray, v: np.ndarray, box: tuple):
    """Drive the coupled residual to (near) round-off from a good start.

    Newton stops at POLISH_TOL, after MAX_POLISH steps, or once a step no
    longer lowers the sup residual.  The line search halves down to 2^-20
    but stops at a clipped trial equal to the iterate: alpha is a power of
    two and rounding and clipping are monotone, so each shorter trial is
    that point too and is rejected.  From a residual at or below
    problem.roundoff(h, v) it tries the full step only, and a rejected full
    step ends the polish: below that floor a shorter step lowers the
    residual only by the luck of its rounding.  box = ((h_lo, v_lo),
    (h_hi, v_hi)) clamps the iterates into an order interval known to
    contain the target root; a strictly positive lower bound keeps Newton
    out of the basin of the zero solution.
    """
    (h_lo, v_lo), (h_hi, v_hi) = box
    r1, r2 = problem.residual(h, v)
    rn = float(max(np.abs(r1).max(), np.abs(r2).max()))
    m = problem.m
    for _ in range(MAX_POLISH):
        if rn <= POLISH_TOL:
            break
        delta = problem.jacobian(h, v)(-np.concatenate([r1, r2]))
        alpha = 1.0
        stop = 0.5 if rn <= problem.roundoff(h, v) else 2.0 ** -20  # 1 or 20 trials
        improved = False
        while alpha > stop:
            h_t = np.clip(h + alpha * delta[:m], h_lo, h_hi)
            v_t = np.clip(v + alpha * delta[m:], v_lo, v_hi)
            # This trial and every shorter one are the iterate: all rejected.
            if np.array_equal(h_t, h) and np.array_equal(v_t, v):
                break
            r1_t, r2_t = problem.residual(h_t, v_t)
            rn_t = float(max(np.abs(r1_t).max(), np.abs(r2_t).max()))
            if rn_t < rn:
                h, v, r1, r2, rn = h_t, v_t, r1_t, r2_t, rn_t
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return h, v, rn


def solve_endemic(
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    eps: float = 0.0,
    *,
    logistic: LogisticSteady | None = None,
    scalar_eig: ScalarEigenpair | None = None,
    eigenpair: SystemEigenpair | None = None,
) -> EndemicEquilibrium | EndemicAbsent:
    """Positive equilibrium of the perturbed infection system, or Absent.

    Absent exactly when the system principal eigenvalue is >= 0.  When it
    is negative the equilibrium is bracketed by a downward iteration from
    (H_bar, V_B + eps w) and an upward one from delta (phi1, phi2), swept
    in lockstep under one K2 that the downward run's latest H sets (see
    the module docstring).  Both polished limits must pass the residual
    gate max(RESIDUAL_TOL, 4 eps * stiffness * (1 + max |(H, V)|)), the
    larger of RESIDUAL_TOL and the round-off floor of the infection block,
    or ConvergenceError is raised; two roots must then agree within
    AGREEMENT_TOL (uniqueness), and their common value is returned.
    """
    if bc.kind == DIRICHLET and scalar_eig is None:
        scalar_eig = principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
    if logistic is None:
        logistic = solve_logistic(coeffs, bc, scalar_eig=scalar_eig)
    if not logistic.exists:
        raise ValidationError(
            "endemic solve requires a positive vector equilibrium (lambda_beta < 0); "
            f"got lambda_beta = {logistic.lambda_beta:g}"
        )
    v_b = logistic.v_b
    weight = default_weight(coeffs, bc, scalar_eig)
    check_eps_admissibility(coeffs, v_b, bc, eps, weight, logistic.lambda_beta)

    problem = None if eigenpair and eigenpair.lam >= 0 else EndemicProblem(coeffs, bc, v_b, eps, weight)
    if eigenpair is None:
        eigenpair = _system_eigenpair(problem)
    lam = eigenpair.lam
    if lam >= 0:
        return EndemicAbsent(lam, eps)

    mesh = problem.mesh
    # The upper-solution pair (H_bar, V_B + eps w).
    upper_h = _h_bar(problem.op1, problem.rho, problem.s1hu, problem.v_plus)
    upper_v = problem.v_plus
    phi1 = problem.op1.restrict(eigenpair.phi1)
    phi2 = problem.op2.restrict(eigenpair.phi2)
    for delta in DELTA_CANDIDATES:
        lh, lv = delta * phi1, delta * phi2
        fits = bool(
            np.all(lh <= upper_h * (1.0 + 1e-12)) and np.all(lv <= upper_v * (1.0 + 1e-12))
        )
        if fits and problem.is_lower(lh, lv):
            break
    else:
        raise ConvergenceError(
            "no amplitude in {1e-1..1e-8} makes delta*(phi1, phi2) an admissible lower solution"
        )

    if not problem.is_upper(upper_h, upper_v):
        raise ValidationError("starting pair is not a valid upper solution")
    # The downward run from the upper pair leads the shared damping: its H
    # tops every upward iterate (module docstring).  The delta search
    # checked the lower pair.
    down, up = _monotone_runs(problem, [(upper_h, upper_v, "down"), (lh, lv, "up")], upper_h, False)
    down_h = problem.op1.restrict(down.h)
    down_v = problem.op2.restrict(down.v)
    up_h = problem.op1.restrict(up.h)
    up_v = problem.op2.restrict(up.v)

    # Polish inside order intervals that bracket the positive root and
    # exclude zero, so Newton cannot drift to the trivial solution.
    hd, vd, rd = _newton_polish(problem, down_h, down_v, ((up_h, up_v), (upper_h, upper_v)))
    hu, vu_, ru = _newton_polish(
        problem, up_h, up_v, ((up_h, up_v), (np.maximum(down_h, hd), np.maximum(down_v, vd)))
    )
    res = max(rd, ru)
    # Evaluating -L u costs round-off that grows with the stencil.  Only
    # two limits that are both roots can speak against uniqueness.
    roots = res <= max(RESIDUAL_TOL, problem.roundoff(hd, vd))
    disagreement = max(float(np.abs(hd - hu).max()), float(np.abs(vd - vu_).max()))
    if not roots or disagreement > AGREEMENT_TOL:
        capped = [name for name, it in (("downward", down), ("upward", up)) if not it.converged]
        if capped:  # a cap hit, not evidence against uniqueness
            raise ConvergenceError(
                f"{capped[0]} monotone iteration hit its cap of {MAX_SWEEPS} sweeps; "
                f"polished limits disagree by {disagreement:.3e}"
            )
        if not roots:
            raise ConvergenceError("endemic equilibrium residual above tolerance", residual=res)
        raise UniquenessViolation(
            f"down/up limits disagree by {disagreement:.3e} (> {AGREEMENT_TOL:g}); "
            "this contradicts uniqueness of the positive equilibrium"
        )

    interior = mesh.interior
    h_full = problem.op1.embed(hd)
    v_full = problem.op2.embed(vd)
    if h_full[interior].min() <= 0 or v_full[interior].min() <= 0:
        raise ConvergenceError("endemic equilibrium lost interior positivity")
    if np.any(vd >= problem.v_plus):
        raise ConvergenceError("endemic V_i does not stay strictly below V_B + eps*weight")

    return EndemicEquilibrium(
        h_i=ScalarField(mesh, h_full),
        v_i=ScalarField(mesh, v_full),
        v_u=ScalarField(mesh, v_b.values - v_full),
        lambda_system=lam,
        eps=eps,
        iterations_upper=down.sweeps,
        iterations_lower=up.sweeps,
        residual=res,
        converged_upper=down.converged,
        converged_lower=up.converged,
    )
