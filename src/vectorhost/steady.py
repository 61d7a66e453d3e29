"""Nonlinear steady states of the model.

Three layers:

  * solve_logistic: the vector-population equilibrium V_B of
    -L2 V = beta V - mu V^2 (exists iff the scalar principal eigenvalue
    of -L2 - beta is negative), computed by damped Newton from the
    constant upper bound max(beta/mu) with a parabolic-relaxation
    fallback;
  * solve_endemic: the infection equilibrium pair of the perturbed
    cooperative system, constructed the classical way — a downward
    monotone iteration from an explicit upper-solution pair and an
    upward one from a small multiple of the principal eigenfunction —
    then polished by Newton so both limits meet the tight residual and
    agreement tolerances;
  * monotone_iterate: the sweep engine itself, usable standalone.

Each monotone sweep is one block Gauss-Seidel step with nodewise damping
potentials (C. V. Pao, Numer. Math. 72, 1995, and 79, 1998):

    (-L1 + K1) H_new = f1(H_old, V_old) + K1 H_old
    (-L2 + K2) V_new = f2(H_new, V_old) + K2 V_old

K1 = rho is exact, because f1 = -rho H + sigma1 h_u V is linear in H.
K2 = sigma2 h_top + mu (V_B - eps w) bounds -df2/dV over the order
interval, where h_top is the H component at its top, so f2 + K2 V is
non-decreasing in V there.  f2 is non-decreasing in H (the system is
cooperative), so taking V's reaction at the new H keeps the sweep map
order-preserving and the iterates nodewise monotone.

The sweeps run on a stacked state: the iterate and its successor are two
(2, m) arrays with rows (H, V), allocated once per run with the two
factorizations.  Each half-sweep builds its right-hand side by ufunc calls
into a row of the successor and solves it there in place (one dgttrs
call); the direction check, the scale and the change are each one max or
min over both rows.  Max and min are exact, and the arithmetic keeps the
per-component order, so the iterates are those of separate H and V
arrays bit for bit.
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
    principal_eigen_scalar,
    principal_eigen_system,
    roundoff_floor,
)
from .grid import DIRICHLET, BoundarySpec, CoefficientSet, ScalarField, field_from_constant
from .operators import ShiftedSolve, _factor, assemble, solve

SWEEP_TOL = 1e-10
MAX_SWEEPS = 5000
AGREEMENT_TOL = 2e-8
RESIDUAL_TOL = 1e-8
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
    """No positive equilibrium (nonnegative system eigenvalue, or decoupled input)."""

    lambda_system: float
    eps: float = 0.0
    decoupled: bool = False


def solve_logistic(
    coeffs: CoefficientSet,
    bc: BoundarySpec,
    *,
    scalar_eig: ScalarEigenpair | None = None,
    residual_tol: float = 1e-12,
    max_newton: int = 60,
) -> LogisticSteady:
    """Unique positive solution of -L2 V = beta V - mu V^2, or Absent.

    Newton starts at the constant upper bound max(beta/mu); steps are
    damped until the residual decreases and the iterate stays positive.
    If Newton stalls the iterate is relaxed by integrating the parabolic
    equation for a while, then Newton resumes.
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

    history = []
    for attempt in range(3):
        r = residual(v)
        rn = float(np.abs(r).max())
        for _ in range(max_newton):
            if rn <= residual_tol * scale:
                break
            # The shift -beta + 2 mu v may be negative: no ShiftedSolve here.
            delta = _factor(op.lower, op.diag - beta + 2.0 * mu * v, op.upper)(-r)
            alpha = 1.0
            accepted = False
            while alpha > 2.0 ** -30:
                trial = v + alpha * delta
                if trial.min() > 0:
                    r_trial = residual(trial)
                    rn_trial = float(np.abs(r_trial).max())
                    if rn_trial < rn:
                        v, r, rn = trial, r_trial, rn_trial
                        accepted = True
                        break
                alpha *= 0.5
            history.append(rn)
            if not accepted:
                break
        # Quadratic convergence bottoms out at the evaluation round-off of
        # -L v, which grows with the stencil: accept a stall below 1e-9
        # (1 + max v) or below the round-off floor of the Jacobian's |row| sums.
        stiffness = float(
            np.abs(op.diag - beta + 2.0 * mu * v).max()
            + np.abs(op.lower).max()
            + np.abs(op.upper).max()
        )
        stall_tol = max(1e-9 * (1.0 + float(v.max())), roundoff_floor(stiffness) * scale)
        if rn <= residual_tol * scale or rn <= stall_tol:
            return LogisticSteady(ScalarField(coeffs.mesh, op.embed(v)), lam)
        # Relax toward the attractor before retrying Newton.
        from . import dynamics

        v_hat = dynamics.v_hat_bound(coeffs, float(v.max()))
        dt = 0.5 / dynamics.reaction_bound(coeffs, v_hat)
        cfg = dynamics.StepperConfig(dt=dt, t_end=50.0 * (attempt + 1), steady_tol=1e-13)
        traj = dynamics.integrate_scalar_logistic(
            ScalarField(coeffs.mesh, op.embed(v)), coeffs, bc, cfg
        )
        v = op.restrict(traj.final)
    raise ConvergenceError(
        f"logistic Newton failed to converge; residual history {history[-5:]}",
        residual=history[-1] if history else None,
    )


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
    plus positivity V_B - |eps| weight > 0 on the interior in both cases.
    """
    if eps == 0.0:
        return
    mesh = coeffs.mesh
    interior = mesh.interior
    ew = eps * weight.values
    if np.min(v_b.values[interior] - np.abs(ew[interior])) <= 0:
        raise AdmissibilityError(
            "V_B - |eps|*weight > 0",
            f"min over interior nodes is {np.min(v_b.values[interior] - np.abs(ew[interior])):.3e}",
        )
    mu = coeffs.mu.values
    beta = coeffs.beta.values
    if bc.kind == DIRICHLET:
        lhs = ew[interior] ** 2 * mu[interior]
        rhs = beta[interior] * v_b.values[interior] + ew[interior] * (lambda_beta + beta[interior])
        if np.any(lhs >= rhs):
            raise AdmissibilityError(
                "(eps*phi)^2 * mu < beta*V_B + eps*phi*(lambda_beta + beta)",
                f"worst margin {np.min(rhs - lhs):.3e}",
            )
    else:
        lhs = eps * eps * mu
        rhs = beta * v_b.values
        if np.any(lhs >= rhs):
            raise AdmissibilityError(
                "eps^2 * mu < beta*V_B",
                f"worst margin {np.min(rhs - lhs):.3e}",
            )


def upper_solution_h(
    coeffs: CoefficientSet,
    v_b: ScalarField,
    bc: BoundarySpec,
    eps: float = 0.0,
    weight: ScalarField | None = None,
) -> ScalarField:
    """Solve (-L1 + rho) H = sigma1 h_u (V_B + eps weight).

    Together with V_B + eps*weight this is an upper-solution pair of the
    perturbed infection system.
    """
    if weight is None:
        weight = field_from_constant(coeffs.mesh, 1.0)
    if np.min(v_b.values + eps * weight.values) < 0:
        raise ValidationError("V_B + eps*weight must be nonnegative")
    op = assemble(coeffs.d1, bc)
    rhs = ScalarField(
        coeffs.mesh,
        coeffs.sigma1.values * coeffs.h_u.values * (v_b.values + eps * weight.values),
    )
    return solve(op, coeffs.rho, rhs)


@dataclass
class MonotoneIteration:
    h: ScalarField
    v: ScalarField
    sweeps: int
    converged: bool
    k_c: float  # max over nodes of the K2 used (after any doubling)
    final_change: float
    history: list[tuple[ScalarField, ScalarField]] | None = None


def monotone_iterate(
    problem: EndemicProblem,
    h0: ScalarField,
    v0: ScalarField,
    direction: str,
    *,
    h_top: ScalarField | None = None,
    sweep_tol: float = SWEEP_TOL,
    max_sweeps: int = MAX_SWEEPS,
    check_start: bool = True,
    keep_history: bool = False,
    stop_below_sup: float | None = None,
) -> MonotoneIteration:
    """Run Gauss-Seidel monotone sweeps from an upper ("down") or lower ("up") pair.

    The damping potentials are K1 = rho and K2 = problem.sweep_potential(h_top),
    each factored once; the sweeps then allocate nothing but the history.
    h_top is the H component at the top of the order interval; by default
    the starting H for "down", and for "up" the H_bar solving
    (-L1 + rho) H_bar = sigma1 h_u (V_B + eps w).  An h_top below
    the starting H at any node raises ValidationError; one below later
    iterates voids the order guarantee, and only a sweep that moves the
    wrong way reveals it.  The starting pair is verified to satisfy the
    matching discrete inequalities; every sweep is checked to move nodewise
    in the declared direction (a violation doubles both potentials once and
    restarts, then fails).  Stops when the sweep-to-sweep sup change drops
    below sweep_tol, when both components fall below stop_below_sup
    (collapse runs), or at the sweep cap.
    """
    if direction not in ("down", "up"):
        raise ValidationError(f"direction must be 'down' or 'up', got {direction!r}")
    h_start = problem.op1.restrict(h0)
    v_start = problem.op2.restrict(v0)
    if check_start:
        ok = problem.is_upper(h_start, v_start) if direction == "down" else problem.is_lower(h_start, v_start)
        if not ok:
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
        top = ShiftedSolve(problem.op1, problem.rho).solve_active(
            problem.s1hu * problem.v_plus
        )
    k2_base = problem.sweep_potential(top)

    def run(scale: float) -> MonotoneIteration:
        k1 = scale * problem.rho
        k2 = scale * k2_base
        solve1 = ShiftedSolve(problem.op1, k1)
        solve2 = ShiftedSolve(problem.op2, k2)
        k1_extra = k1 - problem.rho  # f1 + K1 H = sigma1 h_u V + (K1 - rho) H
        # Round-off floor of one sweep: evaluating the residual costs
        # eps*stiffness*|u| and the sweep damps it by (M + K)^{-1} ~ 1/min K.
        k_min = min(float(k1.min()), float(k2.min()))
        stiff = max(float(problem.op1.diag.max()), float(problem.op2.diag.max()))
        stiff += max(float(k1.max()), float(k2.max()))
        mono_coef = 256.0 * np.finfo(float).eps * stiff
        # u and its successor u_new hold rows (H, V) and swap after each
        # sweep; d and row are scratch (see the module docstring).
        u = np.stack([h_start, v_start])
        u_new = np.empty_like(u)
        cur, nxt = (u, *u), (u_new, *u_new)
        d = np.empty_like(u)
        row = np.empty(problem.m)
        s1hu, s2, v_plus, muv = problem.s1hu, problem.s2, problem.v_plus, problem.muv
        history = [] if keep_history else None
        change = np.inf
        converged = False
        for sweep in range(1, max_sweeps + 1):
            u, h, v = cur
            u_new, h_new, v_new = nxt
            # H half-sweep: sigma1 h_u V + (K1 - rho) H.
            np.multiply(s1hu, v, out=h_new)
            np.multiply(k1_extra, h, out=row)
            np.add(h_new, row, out=h_new)
            solve1.solve_active(h_new, True)
            # V half-sweep: f2(H_new, V) + K2 V, in the order of problem.reaction.
            np.subtract(v_plus, v, out=v_new)
            np.maximum(v_new, 0.0, out=v_new)
            np.multiply(s2, v_new, out=v_new)
            np.multiply(v_new, h_new, out=v_new)
            np.multiply(muv, v, out=row)
            np.subtract(v_new, row, out=v_new)
            np.multiply(k2, v, out=row)
            np.add(v_new, row, out=v_new)
            solve2.solve_active(v_new, True)
            u_scale = 1.0 + float(np.abs(u, out=d).max())
            mono_tol = mono_coef * u_scale / k_min
            np.subtract(u_new, u, out=d)
            # u - u_new is exactly -(u_new - u)
            violation = float(d.max()) if direction == "down" else float(-d.min())
            if violation > mono_tol:
                raise MonotonicityError(
                    f"sweep {sweep} moved {violation:.3e} against the declared direction "
                    f"(max K2={float(k2.max()):g})"
                )
            change = float(np.abs(d, out=d).max())
            cur, nxt = nxt, cur
            if history is not None:
                history.append(
                    (
                        ScalarField(problem.mesh, problem.op1.embed(h_new)),
                        ScalarField(problem.mesh, problem.op2.embed(v_new)),
                    )
                )
            collapsed = (
                stop_below_sup is not None and float(u_new.max(initial=0.0)) < stop_below_sup
            )
            converged = change < sweep_tol or collapsed
            if converged:
                break
        _, h, v = cur
        return MonotoneIteration(
            ScalarField(problem.mesh, problem.op1.embed(h)),
            ScalarField(problem.mesh, problem.op2.embed(v)),
            sweep if converged else max_sweeps,
            converged,
            float(k2.max()),
            change,
            history,
        )

    try:
        return run(1.0)
    except MonotonicityError:
        # h_top too low for this order interval; one doubling is allowed.
        return run(2.0)


def _newton_polish(
    problem: EndemicProblem,
    h: np.ndarray,
    v: np.ndarray,
    *,
    box: tuple | None = None,
    tol: float = 1e-12,
    max_iter: int = 40,
):
    """Drive the coupled residual to (near) round-off from a good start.

    Newton stops at tol or once a step no longer lowers the sup residual.
    box = ((h_lo, v_lo), (h_hi, v_hi)) clamps the iterates into an order
    interval known to contain the target root; a strictly positive lower
    bound keeps Newton out of the basin of the zero solution.
    """
    r1, r2 = problem.residual(h, v)
    rn = float(max(np.abs(r1).max(), np.abs(r2).max()))
    m = problem.m
    for _ in range(max_iter):
        if rn <= tol:
            break
        delta = problem.jacobian(h, v)(-np.concatenate([r1, r2]))
        alpha = 1.0
        improved = False
        while alpha > 2.0 ** -20:
            h_t = h + alpha * delta[:m]
            v_t = v + alpha * delta[m:]
            if box is not None:
                (h_lo, v_lo), (h_hi, v_hi) = box
                h_t = np.clip(h_t, h_lo, h_hi)
                v_t = np.clip(v_t, v_lo, v_hi)
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
    sweep_tol: float = SWEEP_TOL,
    max_sweeps: int = MAX_SWEEPS,
    agreement_tol: float = AGREEMENT_TOL,
    residual_tol: float = RESIDUAL_TOL,
) -> EndemicEquilibrium | EndemicAbsent:
    """Positive equilibrium of the perturbed infection system, or Absent.

    Absent exactly when the system principal eigenvalue is >= 0.  When it
    is negative the equilibrium is bracketed by a downward iteration from
    (H_bar, V_B + eps w) and an upward one from delta (phi1, phi2); the
    two polished limits must agree within agreement_tol (uniqueness), and
    their common value is returned.  The residual gate on that value is
    max(residual_tol, 4 eps * stiffness * (1 + max |(H, V)|)), the larger
    of residual_tol and the round-off floor of the infection block.
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

    if float(coeffs.h_u.values.max()) <= 0.0:
        # Decoupled input: the infection block cannot be sourced at all.
        neg_rho = ScalarField(coeffs.mesh, -coeffs.rho.values)
        neg_muv = ScalarField(coeffs.mesh, -coeffs.mu.values * v_b.values)
        lam1 = principal_eigen_scalar(coeffs.d1, neg_rho, bc).lam
        lam2 = principal_eigen_scalar(coeffs.d2, neg_muv, bc).lam
        return EndemicAbsent(min(lam1, lam2), eps, decoupled=True)

    if eigenpair is None:
        eigenpair = principal_eigen_system(coeffs, v_b, bc, eps, weight)
    lam = eigenpair.lam
    if lam >= 0:
        return EndemicAbsent(lam, eps)

    problem = EndemicProblem(coeffs, bc, v_b, eps, weight)
    h_bar = upper_solution_h(coeffs, v_b, bc, eps, weight)
    v_up = ScalarField(coeffs.mesh, v_b.values + eps * weight.values)

    upper_h = problem.op1.restrict(h_bar)
    upper_v = problem.op2.restrict(v_up)
    phi1 = problem.op1.restrict(eigenpair.phi1)
    phi2 = problem.op2.restrict(eigenpair.phi2)
    delta = None
    for cand in DELTA_CANDIDATES:
        lh, lv = cand * phi1, cand * phi2
        fits = bool(
            np.all(lh <= upper_h * (1.0 + 1e-12)) and np.all(lv <= upper_v * (1.0 + 1e-12))
        )
        if fits and problem.is_lower(lh, lv):
            delta = cand
            break
    if delta is None:
        raise ConvergenceError(
            "no amplitude in {1e-1..1e-8} makes delta*(phi1, phi2) an admissible lower solution"
        )

    down = monotone_iterate(
        problem, h_bar, v_up, "down", sweep_tol=sweep_tol, max_sweeps=max_sweeps
    )
    down_h = problem.op1.restrict(down.h)
    down_v = problem.op2.restrict(down.v)
    # The upward iterates stay below the minimal solution, hence below the
    # downward limit, which is a much lower top of their order interval
    # than H_bar: a smaller K2 and a far better contraction rate.
    lo_h = ScalarField(coeffs.mesh, problem.op1.embed(delta * phi1))
    lo_v = ScalarField(coeffs.mesh, problem.op2.embed(delta * phi2))
    up = monotone_iterate(
        problem, lo_h, lo_v, "up", h_top=down.h, sweep_tol=sweep_tol, max_sweeps=max_sweeps
    )
    up_h = problem.op1.restrict(up.h)
    up_v = problem.op2.restrict(up.v)

    # Polish inside order intervals that bracket the positive root and
    # exclude zero, so Newton cannot drift to the trivial solution.
    hd, vd, rd = _newton_polish(
        problem, down_h, down_v, box=((up_h, up_v), (upper_h, upper_v))
    )
    hu, vu_, ru = _newton_polish(
        problem, up_h, up_v, box=((up_h, up_v), (np.maximum(down_h, hd), np.maximum(down_v, vd)))
    )
    disagreement = max(float(np.abs(hd - hu).max()), float(np.abs(vd - vu_).max()))
    if disagreement > agreement_tol:
        capped = [name for name, it in (("downward", down), ("upward", up)) if not it.converged]
        if capped:  # a cap hit, not evidence against uniqueness
            raise ConvergenceError(
                f"{capped[0]} monotone iteration hit its cap of {max_sweeps} sweeps; "
                f"polished limits disagree by {disagreement:.3e}"
            )
        raise UniquenessViolation(
            f"down/up limits disagree by {disagreement:.3e} (> {agreement_tol:g}); "
            "this contradicts uniqueness of the positive equilibrium"
        )
    res = max(rd, ru)
    # Evaluating -L u costs round-off that grows with the stencil.
    if res > max(residual_tol, problem.roundoff(hd, vd)):
        raise ConvergenceError("endemic equilibrium residual above tolerance", residual=res)

    interior = coeffs.mesh.interior
    h_full = problem.op1.embed(hd)
    v_full = problem.op2.embed(vd)
    if h_full[interior].min() <= 0 or v_full[interior].min() <= 0:
        raise ConvergenceError("endemic equilibrium lost interior positivity")
    ceiling = v_b.values + eps * weight.values
    if np.any(v_full[interior] >= ceiling[interior]):
        raise ConvergenceError("endemic V_i does not stay strictly below V_B + eps*weight")

    return EndemicEquilibrium(
        h_i=ScalarField(coeffs.mesh, h_full),
        v_i=ScalarField(coeffs.mesh, v_full),
        v_u=ScalarField(coeffs.mesh, v_b.values - v_full),
        lambda_system=lam,
        eps=eps,
        iterations_upper=down.sweeps,
        iterations_lower=up.sweeps,
        residual=res,
        converged_upper=down.converged,
        converged_lower=up.converged,
    )
