"""Nonlinear steady states of the model.

Three layers:

  * solve_logistic: the vector-population equilibrium V_B of
    -L2 V = beta V - mu V^2 (exists iff the scalar principal eigenvalue
    of -L2 - beta is negative), computed by plain Newton from the
    constant upper bound max(beta/mu);
  * solve_endemic: EndemicAbsent exactly when the system principal
    eigenvalue is >= 0 (the package's one disease-free verdict), else the
    infection equilibrium pair of the perturbed cooperative system,
    enclosed between an upper and a lower solution by monotone Newton;
    both limits of the enclosure must meet the residual gate before the
    two are held to the agreement tolerance;
  * monotone_iterate: Pao's monotone sweeps from an upper or a lower
    solution, usable standalone.

The bracket.  G(u) = -L u - f(u), u = (H, V), is EndemicProblem.residual.
With w = default_weight, on the order interval 0 <= V <= V_B + eps w its
Jacobian is isotone: dG2/dH = -sigma2 (V_B + eps w - V) rises with V and
dG2/dV = -L2 + sigma2 H + mu (V_B - eps w) rises with H.  So G is
order-convex, and its Jacobian at the positive root is a nonsingular
M-matrix.  From the upper pair x = (H_bar, V_B + eps w) and the lower
pair y = delta (phi1, phi2), delta half the largest amplitude that the
eigen bracket proves a lower solution (_lower_amplitude), each pass
factors G'(x) once and takes

    x <- x - G'(x)^{-1} G(x)      (Newton)
    y <- y - G'(x)^{-1} G(y)      (Newton-Fourier)

which keeps y_k <= y_{k+1} <= u* <= x_{k+1} <= x_k and closes the
enclosure quadratically (J. M. Ortega and W. C. Rheinboldt, Iterative
Solution of Nonlinear Equations in Several Variables, 1970, 13.3.4 and
13.3.7).  x starts on the kink V = V_B + eps w of the reaction, where
the convexity inequality needs the left derivative: EndemicProblem.jacobian
takes it.  Each pass checks what the theory promises, G(x) >= 0 and
G(y) <= 0 up to the slack of EndemicProblem.violation and y <= x up to
the round-off that G'(x)^{-1} carries from the residual, and raises
MonotonicityError where it fails.  The pairs are interleaved (h_0, v_0,
h_1, v_1, ...) from the start of the bracket to its split at the end, and
stacked as the two rows of one state: one residual call evaluates both,
and one dgbtrs call takes both steps as a two-column right-hand side.

Each monotone sweep is one block Gauss-Seidel step with nodewise damping
potentials (C. V. Pao, Numer. Math. 72, 1995, and 79, 1998):

    (-L1 + K1) H_new = f1(H_old, V_old) + K1 H_old
    (-L2 + K2) V_new = f2(H_new, V_old) + K2 V_old

K1 = rho is exact, because f1 is linear in H.  K2 = sigma2 h_top + mu
(V_B - eps w) bounds -df2/dV over the order interval, h_top the H at its
top, so f2 + K2 V is non-decreasing in V there; f2 is non-decreasing in
H (the system is cooperative), so taking V's reaction at the new H keeps
the sweep map order-preserving and the iterates nodewise monotone.  A
downward run's latest H tops the rest of the run, so after sweeps 1, 2,
4, 8, ... it re-damps with K2 from that H, which contracts faster (Pao
allows K to vary from sweep to sweep as long as it bounds -df2/dV on the
current order interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    ConvergenceError,
    MeshMismatchError,
    MonotonicityError,
    UniquenessViolation,
    ValidationError,
)
from .eigen import (
    EndemicProblem,
    ScalarEigenpair,
    SystemEigenpair,
    _system_eigenpair,
    default_weight,
    principal_eigen_scalar,
    roundoff_floor,
)
from .grid import BoundarySpec, CoefficientSet, ScalarField
from .operators import ShiftedSolve, _factor, _interleave, _stiffness, assemble

SWEEP_TOL = 1e-10
MAX_SWEEPS = 5000
AGREEMENT_TOL = 2e-8
RESIDUAL_TOL = 1e-8
MAX_NEWTON = 60


@dataclass(frozen=True)
class LogisticSteady:
    """Vector-population equilibrium, v_b None when none exists, and the
    eigenpair of -L2 - beta that decided it, whose phi is default_weight."""

    v_b: ScalarField | None
    eig: ScalarEigenpair

    @property
    def lambda_beta(self) -> float:
        return self.eig.lam

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
    passes: int
    # max(x - y) of the final enclosure y <= u* <= x: below the agreement
    # tolerance, and <= 0 where the two limits cross by round-off.
    bracket_width: float
    residual: float


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
    (SingularSystemError for a Jacobian that is not definite).  A
    scalar_eig handed in must live on coeffs.mesh (MeshMismatchError).
    """
    if scalar_eig is None:
        scalar_eig = principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
    elif scalar_eig.phi.mesh != coeffs.mesh:
        raise MeshMismatchError("scalar_eig must live on the coefficient mesh")
    if scalar_eig.lam >= 0:
        return LogisticSteady(None, scalar_eig)

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
    return LogisticSteady(ScalarField(coeffs.mesh, op.embed(v)), scalar_eig)


def check_eps_admissibility(
    coeffs: CoefficientSet,
    v_b: ScalarField,
    bc: BoundarySpec,
    eps: float,
    weight: ScalarField,
    lambda_beta: float,
) -> None:
    """Raise AdmissibilityError naming the first violated smallness condition.

    With weight = phi (default_weight), under every closure:
        positivity  V_B - |eps| phi > 0,
        smallness   (eps phi)^2 mu < beta V_B + eps phi (lambda_beta + beta),
    at every active node.  The smallness condition is the upper pair's
    (H_bar, V_B + eps phi) V residual being positive.
    """
    if eps == 0.0:
        return
    sl = assemble(coeffs.d2, bc).sl
    vb, ew = v_b.values[sl], eps * weight.values[sl]
    low = float(np.min(vb - np.abs(ew)))
    if low <= 0:
        raise AdmissibilityError("V_B - |eps|*weight > 0", f"min over active nodes is {low:.3e}")
    mu, beta = coeffs.mu.values[sl], coeffs.beta.values[sl]
    lhs = ew**2 * mu
    rhs = beta * vb + ew * (lambda_beta + beta)
    if np.any(lhs >= rhs):
        raise AdmissibilityError(
            "(eps*phi)^2 * mu < beta*V_B + eps*phi*(lambda_beta + beta)",
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

    Pao's constructive route to the equilibrium that solve_endemic brackets
    by Newton (see the module docstring).  The damping potentials are
    K1 = rho and K2 = problem.sweep_potential(h_top), each factored once,
    except that a "down" run re-damps K2 from its latest H after sweeps 1,
    2, 4, 8, ... (at most 13 times before the cap).
    h_top is the H component at the top of the order interval; by default
    the starting H for "down", and for "up" the H_bar solving
    (-L1 + rho) H_bar = sigma1 h_u (V_B + eps w).  h0, v0 and h_top must
    live on problem.mesh (MeshMismatchError).  An h_top below the starting
    H at any node raises ValidationError; one below later iterates voids
    the order guarantee, and only a sweep that moves the wrong way reveals
    it.  The starting pair is verified to satisfy the matching discrete
    inequalities; every sweep is checked to move nodewise in the declared
    direction, and one that moves the wrong way by more than the round-off
    floor of a sweep raises MonotonicityError.  Stops when the
    sweep-to-sweep sup change drops below SWEEP_TOL, or at the cap of
    MAX_SWEEPS sweeps.
    """
    if direction not in ("down", "up"):
        raise ValidationError(f"direction must be 'down' or 'up', got {direction!r}")
    if any(f is not None and f.mesh != problem.mesh for f in (h0, v0, h_top)):
        raise MeshMismatchError("h0, v0 and h_top must live on the problem's mesh")
    h, v = problem.op1.restrict(h0), problem.op2.restrict(v0)
    kind = "upper" if direction == "down" else "lower"
    if why := problem.violation(_interleave(h, v), kind):
        raise ValidationError(f"starting pair is not a valid {kind} solution: {why}")
    if h_top is not None:
        top = problem.op1.restrict(h_top)
        # A top below the start lets the first sweeps drop below the order
        # interval without ever moving the wrong way.
        gap = float((top - h).min())
        if gap < -1e-12 * (1.0 + float(np.abs(h).max())):
            raise ValidationError(f"h_top lies up to {-gap:.3e} below the starting H")
    elif direction == "down":
        top = h
    else:  # H_bar, the H of the upper-solution pair
        top = _h_bar(problem.op1, problem.rho, problem.s1hu, problem.v_plus)
    k1 = problem.rho
    solve1 = ShiftedSolve(problem.op1, k1)
    stiff = max(float(problem.op1.diag.max()), float(problem.op2.diag.max()))
    history = [] if keep_history else None
    k_c, change, converged = -np.inf, np.inf, False
    for sweep in range(1, MAX_SWEEPS + 1):
        if sweep == 1 or (direction == "down" and (sweep - 1) & (sweep - 2) == 0):
            # Re-damp after sweeps 1, 2, 4, 8, ...: a "down" run's latest H
            # tops the rest of the run.  The wrong-way tolerance is the
            # round-off floor of one sweep: evaluating the residual costs
            # eps*stiffness*|u| and the sweep damps it by (M + K)^{-1} ~ 1/min K.
            k2 = problem.sweep_potential(top if sweep == 1 else h)
            solve2 = ShiftedSolve(problem.op2, k2)
            k_c = max(k_c, float(k2.max()))
            k_min = min(float(k1.min()), float(k2.min()))
            mono_coef = 256.0 * np.finfo(float).eps * (stiff + max(float(k1.max()), float(k2.max())))
        h_new = solve1.solve_active(problem.s1hu * v)  # f1 + K1 H, as K1 = rho
        v_new = solve2.solve_active(problem.reaction(h_new, v)[1] + k2 * v)
        dh, dv = h_new - h, v_new - v
        if direction == "down":
            violation = max(float(dh.max()), float(dv.max()))
        else:
            violation = max(float(-dh.min()), float(-dv.min()))
        u_scale = 1.0 + max(float(np.abs(h).max()), float(np.abs(v).max()))
        if violation > mono_coef * u_scale / k_min:
            raise MonotonicityError(
                f"sweep {sweep} moved {violation:.3e} against the declared direction "
                f"(max K2={float(k2.max()):g})"
            )
        change = max(float(np.abs(dh).max()), float(np.abs(dv).max()))
        h, v = h_new, v_new
        if history is not None:
            history.append((ScalarField(problem.mesh, problem.op1.embed(h)),
                            ScalarField(problem.mesh, problem.op2.embed(v))))
        converged = change < SWEEP_TOL
        if converged:
            break
    return MonotoneIteration(
        ScalarField(problem.mesh, problem.op1.embed(h)),
        ScalarField(problem.mesh, problem.op2.embed(v)),
        sweep if converged else MAX_SWEEPS,
        converged,
        k_c,
        change,
        history,
    )


def _bracket(problem: EndemicProblem, x: np.ndarray, y: np.ndarray):
    """Close the enclosure y <= u* <= x of the positive root by monotone
    Newton (module docstring), from an upper pair x and a lower pair y
    below it, each interleaved on the active nodes.

    Returns (x, y, passes, width, residual): the final pairs, the number of
    passes (block factors), the width max(x - y) and the larger sup
    residual of the two.  Stops once the width is <= 1e-13 (1 + max |x|),
    or after a pass that moved neither pair.  An upper pair with a residual
    below -slack, a lower pair with one above slack or a lower pair above
    the upper by more than the round-off roundoff(x) * max(G'(x)^{-1} 1),
    taken only for such an overlap, raises MonotonicityError; MAX_NEWTON
    passes raise ConvergenceError.
    """
    pairs = np.stack([x, y])
    still = False
    for passes in range(MAX_NEWTON + 1):
        g = problem.residual(pairs)
        (x, y), (gx, gy) = pairs, g
        low, high = float(gx.min()), float(gy.max())
        if low < 0.0 and low < -problem._slack(x, gx):
            raise MonotonicityError(f"bracket pass {passes}: the upper pair has a residual of {low:.3e}")
        if high > 0.0 and high > problem._slack(y, gy):
            raise MonotonicityError(f"bracket pass {passes}: the lower pair has a residual of {high:.3e}")
        width = float((x - y).max())
        if still or width <= 1e-13 * (1.0 + float(np.abs(x).max())):
            return x, y, passes, width, float(np.abs(g).max())
        if passes == MAX_NEWTON:
            raise ConvergenceError(
                f"endemic bracket hit its cap of {MAX_NEWTON} passes at width {width:.3e}",
                residual=float(np.abs(g).max()),
            )
        solve = problem.jacobian(x)
        new = pairs - solve(g.T).T
        overlap = float((new[1] - new[0]).max())
        if overlap > 0.0:
            # G'(x) is an M-matrix, so G'(x)^{-1} 1 >= 0 gives its sup norm.
            tol = problem.roundoff(new[0]) * float(solve(np.ones(x.size)).max())
            if overlap > tol:
                raise MonotonicityError(
                    f"bracket pass {passes + 1}: the lower pair tops the upper by {overlap:.3e}"
                )
        still = np.array_equal(new, pairs)
        pairs = new


def _lower_amplitude(problem: EndemicProblem, lam_hi: float, upper: np.ndarray, phi: np.ndarray) -> float:
    """The first amplitude delta of the lower pair delta phi, phi the
    interleaved eigen pair with A phi <= lam_hi phi, A the block at zero
    infection (Collatz-Wielandt).

    While delta phi2 <= V_B + eps w, G(delta phi) = delta A phi + [0;
    sigma2 delta^2 phi1 phi2] <= delta phi (lam_hi + [0; sigma2 delta phi1]),
    so for lam_hi < 0 delta phi is a lower solution for every delta <=
    -lam_hi / max(sigma2 phi1).  Returns half the smaller of that bound and
    min(upper / phi), or 0.1 when lam_hi >= 0 proves nothing.
    """
    if lam_hi >= 0:
        return 0.1
    coupling = float((problem.s2 * phi[0::2]).max())
    proven = -lam_hi / coupling if coupling > 0 else np.inf
    return 0.5 * min(proven, float((upper / phi).min()))


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

    Absent exactly when the system principal eigenvalue is >= 0.  eps != 0
    perturbs by w = default_weight, logistic.eig.phi, after
    check_eps_admissibility; scalar_eig only reaches solve_logistic, when
    logistic is not given.  A logistic.v_b or eigenpair off coeffs.mesh
    raises MeshMismatchError.  When the eigenvalue is negative the
    equilibrium is enclosed by monotone Newton from the upper pair
    (H_bar, V_B + eps w) and Newton-Fourier from the lower pair
    delta (phi1, phi2), the largest delta in delta0 10^-k, k = 0..7, that
    gives a lower solution below the upper pair, delta0 from the eigen
    bracket lam_hi (_lower_amplitude; see the module docstring and
    _bracket).  The bracket runs on the eigenpair's own block when that was
    built from these coeffs, bc and logistic.v_b at this eps.  Both limits
    must pass the residual gate, the larger of RESIDUAL_TOL and the
    round-off floor 4 eps * stiffness * (1 + max |(H, V)|) of the infection
    block, or ConvergenceError is raised; the two roots must then agree
    within AGREEMENT_TOL (uniqueness), and the upper one is returned.
    """
    if logistic is None:
        logistic = solve_logistic(coeffs, bc, scalar_eig=scalar_eig)
    if not logistic.exists:
        raise ValidationError(
            "endemic solve requires a positive vector equilibrium (lambda_beta < 0); "
            f"got lambda_beta = {logistic.lambda_beta:g}"
        )
    v_b = logistic.v_b
    if v_b.mesh != coeffs.mesh or (eigenpair is not None and eigenpair.phi1.mesh != coeffs.mesh):
        raise MeshMismatchError("logistic.v_b and eigenpair must live on the coefficient mesh")
    weight = logistic.eig.phi if eps else None  # default_weight; eps = 0 leaves w out
    check_eps_admissibility(coeffs, v_b, bc, eps, weight, logistic.lambda_beta)

    if eigenpair is None:
        eigenpair = _system_eigenpair(EndemicProblem(coeffs, bc, v_b, eps, weight))
    lam = eigenpair.lam
    if lam >= 0:
        return EndemicAbsent(lam, eps)
    problem = eigenpair.problem
    if problem is None or not problem.built_from(coeffs, bc, v_b, eps, weight):
        problem = EndemicProblem(coeffs, bc, v_b, eps, weight)

    mesh = problem.mesh
    # The upper-solution pair (H_bar, V_B + eps w) and (phi1, phi2), interleaved.
    upper = _interleave(_h_bar(problem.op1, problem.rho, problem.s1hu, problem.v_plus), problem.v_plus)
    phi = _interleave(problem.op1.restrict(eigenpair.phi1), problem.op2.restrict(eigenpair.phi2))
    top = _lower_amplitude(problem, eigenpair.lam_hi, upper, phi)
    for k in range(8):
        lower = top / 10.0**k * phi
        if np.all(lower <= upper * (1.0 + 1e-12)) and not problem.violation(lower, "lower"):
            break
    else:
        raise ConvergenceError(
            f"no amplitude in {top:.3e} * 10^-(0..7) makes delta*(phi1, phi2) an admissible lower solution"
        )

    if why := problem.violation(upper, "upper"):
        raise ValidationError(f"starting pair is not a valid upper solution: {why}")
    # The delta search checked the lower pair.
    x, y, passes, width, res = _bracket(problem, upper, lower)
    hd, vd = x[0::2], x[1::2]
    # Evaluating -L u costs round-off that grows with the stencil.  Only
    # two limits that are both roots can speak against uniqueness.
    if res > max(RESIDUAL_TOL, problem.roundoff(x)):
        raise ConvergenceError("endemic equilibrium residual above tolerance", residual=res)
    disagreement = float(np.abs(x - y).max())
    if disagreement > AGREEMENT_TOL:
        raise UniquenessViolation(
            f"upper/lower limits disagree by {disagreement:.3e} (> {AGREEMENT_TOL:g}); "
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
        passes=passes,
        bracket_width=width,
        residual=res,
    )
