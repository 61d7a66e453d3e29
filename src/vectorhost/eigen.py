"""Principal eigenpairs of the scalar operator -L2 - beta and of the
coupled 2x2 cooperative system that linearizes the infection equations
at the infection-free state, and the infection block itself.

EndemicProblem is the one builder of that block: its residual is the
endemic equilibrium system, and its linearization at zero infection is
the operator whose principal eigenvalue is lambda_system.

Both eigenproblems run one safeguarded Noda iteration (T. Noda, Numer.
Math. 17, 1971).  For positive x, the ratios r = (A x) / x of an
irreducible Z-matrix A bracket its principal eigenvalue: min r <= lambda
<= max r (Collatz-Wielandt; R. S. Varga, Matrix Iterative Analysis, ch. 2).
Solving (A - min r) y = x keeps y positive and converges quadratically
(L. Elsner, Linear Algebra Appl. 15, 1976).  The reported eigenvalue is the
Rayleigh quotient, with the bracket of the final iterate.  A scalar shift
sigma < lambda leaves W(-L2 - beta - sigma) definite for the LDL^T factor
of every tridiagonal solve (operators._factor); the system's shifted
solves factor the infection block as one LAPACK band matrix
(operators._factor_block), as each pass of the endemic bracket does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MeshMismatchError, ValidationError
from .grid import BoundarySpec, CoefficientSet, ScalarField, field_from_constant
from .operators import _block_stiffness, _factor, _factor_block, _stiffness, assemble

LAMBDA_TOL = 1e-12
RESIDUAL_TOL = 1e-10
MAX_ITERATIONS = 10_000
REFACTOR_GAP = 1e-3
STALL_FLOORS = 16.0


def roundoff_floor(stiffness: float) -> float:
    """4 eps * stiffness: the least change or residual a stopping test can
    resolve on a sup-normalized iterate when |A| has row sums <= stiffness."""
    return 4.0 * np.finfo(float).eps * stiffness


@dataclass(frozen=True)
class ScalarEigenpair:
    """Principal eigenvalue and positive eigenfunction, sup-normalized to 1,
    with the bracket lam_lo <= lam <= lam_hi and the iteration count."""

    lam: float
    phi: ScalarField
    lam_lo: float
    lam_hi: float
    iterations: int


@dataclass(frozen=True)
class SystemEigenpair:
    """Principal eigenvalue of the coupled system with componentwise-positive
    eigenfunction pair, jointly sup-normalized so max(phi1, phi2) = 1, with
    the bracket lam_lo <= lam <= lam_hi and the iteration count."""

    lam: float
    phi1: ScalarField
    phi2: ScalarField
    lam_lo: float
    lam_hi: float
    iterations: int


def _noda(matvec, dot, factor, m: int, stiffness: float, what: str):
    """Principal eigenpair of the irreducible Z-matrix A applied by matvec,
    as (x, lam, lam_lo, lam_hi, iterations) with x > 0 and max x = 1.

    factor(sigma) returns a solver of (A - sigma I) y = x.  The shift is
    sigma = min(Ax/x) while the bracket is wider than REFACTOR_GAP relative; the
    last factorization, still below lambda, then runs inverse iteration.  A
    solve with an entry <= 0 or NaN proves A - sigma I is no nonsingular M-matrix.
    dot is the inner product of the Rayleigh quotient lam.  The loop stops on
    a closed bracket, or on the change in lam and the eigen-residual, with
    tolerances raised to the round-off floor of stiffness >= |A| row sums.
    Once lam has settled it also stops on a residual below STALL_FLOORS
    floors that no longer falls: on fine meshes the residual can stall just
    above the floor while the bracket stays open.
    """
    floor = roundoff_floor(stiffness)
    lam_tol, res_tol = max(LAMBDA_TOL, floor), max(RESIDUAL_TOL, floor)
    x = np.ones(m)
    solve = None
    lam_prev = res_prev = residual = np.inf
    for it in range(1, MAX_ITERATIONS + 1):
        ax = matvec(x)
        ratios = ax / x
        lo, hi = float(ratios.min()), float(ratios.max())
        lam = float(dot(x, ax) / dot(x, x))
        residual = float(np.abs(ax - lam * x).max())
        # lam is a weighted mean of the ratios, so the bracket bounds its
        # error and the residual; once closed, lo would be a singular shift.
        settled = abs(lam - lam_prev) < lam_tol
        stalled = residual < STALL_FLOORS * floor and residual >= res_prev
        if hi - lo < LAMBDA_TOL or (settled and (residual < res_tol or stalled)):
            return x, lam, lo, hi, it
        if solve is None or hi - lo > REFACTOR_GAP * (1.0 + abs(lo)):
            solve = factor(lo)
        y = solve(x)
        if not y.min() > 0:
            raise ConvergenceError(f"{what} eigen-iterate lost positivity", residual, it)
        x = y / y.max()
        lam_prev, res_prev = lam, residual
    raise ConvergenceError(f"{what} principal eigenvalue iteration did not converge", residual, it)


def principal_eigen_scalar(
    d2: ScalarField,
    beta: ScalarField,
    bc: BoundarySpec,
) -> ScalarEigenpair:
    """Smallest eigenvalue of -L2 - beta with positive eigenfunction; lam is
    the Rayleigh quotient in the weighted inner product that symmetrizes -L2."""
    if beta.mesh != d2.mesh:
        raise MeshMismatchError("beta and d2 must share a mesh")
    op = assemble(d2, bc)
    beta_a = op.restrict(beta)
    w = op.weights
    x, lam, *bracket = _noda(
        lambda z: op.matvec(z) - beta_a * z,
        lambda a, b: (w * a * b).sum(),
        lambda sigma: _factor(op, op.diag - beta_a - sigma),
        op.m,
        _stiffness(op, op.diag - beta_a),
        "scalar",
    )
    return ScalarEigenpair(lam, ScalarField(op.mesh, op.embed(x)), *bracket)


class EndemicProblem:
    """The perturbed infection equilibrium system on active nodes.

        (-L1 + rho) H = sigma1 h_u V
        (-L2) V = sigma2 (V_B + eps w - V)^+ H - mu (V_B - eps w) V

    This is the only builder of the infection block.  reaction gives
    (f1, f2), the right-hand sides above without the -L terms;
    sweep_potential gives the nodewise damping K2 of the monotone sweeps.
    Linearized at zero infection, the block is the cooperative operator of
    the system eigenproblem: linear_matvec applies it, and
    jacobian(0, 0, shift=-sigma) factors it minus sigma I as one band
    matrix; stiffness is its largest |row| sum.
    """

    def __init__(
        self,
        coeffs: CoefficientSet,
        bc: BoundarySpec,
        v_b: ScalarField,
        eps: float = 0.0,
        weight: ScalarField | None = None,
    ):
        mesh = coeffs.mesh
        if v_b.mesh != mesh:
            raise MeshMismatchError("v_b must share the coefficient mesh")
        if weight is None:
            weight = field_from_constant(mesh, 1.0)
        if weight.mesh != mesh:
            raise MeshMismatchError("weight must share the coefficient mesh")
        self.mesh = mesh
        self.op1 = assemble(coeffs.d1, bc)
        self.op2 = assemble(coeffs.d2, bc)
        sl = self.op1.sl
        vb, ew = v_b.values[sl], eps * weight.values[sl]
        # sigma2 (V_B + eps w) < 0 would make the block non-cooperative.
        if np.min(vb - ew) <= 0 or np.min(vb + ew) < 0:
            raise ValidationError(
                "V_B - eps*weight must stay positive and V_B + eps*weight nonnegative "
                "at active nodes (perturbation too large)"
            )
        self.rho = coeffs.rho.values[sl]
        self.s1hu = (coeffs.sigma1.values * coeffs.h_u.values)[sl]
        self.s2 = coeffs.sigma2.values[sl]
        self.v_plus = (v_b.values + eps * weight.values)[sl]
        self.s2v = self.s2 * self.v_plus  # sigma2 (V_B + eps w)
        self.muv = (coeffs.mu.values * (v_b.values - eps * weight.values))[sl]  # mu (V_B - eps w)
        self.m = self.op1.m
        # |row| sums of the block at zero infection bound those of every
        # term of the residual on the order interval 0 <= V <= V_B + eps w.
        self.stiffness = _block_stiffness(
            self.op1, self.op2, self.op1.diag + self.rho, self.s1hu, self.s2v, self.op2.diag + self.muv
        )

    def reaction(self, h: np.ndarray, v: np.ndarray):
        f2 = self.s2 * np.maximum(self.v_plus - v, 0.0) * h - self.muv * v
        return -self.rho * h + self.s1hu * v, f2

    def residual(self, h: np.ndarray, v: np.ndarray):
        f1, f2 = self.reaction(h, v)
        return self.op1.matvec(h) - f1, self.op2.matvec(v) - f2

    def roundoff(self, h: np.ndarray, v: np.ndarray) -> float:
        """The round-off floor of the residual at (h, v): roundoff_floor of
        the stiffness times the solution scale 1 + max |(h, v)|."""
        scale = 1.0 + max(float(np.abs(h).max()), float(np.abs(v).max()))
        return roundoff_floor(self.stiffness) * scale

    def _slack(self, h, v, r1, r2) -> float:
        r_max = float(max(np.abs(r1).max(), np.abs(r2).max()))
        return max(1e-8 * (1.0 + r_max), self.roundoff(h, v))

    def is_upper(self, h: np.ndarray, v: np.ndarray) -> bool:
        r1, r2 = self.residual(h, v)
        s = self._slack(h, v, r1, r2)
        return bool(r1.min() >= -s and r2.min() >= -s)

    def is_lower(self, h: np.ndarray, v: np.ndarray) -> bool:
        r1, r2 = self.residual(h, v)
        s = self._slack(h, v, r1, r2)
        return bool(r1.max() <= s and r2.max() <= s)

    def sweep_potential(self, h_top: np.ndarray) -> np.ndarray:
        """Nodewise K2 = sigma2 h_top + mu (V_B - eps w) on active nodes.

        h_top bounds the H component over the order interval node by node;
        K2 then bounds -df2/dV there, which makes the V half-sweep
        order-preserving.  (K1 = rho needs no bound: f1 is linear in H.)
        """
        return self.s2 * h_top + self.muv

    def linear_matvec(self, p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The block linearized at zero infection, applied to (p1, p2)."""
        r1 = self.op1.matvec(p1) + self.rho * p1 - self.s1hu * p2
        r2 = self.op2.matvec(p2) - self.s2v * p1 + self.muv * p2
        return r1, r2

    def jacobian(self, h: np.ndarray, v: np.ndarray, shift: float = 0.0):
        """Factor of the residual's Jacobian at (h, v) plus shift on the
        diagonal: solve(f) on concatenated [h; v] vectors.  At the kink
        V = V_B + eps w of (V_B + eps w - V)^+ it is the left derivative,
        with sigma2 H on the V diagonal wherever V <= V_B + eps w: the one
        for which the residual's convexity inequality holds from above,
        where solve_endemic's upper pair starts.  Noda calls it at zero
        infection, where both one-sided derivatives agree."""
        gap = np.maximum(self.v_plus - v, 0.0)
        return _factor_block(
            self.op1, self.op2,
            self.op1.diag + self.rho + shift, -self.s1hu, -self.s2 * gap,
            self.op2.diag + (self.muv + self.s2 * h * (v <= self.v_plus)) + shift,
        )


def principal_eigen_system(
    coeffs: CoefficientSet,
    v_b: ScalarField,
    bc: BoundarySpec,
    eps: float = 0.0,
    weight: ScalarField | None = None,
) -> SystemEigenpair:
    """Principal eigenpair of the coupled cooperative block system.

    The sign of the returned eigenvalue decides whether the infection can
    invade the vector equilibrium v_b; eps/weight perturb the coupling
    fields to sigma2 (V_B + eps w) and mu (V_B - eps w).
    """
    return _system_eigenpair(EndemicProblem(coeffs, bc, v_b, eps, weight))


def _system_eigenpair(problem: EndemicProblem) -> SystemEigenpair:
    """principal_eigen_system of the block that problem linearizes at zero."""
    m = problem.m
    x, lam, *bracket = _noda(
        lambda z: np.concatenate(problem.linear_matvec(z[:m], z[m:])),
        np.dot,
        lambda sigma: problem.jacobian(0.0, 0.0, shift=-sigma),
        2 * m,
        problem.stiffness,
        "system",
    )
    phi1, phi2 = problem.op1.embed(x[:m]), problem.op2.embed(x[m:])
    mesh = problem.mesh
    return SystemEigenpair(lam, ScalarField(mesh, phi1), ScalarField(mesh, phi2), *bracket)
