"""Principal eigenpairs of the scalar operator -L2 - beta and of the
coupled 2x2 cooperative system that linearizes the infection equations
at the infection-free state, and the infection block itself.

EndemicProblem is the one builder of that block: its residual is the
endemic equilibrium system, and its linearization at zero infection is
the operator whose principal eigenvalue is lambda_system.

Both solvers run shifted inverse power iteration.  The shift s = 1 + (max
zeroth-order coefficient) makes the shifted matrix an M-matrix, so its
inverse maps the positive cone strictly into itself; iterating it from the
all-ones vector converges to the eigenvalue of smallest real part together
with its positive eigenfunction, which is exactly the pair the threshold
theory is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, MeshMismatchError, ValidationError
from .grid import BoundarySpec, CoefficientSet, ScalarField, field_from_constant
from .operators import ShiftedSolve, _block_matrix, assemble

LAMBDA_TOL = 1e-12
RESIDUAL_TOL = 1e-10
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class ScalarEigenpair:
    """Principal eigenvalue and positive eigenfunction, sup-normalized to 1."""

    lam: float
    phi: ScalarField


@dataclass(frozen=True)
class SystemEigenpair:
    """Principal eigenvalue of the coupled system with componentwise-positive
    eigenfunction pair, jointly sup-normalized so max(phi1, phi2) = 1."""

    lam: float
    phi1: ScalarField
    phi2: ScalarField


def principal_eigen_scalar(
    d2: ScalarField,
    beta: ScalarField,
    bc: BoundarySpec,
) -> ScalarEigenpair:
    """Smallest eigenvalue of -L2 - beta with positive eigenfunction.

    The eigenvalue estimate is the Rayleigh quotient in the weighted inner
    product that symmetrizes -L2; iteration stops when consecutive
    estimates differ by less than LAMBDA_TOL and the eigen-residual drops
    below RESIDUAL_TOL.
    """
    if beta.mesh != d2.mesh:
        raise MeshMismatchError("beta and d2 must share a mesh")
    op = assemble(d2, bc)
    beta_a = op.restrict(beta)
    shift = 1.0 + float(beta.values.max())
    solver = ShiftedSolve(op, shift - beta.values)
    w = op.weights
    # Residual evaluation bottoms out at round-off proportional to the
    # stencil magnitude; don't demand more than float64 can represent.
    res_floor = 4.0 * np.finfo(float).eps * (float(op.diag.max()) + shift)
    res_tol = max(RESIDUAL_TOL, res_floor)

    v = np.ones(op.m)
    lam_prev = np.inf
    lam = np.inf
    residual = np.inf
    for _ in range(MAX_ITERATIONS):
        z = solver.solve_active(v)
        z /= z.max()
        az = op.matvec(z) - beta_a * z
        lam = float((w * z * az).sum() / (w * z * z).sum())
        residual = float(np.abs(az - lam * z).max())
        if abs(lam - lam_prev) < LAMBDA_TOL and residual < res_tol:
            phi = op.embed(z)
            return ScalarEigenpair(lam, ScalarField(op.mesh, phi / phi.max()))
        lam_prev = lam
        v = z
    raise ConvergenceError(
        "scalar principal eigenvalue iteration did not converge",
        residual=residual,
        iterations=MAX_ITERATIONS,
    )


class EndemicProblem:
    """The perturbed infection equilibrium system on active nodes.

        (-L1 + rho) H = sigma1 h_u V
        (-L2) V = sigma2 (V_B + eps w - V)^+ H - mu (V_B - eps w) V

    This is the only builder of the infection block.  reaction gives
    (f1, f2), the right-hand sides above without the -L terms;
    sweep_potential gives the nodewise damping K2 of the monotone sweeps.
    Linearized at zero infection, the block is the cooperative operator of
    the system eigenproblem: linear_matvec applies it, and
    jacobian(0, 0, shift=s) is its shifted sparse matrix.
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
        interior = mesh.interior
        if np.min(v_b.values[interior] - eps * weight.values[interior]) <= 0:
            raise ValidationError(
                "V_B - eps*weight must stay positive at interior nodes "
                "(perturbation too large)"
            )
        self.mesh = mesh
        self.op1 = assemble(coeffs.d1, bc)
        self.op2 = assemble(coeffs.d2, bc)
        sl = self.op1.sl
        self.rho = coeffs.rho.values[sl]
        self.s1hu = (coeffs.sigma1.values * coeffs.h_u.values)[sl]
        self.s2 = coeffs.sigma2.values[sl]
        self.v_plus = (v_b.values + eps * weight.values)[sl]
        self.s2v = self.s2 * self.v_plus  # sigma2 (V_B + eps w)
        self.muv = (coeffs.mu.values * (v_b.values - eps * weight.values))[sl]  # mu (V_B - eps w)
        self.m = self.op1.m

    def reaction(self, h: np.ndarray, v: np.ndarray):
        return -self.rho * h + self.s1hu * v, self.reaction_v(h, v)

    def reaction_v(self, h: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.s2 * np.maximum(self.v_plus - v, 0.0) * h - self.muv * v

    def residual(self, h: np.ndarray, v: np.ndarray):
        f1, f2 = self.reaction(h, v)
        return self.op1.matvec(h) - f1, self.op2.matvec(v) - f2

    def _slack(self, r1, r2) -> float:
        return 1e-8 * (1.0 + float(max(np.abs(r1).max(), np.abs(r2).max())))

    def is_upper(self, h: np.ndarray, v: np.ndarray) -> bool:
        r1, r2 = self.residual(h, v)
        s = self._slack(r1, r2)
        return bool(r1.min() >= -s and r2.min() >= -s)

    def is_lower(self, h: np.ndarray, v: np.ndarray) -> bool:
        r1, r2 = self.residual(h, v)
        s = self._slack(r1, r2)
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

    def shift(self) -> float:
        """1 + the largest zeroth-order entry of the linear block: adding it to
        both diagonals makes jacobian(0, 0) an M-matrix."""
        return 1.0 + max(
            float(self.rho.max()),
            float(self.s1hu.max()),
            float(self.s2v.max()),
            float(self.muv.max()),
        )

    def jacobian(self, h: np.ndarray, v: np.ndarray, shift: float = 0.0):
        """Sparse Jacobian of the residual at (h, v), plus shift on the diagonal."""
        gap = np.maximum(self.v_plus - v, 0.0)
        return _block_matrix(
            self.op1, self.op2,
            self.op1.diag + self.rho + shift, -self.s1hu, -self.s2 * gap,
            self.op2.diag + (self.muv + self.s2 * h * (gap > 0.0)) + shift,
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
    problem = EndemicProblem(coeffs, bc, v_b, eps, weight)
    s = problem.shift()
    lu = splu(problem.jacobian(0.0, 0.0, shift=s))
    m = problem.m
    stiff = max(float(problem.op1.diag.max()), float(problem.op2.diag.max())) + s
    res_tol = max(RESIDUAL_TOL, 4.0 * np.finfo(float).eps * stiff)

    v = np.ones(2 * m)
    lam_prev = np.inf
    lam = np.inf
    residual = np.inf
    for _ in range(MAX_ITERATIONS):
        z = lu.solve(v)
        z /= z.max()
        b1, b2 = problem.linear_matvec(z[:m], z[m:])
        bz = np.concatenate([b1, b2])
        lam = float(z @ bz / (z @ z))
        residual = float(np.abs(bz - lam * z).max())
        if abs(lam - lam_prev) < LAMBDA_TOL and residual < res_tol:
            phi1 = problem.op1.embed(z[:m])
            phi2 = problem.op2.embed(z[m:])
            scale = max(phi1.max(), phi2.max())
            return SystemEigenpair(
                lam,
                ScalarField(problem.mesh, phi1 / scale),
                ScalarField(problem.mesh, phi2 / scale),
            )
        lam_prev = lam
        v = z
    raise ConvergenceError(
        "system principal eigenvalue iteration did not converge",
        residual=residual,
        iterations=MAX_ITERATIONS,
    )
