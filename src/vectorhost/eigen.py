"""Principal eigenpairs of the scalar operator -L2 - beta and of the
coupled 2x2 cooperative system that linearizes the infection equations
at the infection-free state.

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
    *,
    lambda_tol: float = LAMBDA_TOL,
    residual_tol: float = RESIDUAL_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> ScalarEigenpair:
    """Smallest eigenvalue of -L2 - beta with positive eigenfunction.

    The eigenvalue estimate is the Rayleigh quotient in the weighted inner
    product that symmetrizes -L2; iteration stops when consecutive
    estimates differ by less than lambda_tol and the eigen-residual drops
    below residual_tol.
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
    res_tol = max(residual_tol, res_floor)

    v = np.ones(op.m)
    lam_prev = np.inf
    lam = np.inf
    residual = np.inf
    for _ in range(max_iterations):
        z = solver.solve_active(v)
        z /= z.max()
        az = op.matvec(z) - beta_a * z
        lam = float((w * z * az).sum() / (w * z * z).sum())
        residual = float(np.abs(az - lam * z).max())
        if abs(lam - lam_prev) < lambda_tol and residual < res_tol:
            phi = op.embed(z)
            return ScalarEigenpair(lam, ScalarField(op.mesh, phi / phi.max()))
        lam_prev = lam
        v = z
    raise ConvergenceError(
        "scalar principal eigenvalue iteration did not converge",
        residual=residual,
        iterations=max_iterations,
    )


def _system_diagonals(
    coeffs: CoefficientSet,
    v_b: ScalarField,
    eps: float,
    weight: ScalarField,
):
    """Zeroth-order fields of the coupled block operator.

    Rows (on active nodes):
        (-L1 + rho) p1 - sigma1 h_u p2
        -sigma2 (V_B + eps w) p1 + (-L2 + mu (V_B - eps w)) p2
    """
    a11 = coeffs.rho.values
    a12 = -coeffs.sigma1.values * coeffs.h_u.values
    a21 = -coeffs.sigma2.values * (v_b.values + eps * weight.values)
    a22 = coeffs.mu.values * (v_b.values - eps * weight.values)
    return a11, a12, a21, a22


class SystemOperator:
    """The 2x2 block operator acting on active-node value pairs."""

    def __init__(
        self,
        coeffs: CoefficientSet,
        v_b: ScalarField,
        bc: BoundarySpec,
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
        self.op1 = assemble(coeffs.d1, bc)
        self.op2 = assemble(coeffs.d2, bc)
        a11, a12, a21, a22 = _system_diagonals(coeffs, v_b, eps, weight)
        sl = self.op1.sl
        self.a11 = a11[sl]
        self.a12 = a12[sl]
        self.a21 = a21[sl]
        self.a22 = a22[sl]
        self.m = self.op1.m
        self.mesh = mesh

    def matvec(self, p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r1 = self.op1.matvec(p1) + self.a11 * p1 + self.a12 * p2
        r2 = self.a21 * p1 + self.op2.matvec(p2) + self.a22 * p2
        return r1, r2

    def shift(self) -> float:
        return 1.0 + max(
            float(self.a11.max()),
            float((-self.a12).max()),
            float((-self.a21).max()),
            float(self.a22.max()),
        )

    def shifted_sparse(self, s: float):
        return _block_matrix(
            self.op1, self.op2,
            self.op1.diag + self.a11 + s, self.a12, self.a21, self.op2.diag + self.a22 + s,
        )

    def dense(self) -> np.ndarray:
        """Dense block matrix (small-mesh oracle support)."""
        top = np.hstack([self.op1.matrix() + np.diag(self.a11), np.diag(self.a12)])
        bottom = np.hstack([np.diag(self.a21), self.op2.matrix() + np.diag(self.a22)])
        return np.vstack([top, bottom])


def principal_eigen_system(
    coeffs: CoefficientSet,
    v_b: ScalarField,
    bc: BoundarySpec,
    eps: float = 0.0,
    weight: ScalarField | None = None,
    *,
    lambda_tol: float = LAMBDA_TOL,
    residual_tol: float = RESIDUAL_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> SystemEigenpair:
    """Principal eigenpair of the coupled cooperative block system.

    The sign of the returned eigenvalue decides whether the infection can
    invade the vector equilibrium v_b; eps/weight perturb the coupling
    fields to sigma2 (V_B + eps w) and mu (V_B - eps w).
    """
    sys_op = SystemOperator(coeffs, v_b, bc, eps, weight)
    s = sys_op.shift()
    lu = splu(sys_op.shifted_sparse(s))
    m = sys_op.m
    stiff = max(float(sys_op.op1.diag.max()), float(sys_op.op2.diag.max())) + s
    res_tol = max(residual_tol, 4.0 * np.finfo(float).eps * stiff)

    v = np.ones(2 * m)
    lam_prev = np.inf
    lam = np.inf
    residual = np.inf
    for _ in range(max_iterations):
        z = lu.solve(v)
        z /= z.max()
        b1, b2 = sys_op.matvec(z[:m], z[m:])
        bz = np.concatenate([b1, b2])
        lam = float(z @ bz / (z @ z))
        residual = float(np.abs(bz - lam * z).max())
        if abs(lam - lam_prev) < lambda_tol and residual < res_tol:
            phi1 = sys_op.op1.embed(z[:m])
            phi2 = sys_op.op2.embed(z[m:])
            scale = max(phi1.max(), phi2.max())
            return SystemEigenpair(
                lam,
                ScalarField(sys_op.mesh, phi1 / scale),
                ScalarField(sys_op.mesh, phi2 / scale),
            )
        lam_prev = lam
        v = z
    raise ConvergenceError(
        "system principal eigenvalue iteration did not converge",
        residual=residual,
        iterations=max_iterations,
    )
