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
solves factor copies of the infection block's band, laid out once per
EndemicProblem, as each pass of the endemic bracket does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, MeshMismatchError, ValidationError
from .grid import BoundarySpec, CoefficientSet, ScalarField, field_from_constant
from .operators import _band_stiffness, _block_band, _factor, _factor_band, _interleave, _stiffness, assemble

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
    The other methods take pairs interleaved as (h_0, v_0, h_1, v_1, ...),
    the order of the block's band, laid out once at zero infection, where
    the block is the system eigenproblem's cooperative operator:
    linear_matvec applies it, shifted(sigma) factors a copy of the band
    minus sigma I, and jacobian(u) a copy with its V rows rewritten.
    """

    def __init__(self, coeffs: CoefficientSet, bc: BoundarySpec, v_b: ScalarField,
                 eps: float = 0.0, weight: ScalarField | None = None):
        mesh = coeffs.mesh
        if v_b.mesh != mesh:
            raise MeshMismatchError("v_b must share the coefficient mesh")
        if weight is None:
            weight = field_from_constant(mesh, 1.0)
        if weight.mesh != mesh:
            raise MeshMismatchError("weight must share the coefficient mesh")
        self.mesh = mesh
        self.op1 = op1 = assemble(coeffs.d1, bc)
        self.op2 = op2 = assemble(coeffs.d2, bc)
        sl = op1.sl
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
        self.m = m = op1.m
        self._band = _block_band(op1, op2, op1.diag + self.rho, -self.s1hu, -self.s2v, op2.diag + self.muv)
        # |row| sums of the block at zero infection bound those of every
        # term of the residual on the order interval 0 <= V <= V_B + eps w.
        self.stiffness = _band_stiffness(self._band)
        self._floor = roundoff_floor(self.stiffness)
        # The diagonals of -L1 and -L2 interleaved (the off-diagonals are the
        # band's), and each row's coefficients of h and v in the block.
        self._stencil = _interleave(op1.diag, op2.diag), self._band[2, 2:].copy(), self._band[6, :-2].copy()
        self._of_h = _interleave(self.rho, -self.s2v).reshape(m, 2)
        self._of_v = _interleave(-self.s1hu, self.muv).reshape(m, 2)

    def reaction(self, h: np.ndarray, v: np.ndarray):
        f2 = self.s2 * np.maximum(self.v_plus - v, 0.0) * h - self.muv * v
        return -self.rho * h + self.s1hu * v, f2

    def _minus_l(self, u: np.ndarray) -> np.ndarray:
        """-L1 and -L2 on the interleaved u (or rows of a stack), in matvec's order."""
        diag, upper, lower = self._stencil
        out = diag * u
        out[..., :-2] += upper * u[..., 2:]
        out[..., 2:] += lower * u[..., :-2]
        return out

    def residual(self, u: np.ndarray) -> np.ndarray:
        """G(u) = -L u - f(u) at the interleaved pair u, or at each row of a
        stack of them: op.matvec less reaction, component by component."""
        g = self._minus_l(u)
        f1, f2 = self.reaction(u[..., 0::2], u[..., 1::2])
        g[..., 0::2] -= f1
        g[..., 1::2] -= f2
        return g

    def roundoff(self, u: np.ndarray) -> float:
        """The round-off floor of the residual at the pair u: roundoff_floor
        of the stiffness times the solution scale 1 + max |u|."""
        return self._floor * (1.0 + float(np.abs(u).max()))

    def _slack(self, u, r) -> float:
        return max(1e-8 * (1.0 + float(np.abs(r).max())), self.roundoff(u))

    def violation(self, u: np.ndarray, kind: str) -> str:
        """'' if the pair u is an upper (kind "upper") or a lower solution up
        to the slack, G(u) >= -slack or G(u) <= slack; else its worst
        residual, that residual's component and mesh node, and the slack."""
        r = self.residual(u)
        s, i = self._slack(u, r), int(np.argmin(r) if kind == "upper" else np.argmax(r))
        if (r[i] >= -s) if kind == "upper" else (r[i] <= s):
            return ""
        return f"residual {r[i]:.3e} in {'HV'[i % 2]} at node {i // 2 + self.op1.sl.start}, slack {s:.3e}"

    def sweep_potential(self, h_top: np.ndarray) -> np.ndarray:
        """Nodewise K2 = sigma2 h_top + mu (V_B - eps w) on active nodes.

        h_top bounds the H component over the order interval node by node;
        K2 then bounds -df2/dV there, which makes the V half-sweep
        order-preserving.  (K1 = rho needs no bound: f1 is linear in H.)
        """
        return self.s2 * h_top + self.muv

    def linear_matvec(self, z: np.ndarray) -> np.ndarray:
        """The block at zero infection on the interleaved z: stencil, h, v terms."""
        out = self._minus_l(z)
        hv, rows = z.reshape(self.m, 2), out.reshape(self.m, 2)
        rows += self._of_h * hv[:, :1]
        rows += self._of_v * hv[:, 1:]
        return out

    def shifted(self, sigma: float):
        """Factor of the block at zero infection minus sigma I (_factor_band)."""
        ab = self._band.copy(order="F")
        ab[4] -= sigma
        return _factor_band(ab)

    def jacobian(self, u: np.ndarray):
        """Factor of the residual's Jacobian at the pair u (_factor_band).  At
        the kink V = V_B + eps w of (V_B + eps w - V)^+ it is the left
        derivative, with sigma2 H on the V diagonal wherever V <= V_B + eps w:
        the one for which the residual's convexity inequality holds from
        above, where solve_endemic's upper pair starts."""
        h, v = u[0::2], u[1::2]
        ab = self._band.copy(order="F")
        ab[4, 1::2] = self.op2.diag + (self.muv + self.s2 * h * (v <= self.v_plus))
        ab[5, 0::2] = -self.s2 * np.maximum(self.v_plus - v, 0.0)
        return _factor_band(ab)


def principal_eigen_system(coeffs: CoefficientSet, v_b: ScalarField, bc: BoundarySpec,
                           eps: float = 0.0) -> SystemEigenpair:
    """Principal eigenpair of the coupled cooperative block system.

    The sign of the returned eigenvalue decides whether the infection can
    invade the vector equilibrium v_b; eps perturbs the coupling fields to
    sigma2 (V_B + eps) and mu (V_B - eps).
    """
    return _system_eigenpair(EndemicProblem(coeffs, bc, v_b, eps))


def _system_eigenpair(problem: EndemicProblem) -> SystemEigenpair:
    """principal_eigen_system of the block that problem linearizes at zero,
    on interleaved iterates.  The Rayleigh quotient's dots take them in the
    concatenated [h; v] order (order), whose sums fix lambda's bits."""
    m = problem.m
    order = np.arange(2 * m).reshape(m, 2).T.ravel()
    x, lam, *bracket = _noda(problem.linear_matvec, lambda a, b: np.dot(a[order], b[order]),
                             problem.shifted, 2 * m, problem.stiffness, "system")
    phi1, phi2 = problem.op1.embed(x[0::2]), problem.op2.embed(x[1::2])
    mesh = problem.mesh
    return SystemEigenpair(lam, ScalarField(mesh, phi1), ScalarField(mesh, phi2), *bracket)
