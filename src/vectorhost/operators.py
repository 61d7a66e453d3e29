"""Discrete divergence-form operators L = d/dx (d(x) d/dx) on a 1D mesh.

The second-order finite-volume stencil is

    (L u)_j = [d_{j+1/2} (u_{j+1} - u_j) - d_{j-1/2} (u_j - u_{j-1})] / h^2

with face coefficients d_{j+1/2} = (d_j + d_{j+1}) / 2.  Boundary closures:

  * Neumann: ghost-node reflection, so the wall row of -L becomes
    2 d_{1/2} (u_0 - u_1) / h^2 (row sums vanish, constants in the kernel);
  * Robin (db u/dnu + b u = 0): same ghost convention plus 2 b d_{1/2} / h
    on the wall diagonal, with b sampled only at the two endpoints;
  * Dirichlet: boundary unknowns eliminated (u = 0 there); solves return
    fields re-embedded with explicit zeros.

Shifted systems (-L + c) are LU-factored once by LAPACK dgttrf and solved by
dgttrs, into a fresh array or in place; dgtsv, which pivots the same way,
gives bit-identical solutions.

The 2m x 2m infection block [[T1, D12], [D21, T2]] (two tridiagonal blocks
coupled through diagonals) is a band matrix with two sub- and two
super-diagonals once its unknowns are interleaved as (h_0, v_0, h_1, v_1,
...): it is LU-factored once by LAPACK dgbtrf and solved by dgbtrs, on
right-hand sides given and returned in the concatenated [h; v] order.

The matrix of -L is symmetric for Dirichlet and symmetrizable for
Neumann/Robin under the nodal inner product with half-weights at the
endpoints; it is positive semidefinite (definite unless pure Neumann or
Robin with b = 0 on both ends).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs

from .errors import SingularSystemError, ValidationError
from .grid import DIRICHLET, ROBIN, BoundarySpec, ScalarField


class EllipticOperator:
    """Tridiagonal representation of -L under a boundary closure.

    Attributes
    ----------
    mesh, bc : the discretized geometry and closure
    sl       : slice of "active" nodes (all nodes, or the interior for Dirichlet)
    m        : number of active nodes
    lower, diag, upper : the three diagonals of -L on active nodes
    weights  : inner-product weights that symmetrize -L (half at Neumann/Robin walls)
    """

    def __init__(self, d: ScalarField, bc: BoundarySpec):
        dv = d.values
        if dv.min() <= 0:
            raise ValidationError("diffusion coefficient must be strictly positive")
        mesh = d.mesh
        n = mesh.n
        h = mesh.h
        h2 = h * h
        d_face = 0.5 * (dv[:-1] + dv[1:])

        self.mesh = mesh
        self.bc = bc

        if bc.kind == DIRICHLET:
            m = n - 2
            self.sl = mesh.interior
            diag = (d_face[:-1] + d_face[1:]) / h2
            lower = -d_face[1:-1] / h2
            upper = -d_face[1:-1] / h2
            weights = np.ones(m)
        else:
            m = n
            self.sl = slice(0, n)
            diag = np.empty(n)
            lower = np.empty(n - 1)
            upper = np.empty(n - 1)
            diag[1:-1] = (d_face[:-1] + d_face[1:]) / h2
            lower[:-1] = -d_face[:-1] / h2
            upper[1:] = -d_face[1:] / h2
            # Ghost-node closures at the two walls.
            bl, br = bc.robin_b if bc.kind == ROBIN else (0.0, 0.0)
            diag[0] = 2.0 * d_face[0] / h2 + 2.0 * bl * d_face[0] / h
            upper[0] = -2.0 * d_face[0] / h2
            diag[-1] = 2.0 * d_face[-1] / h2 + 2.0 * br * d_face[-1] / h
            lower[-1] = -2.0 * d_face[-1] / h2
            weights = np.ones(n)
            weights[0] = weights[-1] = 0.5

        for arr in (lower, diag, upper, weights):
            arr.setflags(write=False)
        self.m = m
        self.lower = lower
        self.diag = diag
        self.upper = upper
        self.weights = weights

    @property
    def has_constant_kernel(self) -> bool:
        """True when constants solve -L u = 0 (pure Neumann, or Robin with b = 0)."""
        if self.bc.kind == DIRICHLET:
            return False
        if self.bc.kind == ROBIN:
            return self.bc.robin_b == (0.0, 0.0)
        return True

    def matvec(self, u_active: np.ndarray) -> np.ndarray:
        """(-L u) on active nodes, treating u as zero outside them."""
        out = self.diag * u_active
        out[:-1] += self.upper * u_active[1:]
        out[1:] += self.lower * u_active[:-1]
        return out

    def matrix(self) -> np.ndarray:
        """Dense m x m matrix of -L on active nodes (for small-mesh oracles)."""
        a = np.diag(self.diag)
        a += np.diag(self.upper, 1)
        a += np.diag(self.lower, -1)
        return a

    def embed(self, active_values: np.ndarray) -> np.ndarray:
        """Re-embed active-node values into a full-length array (zeros at Dirichlet walls)."""
        if self.bc.kind != DIRICHLET:
            return np.array(active_values, dtype=float)
        full = np.zeros(self.mesh.n)
        full[self.sl] = active_values
        return full

    def restrict(self, full_values) -> np.ndarray:
        vals = full_values.values if isinstance(full_values, ScalarField) else np.asarray(full_values, dtype=float)
        return np.array(vals[self.sl], dtype=float)


def assemble(d: ScalarField, bc: BoundarySpec) -> EllipticOperator:
    """Assemble -L = -div(d grad) under the given boundary closure."""
    return EllipticOperator(d, bc)


def _factor(lower, diag, upper):
    """LU-factor the tridiagonal matrix (lower, diag, upper) once (dgttrf) and
    return solve(f, overwrite_f=False): one dgttrs call on the read-only
    factors.  By default it leaves f untouched and may run concurrently
    with other solves; with overwrite_f=True it writes the solution into f,
    a contiguous float64 array, and returns f itself."""
    n = diag.size
    pad = np.zeros(max(0, 3 - n))  # scipy's wrappers need n >= 3: add decoupled unit rows
    if pad.size:
        lower, diag, upper = np.append(lower, pad), np.append(diag, 1.0 + pad), np.append(upper, pad)
    # dgttrf copies its inputs (overwrite_* defaults to False).
    *lu, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise SingularSystemError(f"tridiagonal system is singular: zero pivot in row {info}")
    for a in lu:
        a.setflags(write=False)

    def solve(f, overwrite_f=False):
        b = np.append(f, pad) if pad.size else f
        x, info = dgttrs(*lu, b, overwrite_b=overwrite_f or b is not f)
        if info != 0:
            raise ValueError(f"dgttrs rejected argument {-info}")
        if not overwrite_f:
            return x[:n] if pad.size else x
        if b is not f:
            f[:] = x[:n]
        elif x is not f:
            raise RuntimeError("dgttrs solved into a copy of the array it was to overwrite")
        return f

    return solve


def _block_stiffness(op1, op2, diag1, off12, off21, diag2) -> float:
    """The largest |row| sum of the block that _factor_block factors."""
    rows = np.abs([diag1, diag2]) + np.abs([off12, off21])
    rows[:, :-1] += np.abs([op1.upper, op2.upper])
    rows[:, 1:] += np.abs([op1.lower, op2.lower])
    return float(rows.max())


def _factor_block(op1, op2, diag1, off12, off21, diag2):
    """LU-factor the 2m x 2m block [[T1, diag(off12)], [diag(off21), T2]],
    where Tk has opk's off-diagonals and main diagonal diagk, once (dgbtrf)
    and return solve(f) for the concatenated f = [h; v]: one dgbtrs call on
    a preallocated interleaved copy of f, which leaves f untouched.  The
    copy is shared, so the solves of one factor must not run concurrently."""
    m = diag1.size
    # In the order (h_0, v_0, h_1, v_1, ...) the block has kl = ku = 2.
    # Entry (r, c) sits at row 4 + r - c of column c of the band array;
    # rows 0 and 1 are dgbtrf's room for fill-in.
    # ab[:, i, 0] is column h_i and ab[:, i, 1] column v_i of the band array,
    # laid out in Fortran order so that dgbtrf factors it in place.
    ab_f = np.zeros((m, 2, 7))
    ab = ab_f.transpose(2, 0, 1)
    ab[2, 1:, 0], ab[2, 1:, 1] = op1.upper, op2.upper
    ab[3, :, 1] = off12
    ab[4, :, 0], ab[4, :, 1] = diag1, diag2
    ab[5, :, 0] = off21
    ab[6, :-1, 0], ab[6, :-1, 1] = op1.lower, op2.lower
    lu, piv, info = dgbtrf(ab_f.reshape(2 * m, 7).T, 2, 2, overwrite_ab=True)
    if info != 0:
        raise SingularSystemError(f"block system is singular: zero pivot in row {info}")
    buf = np.empty((m, 2))

    def solve(f):
        buf[:, 0] = f[:m]
        buf[:, 1] = f[m:]
        x, info = dgbtrs(lu, 2, 2, buf.reshape(2 * m), piv, overwrite_b=True)
        if info != 0:
            raise ValueError(f"dgbtrs rejected argument {-info}")
        return x.reshape(m, 2).T.flatten()

    return solve


class ShiftedSolve:
    """Reusable solver for (-L + c) u = f with c >= 0.

    Given equal-length sequences of operators and potentials instead, it
    solves their block-diagonal system: the (-L_k + c_k) on their active
    nodes, joined in order with zero coupling, so f and u are the
    concatenated active parts.  With zero off-diagonals at the joins
    dgttrf neither pivots nor eliminates across blocks, and each block
    solves bit-identically to its own ShiftedSolve.

    The system is LU-factored once, here (dgttrf); each solve is one dgttrs
    call on the read-only factors, leaves its input untouched and may run
    concurrently.  The exception is solve_active(f, overwrite_f=True),
    which writes the solution into f (a contiguous float64 array, such as
    one row of a C-ordered 2-D array) and returns f itself, so a loop of
    solves allocates nothing.  solve (single-operator form) checks that f
    is finite; solve_active does not.
    """

    def __init__(self, op, c):
        ops, cs = (op, c) if isinstance(op, (list, tuple)) else ((op,), (c,))
        join = np.zeros(1)
        lower, diag, upper = [], [], []
        for o, cv in zip(ops, cs, strict=True):
            diag.append(o.diag + _potential(o, cv))
            lower += [o.lower, join]
            upper += [o.upper, join]
        self.op = op
        self._solve = _factor(
            np.concatenate(lower[:-1]), np.concatenate(diag), np.concatenate(upper[:-1])
        )

    def solve_active(self, f_active: np.ndarray, overwrite_f: bool = False) -> np.ndarray:
        return self._solve(f_active, overwrite_f)

    def solve(self, f) -> np.ndarray:
        """Solve from full-length right-hand side, return full-length values."""
        f_active = self.op.restrict(f)
        if not np.isfinite(f_active).all():
            raise ValidationError("right-hand side must be finite")
        return self.op.embed(self.solve_active(f_active))


def _potential(op: EllipticOperator, c) -> np.ndarray:
    """The potential c on op's active nodes, checked finite and nonnegative
    and not identically zero when constants span the kernel of -L."""
    cv = c.values if isinstance(c, ScalarField) else np.asarray(c, dtype=float)
    if cv.ndim == 0:
        c_active = cv  # added to the diagonal as a scalar, bit for bit a constant array
    elif cv.shape[0] == op.mesh.n:
        c_active = cv[op.sl]
    elif cv.shape[0] == op.m:
        c_active = cv
    else:
        raise ValidationError("potential length matches neither the mesh nor the active nodes")
    if not (np.isfinite(c_active).all() and c_active.min() >= 0):
        raise ValidationError("potential c must be finite and nonnegative")
    if op.has_constant_kernel and c_active.max() == 0.0:
        raise SingularSystemError(
            "(-L + c) is singular: Neumann closure with c identically zero "
            "(constants span the kernel)"
        )
    return c_active


def solve(op: EllipticOperator, c: ScalarField, f: ScalarField) -> ScalarField:
    """Solve (-L + c) u = f; u is returned with Dirichlet zeros re-embedded.

    With f >= 0 nontrivial and c >= 0 the discrete maximum principle makes
    the solution strictly positive at interior nodes.
    """
    return ScalarField(op.mesh, ShiftedSolve(op, c).solve(f))
