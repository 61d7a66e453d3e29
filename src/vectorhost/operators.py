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

The matrix of -L is symmetric for Dirichlet and symmetrizable for
Neumann/Robin: with W the nodal weights (1/2 at Neumann/Robin walls), W(-L)
is symmetric positive semidefinite (definite unless pure Neumann or Robin
with b = 0 on both ends).  So the shifted systems (-L + c) u = f are
solved as W(-L + c) u = W f: LDL^T-factored once without pivoting (LAPACK
dpttrf), then one dpttrs call per solve.  Where c is negative in places
(the scalar eigensolver's shifts, logistic Newton) W(-L + c) must still be
definite: a pivot that is not positive raises SingularSystemError.

The 2m x 2m infection block [[T1, D12], [D21, T2]] (two tridiagonal blocks
coupled through diagonals) is a band matrix with two sub- and two
super-diagonals once its unknowns are interleaved as (h_0, v_0, h_1, v_1,
...): _block_band lays it out as a LAPACK band array, _factor_band
LU-factors it (dgbtrf) and solves by one dgbtrs call per interleaved
right-hand side, a vector or a block of columns.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpttrf, dpttrs

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
    unit_weights : True when every weight is 1 (Dirichlet), so W f = f
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
        self.unit_weights = bc.kind == DIRICHLET

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


def _factor(op, diag):
    """ShiftedSolve's solve_active for T u = f, T the tridiagonal matrix with
    op's off-diagonals and main diagonal diag: -L plus a shift of either sign,
    which skips __init__'s checks on c but must leave W T positive definite."""
    w = None if op.unit_weights else op.weights
    return ShiftedSolve.__new__(ShiftedSolve)._ldlt(w, diag, op.upper).solve_active


def _stiffness(op, diag) -> float:
    """max |diag| + max |lower| + max |upper|, a bound on the |row| sums of the
    matrix _factor(op, diag) factors; with one active node there are no off-diagonals."""
    off = [np.abs(x).max(initial=0.0) for x in (op.lower, op.upper)]
    return float(np.abs(diag).max() + off[0] + off[1])


def _interleave(a, b) -> np.ndarray:
    """(a_0, b_0, a_1, b_1, ...), the order of the infection block's band."""
    out = np.empty(2 * len(a))
    out[0::2], out[1::2] = a, b
    return out


def _block_band(op1, op2, diag1, off12, off21, diag2) -> np.ndarray:
    """The block [[T1, diag(off12)], [diag(off21), T2]], Tk with opk's
    off-diagonals and main diagonal diagk, as dgbtrf's Fortran-ordered 7 x 2m
    band array in the interleaved order (kl = ku = 2): entry (r, c) sits at
    row 4 + r - c of column c; rows 0 and 1 are room for fill-in."""
    ab = np.zeros((7, 2 * diag1.size), order="F")
    ab[2, 2:] = _interleave(op1.upper, op2.upper)
    ab[3, 1::2] = off12
    ab[4] = _interleave(diag1, diag2)
    ab[5, 0::2] = off21
    ab[6, :-2] = _interleave(op1.lower, op2.lower)
    return ab


def _band_stiffness(ab) -> float:
    """The largest |row| sum of the block with band array ab: row r's entries
    sit at ab[k, r + 4 - k], summed as diagonal, coupling, upper and lower."""
    a = np.zeros((7, ab.shape[1] + 4))
    a[:, 2:-2] = np.abs(ab)
    return float((a[4, 2:-2] + a[3, 3:-1] + a[5, 1:-3] + a[2, 4:] + a[6, :-4]).max())


def _factor_band(ab):
    """LU-factor the band array ab in place (dgbtrf; a zero pivot raises
    SingularSystemError) and return solve(b): one dgbtrs call on the
    interleaved b, a vector or 2m x k columns, into a fresh array (b untouched)."""
    lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=True)
    if info != 0:
        raise SingularSystemError(f"block system is singular: zero pivot in row {info}")

    def solve(b):
        x, info = dgbtrs(lu, 2, 2, b, piv)
        if info != 0:
            raise ValueError(f"dgbtrs rejected argument {-info}")
        return x

    return solve


class ShiftedSolve:
    """Reusable solver for (-L + c) u = f with c >= 0.

    Given a sequence of operators and an equal-length 1-D array of constant
    potentials instead, it solves their block-diagonal system: the
    (-L_k + c_k) on their active nodes, joined in order with zero coupling,
    so f and u are the concatenated active parts.  The constants are
    checked together, as one potential is.  At a zero coupling dpttrf's
    multiplier 0/D and dpttrs's b - 0*x are exact, so each block solves
    bit-identically to its own ShiftedSolve.

    S = W(-L + c), W the operators' weights, is LDL^T-factored once, here
    (dpttrf; a nonpositive pivot raises SingularSystemError), and each solve
    is one dpttrs call for S u = W f on the read-only factors.  The bare
    solve_weighted(b) takes b = W f, already weighted, and writes u into b
    (a contiguous float64 array, such as one row of a C-ordered 2-D array,
    or an F-ordered block of columns, each solved as its own row would be),
    so a loop of solves allocates nothing: the stepping core builds W f
    itself, from W-scaled coefficients.
    solve_active(f) returns u in a fresh array, W f, and leaves f untouched.
    Solves into different arrays may run concurrently.  solve
    (single-operator form), not solve_active, checks f finite.
    """

    def __init__(self, op, c):
        if isinstance(op, (list, tuple)):
            ops, cs = op, np.asarray(c, dtype=float)
            _check_potential(cs, any(o.has_constant_kernel and cv == 0.0 for o, cv in zip(ops, cs)))
        else:
            ops, cs = (op,), (_potential(op, c),)
        w = None if all(o.unit_weights for o in ops) else np.concatenate([o.weights for o in ops])
        diag = np.concatenate([o.diag + cv for o, cv in zip(ops, cs, strict=True)])
        self._ldlt(w, diag, np.concatenate([x for o in ops for x in (o.upper, [0.0])][:-1]))
        self.op = op

    def _ldlt(self, w, diag, off):
        """Factor S = W T, T with main diagonal diag and off-diagonal off, for
        the weights w, or W = I when w is None; returns self."""
        if w is not None:
            # S[i, i+1] = w_i upper_i = w_{i+1} lower_i exactly: each weight is 1 or 1/2.
            diag, off = w * diag, w[:-1] * off
        self._pad = diag.size == 1  # one Dirichlet node, W = 1: scipy's dpttrf needs n >= 2
        *self._factors, info = dpttrf(*((np.append(diag, 1.0), np.zeros(1)) if self._pad else (diag, off)))
        if info != 0:
            raise SingularSystemError(f"(-L + c) is not positive definite: pivot {info} is not positive")
        for a in self._factors:
            a.setflags(write=False)
        self._w = w
        return self

    def solve_active(self, f_active: np.ndarray) -> np.ndarray:
        w = self._w
        return self.solve_weighted(np.array(f_active, dtype=float) if w is None else f_active * w)

    def solve_weighted(self, b: np.ndarray) -> np.ndarray:
        """Solve S u = b in place and return b, for b = W f already weighted:
        a contiguous float64 array of length m, or an F-ordered (m, R) block
        of R right-hand sides (such as the transpose of a C-ordered (R, m)
        array), solved column by column in one dpttrs call on the factors."""
        padded = np.concatenate([b, np.zeros_like(b[:1])]) if self._pad else b
        x, info = dpttrs(*self._factors, padded, overwrite_b=True)
        if info != 0:
            raise ValueError(f"dpttrs rejected argument {-info}")
        if self._pad:
            b[:] = x[:1]
        elif x is not b:
            raise RuntimeError("dpttrs solved into a copy of the array it was to overwrite")
        return b

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
    _check_potential(c_active, op.has_constant_kernel and c_active.max() == 0.0)
    return c_active


def _check_potential(c, singular: bool) -> None:
    """Reject a potential c that is not finite and nonnegative, or one that
    leaves (-L + c) singular."""
    if not (np.isfinite(c).all() and c.min() >= 0):
        raise ValidationError("potential c must be finite and nonnegative")
    if singular:
        raise SingularSystemError(
            "(-L + c) is singular: Neumann closure with c identically zero "
            "(constants span the kernel)"
        )
