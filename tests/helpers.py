"""Shared builders and independent dense oracles for the test suite.

The oracles here deliberately use dense eigendecompositions
(numpy.linalg.eigh / scipy.linalg.eig) so the iterative solvers under
test are checked against a different code path.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

import vectorhost as vh
from vectorhost.operators import assemble

CONSTANTS = dict(d1=1.0, d2=1.0, rho=1.0, sigma1=1.0, sigma2=1.0, beta=1.0, mu=1.0, h_u=2.0)


def constants_coeffs(mesh, **overrides):
    values = dict(CONSTANTS)
    values.update(overrides)
    return vh.CoefficientSet.from_constants(mesh, **values)


def make_state(mesh, h, vu, vi, t=0.0):
    def f(v):
        return v if isinstance(v, vh.ScalarField) else vh.field_from_constant(mesh, v)

    return vh.State(t, f(h), f(vu), f(vi))


def dense_scalar_eig(d2, beta, bc):
    """Smallest eigenvalue of -L2 - beta via symmetrized dense eigh."""
    op = assemble(d2, bc)
    a = op.matrix() - np.diag(op.restrict(beta))
    sq = np.sqrt(op.weights)
    s = (sq[:, None] * a) / sq[None, :]
    return float(np.linalg.eigvalsh(0.5 * (s + s.T)).min())


def dense_system_block(coeffs, v_b, bc, eps=0.0, weight=None):
    """The dense block matrix of the system eigenproblem, built here from the
    coefficients and op.matrix(), not by the solver's band factor."""
    w = 1.0 if weight is None else weight.values
    op1, op2 = assemble(coeffs.d1, bc), assemble(coeffs.d2, bc)
    sl = op1.sl
    a12 = -(coeffs.sigma1.values * coeffs.h_u.values)[sl]
    a21 = -(coeffs.sigma2.values * (v_b.values + eps * w))[sl]
    a22 = (coeffs.mu.values * (v_b.values - eps * w))[sl]
    return np.block([
        [op1.matrix() + np.diag(coeffs.rho.values[sl]), np.diag(a12)],
        [np.diag(a21), op2.matrix() + np.diag(a22)],
    ])


def dense_system_eig(coeffs, v_b, bc, eps=0.0, weight=None):
    """Eigenvalue of smallest real part of the dense block matrix, with its
    (sign-fixed) eigenvector; Perron theory for the shifted inverse makes
    this the principal pair."""
    vals, vecs = scipy.linalg.eig(dense_system_block(coeffs, v_b, bc, eps, weight))
    i = int(np.argmin(vals.real))
    lam = vals[i]
    vec = vecs[:, i].real
    vec = vec * np.sign(vec[int(np.argmax(np.abs(vec)))])
    return float(lam.real), float(abs(lam.imag)), vec


def refined_system_lambda(coeffs, v_b, bc):
    """The principal eigenvalue of the dense block, refined: the two-sided
    Rayleigh quotient y.A v / y.v of its dense right and left eigenvectors,
    summed exactly in rationals.  Its error is quadratic in theirs; the
    plain nonsymmetric eigenvalue is off by up to 1.3e-10 at n=101."""
    a = dense_system_block(coeffs, v_b, bc)
    vals, left, right = scipy.linalg.eig(a, left=True)
    i = int(np.argmin(vals.real))
    y, v = left[:, i].real, right[:, i].real
    rows, cols = np.nonzero(a)
    num = sum(Fraction(y[r]) * Fraction(a[r, c]) * Fraction(v[c]) for r, c in zip(rows, cols))
    return float(num / sum(Fraction(p) * Fraction(q) for p, q in zip(y, v)))
