"""Shared builders and independent dense oracles for the test suite.

The oracles here deliberately use dense eigendecompositions
(numpy.linalg.eigh / scipy.linalg.eig) so the iterative solvers under
test are checked against a different code path.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

import vectorhost as vh
from vectorhost import cli, eigen, steady, verify
from vectorhost.eigen import EndemicProblem
from vectorhost.operators import assemble

CLOSURES = (vh.BoundarySpec.neumann(), vh.BoundarySpec.dirichlet(), vh.BoundarySpec.robin(1.0, 0.5))
CONSTANTS = dict(d1=1.0, d2=1.0, rho=1.0, sigma1=1.0, sigma2=1.0, beta=1.0, mu=1.0, h_u=2.0)


def constants_coeffs(mesh, **overrides):
    values = dict(CONSTANTS)
    values.update(overrides)
    return vh.CoefficientSet.from_constants(mesh, **values)


def criterion4_scenario(kind_index, seed):
    """Scenario `seed` of criterion 4's stream for Neumann (0) on [0, 1], or
    Dirichlet (1) or Robin (2) on [0, 5]: (coeffs, bc, logistic, problem),
    with problem None when there is no vector equilibrium V_B."""
    bc = CLOSURES[kind_index]
    mesh = vh.build_mesh(0, 1.0 if kind_index == 0 else 5.0, 101)
    rng = np.random.default_rng(np.random.SeedSequence([4, kind_index, seed]))
    coeffs = verify.random_coefficients(mesh, rng)
    log = vh.solve_logistic(coeffs, bc)
    return coeffs, bc, log, EndemicProblem(coeffs, bc, log.v_b) if log.exists else None


def criterion4_panel():
    """Criterion 4's panel as its acceptance test builds it: the first 50
    scenarios of each closure with a vector equilibrium and
    |lambda_system| > 1e-3, as (coeffs, bc, logistic, system eigenpair)."""
    for kind_index in range(3):
        count, seed = 0, 0
        while count < 50:
            seed += 1
            coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
            if problem is None:
                continue
            eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
            if abs(eig.lam) > 1e-3:
                count += 1
                yield coeffs, bc, log, eig


def count_scalar_eigensolves(monkeypatch):
    """Spy on principal_eigen_scalar in every module of the chain that calls
    it (default_weight in eigen, solve_logistic in steady, and cli); returns
    the list that each call appends its arguments to."""
    calls = []
    solve = eigen.principal_eigen_scalar

    def spy(*args):
        calls.append(args)
        return solve(*args)

    for module in (eigen, steady, cli):
        monkeypatch.setattr(module, "principal_eigen_scalar", spy)
    return calls


def make_state(mesh, h, vu, vi, t=0.0):
    def f(v):
        return v if isinstance(v, vh.ScalarField) else vh.field_from_constant(mesh, v)

    return vh.State(t, f(h), f(vu), f(vi))


def dense_matrix(op):
    """Dense m x m matrix of -L on the active nodes of op, from its diagonals."""
    return np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)


def dense_scalar_eig(d2, beta, bc):
    """Smallest eigenvalue of -L2 - beta via symmetrized dense eigh."""
    op = assemble(d2, bc)
    a = dense_matrix(op) - np.diag(op.restrict(beta))
    sq = np.sqrt(op.weights)
    s = (sq[:, None] * a) / sq[None, :]
    return float(np.linalg.eigvalsh(0.5 * (s + s.T)).min())


def dense_system_block(coeffs, v_b, bc, eps=0.0, weight=None):
    """The dense block matrix of the system eigenproblem, built here from the
    coefficients and dense_matrix, not by the solver's band factor."""
    w = 1.0 if weight is None else weight.values
    op1, op2 = assemble(coeffs.d1, bc), assemble(coeffs.d2, bc)
    sl = op1.sl
    a12 = -(coeffs.sigma1.values * coeffs.h_u.values)[sl]
    a21 = -(coeffs.sigma2.values * (v_b.values + eps * w))[sl]
    a22 = (coeffs.mu.values * (v_b.values - eps * w))[sl]
    return np.block([
        [dense_matrix(op1) + np.diag(coeffs.rho.values[sl]), np.diag(a12)],
        [np.diag(a21), dense_matrix(op2) + np.diag(a22)],
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


def dense_r0(coeffs, v_b, bc):
    """The basic reproduction number at eps = 0, from the next-generation
    operator: R0^2 = r(A1^{-1} sigma1 h_u A2^{-1} sigma2 V_B) with
    A1 = -L1 + rho and A2 = -L2 + mu V_B on the active nodes (Thieme,
    SIAM J. Appl. Math. 70, 2009; Wang and Zhao, SIAM J. Appl. Dyn.
    Syst. 11, 2012).  Built densely from dense_matrix, with no solver of
    the package: lambda_system < 0 exactly when R0 > 1."""
    op1, op2 = assemble(coeffs.d1, bc), assemble(coeffs.d2, bc)
    sl = op1.sl
    vb = v_b.values[sl]
    a1 = dense_matrix(op1) + np.diag(coeffs.rho.values[sl])
    a2 = dense_matrix(op2) + np.diag(coeffs.mu.values[sl] * vb)
    s1hu = (coeffs.sigma1.values * coeffs.h_u.values)[sl]
    infect = np.linalg.solve(a2, np.diag(coeffs.sigma2.values[sl] * vb))
    ngo = np.linalg.solve(a1, s1hu[:, None] * infect)
    return float(np.sqrt(np.abs(np.linalg.eigvals(ngo)).max()))


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


def dense_endemic_newton(coeffs, v_b, bc, eps=0.0, weight=None):
    """The positive endemic equilibrium (H, V) on the active nodes by plain
    Newton on the dense residual, built here from the coefficients and
    dense_matrix, with numpy.linalg.solve on its dense Jacobian.  It starts
    from the upper pair (H_bar, V_B + eps w), so its iterates fall and stay
    in V <= V_B + eps w, where the reaction is smooth.  It stops once a step
    is below 1e-12 of the iterate's scale: by quadratic convergence the
    error left is about that step squared, below round-off."""
    w = 1.0 if weight is None else weight.values
    op1, op2 = assemble(coeffs.d1, bc), assemble(coeffs.d2, bc)
    sl = op1.sl
    a1 = dense_matrix(op1) + np.diag(coeffs.rho.values[sl])
    a2 = dense_matrix(op2) + np.diag((coeffs.mu.values * (v_b.values - eps * w))[sl])
    s1hu = (coeffs.sigma1.values * coeffs.h_u.values)[sl]
    s2 = coeffs.sigma2.values[sl]
    v_plus = (v_b.values + eps * w)[sl]
    h, v = np.linalg.solve(a1, s1hu * v_plus), v_plus.copy()
    for _ in range(100):
        g = np.concatenate([a1 @ h - s1hu * v, a2 @ v - s2 * (v_plus - v) * h])
        jac = np.block([[a1, -np.diag(s1hu)], [-np.diag(s2 * (v_plus - v)), a2 + np.diag(s2 * h)]])
        step = np.linalg.solve(jac, g)
        h, v = h - step[: h.size], v - step[h.size :]
        if np.abs(step).max() <= 1e-12 * (1.0 + max(np.abs(h).max(), np.abs(v).max())):
            return h, v
    raise AssertionError("dense Newton did not converge")
