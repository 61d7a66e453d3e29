import numpy as np
import pytest

from scipy.linalg import solve_banded

import vectorhost as vh
from vectorhost.errors import SingularSystemError, ValidationError
from vectorhost import verify
from vectorhost.operators import ShiftedSolve, _block_stiffness, _factor, _factor_block, assemble, solve
from vectorhost.steady import EndemicProblem

from helpers import dense_system_block


def unit_d(mesh):
    return vh.field_from_constant(mesh, 1.0)


class TestAssembly:
    def test_neumann_matrix_five_nodes(self):
        mesh = vh.build_mesh(0, 1, 5)  # h = 0.25, 1/h^2 = 16
        op = assemble(unit_d(mesh), vh.BoundarySpec.neumann())
        expected = np.array(
            [
                [32, -32, 0, 0, 0],
                [-16, 32, -16, 0, 0],
                [0, -16, 32, -16, 0],
                [0, 0, -16, 32, -16],
                [0, 0, 0, -32, 32],
            ],
            dtype=float,
        )
        assert np.allclose(op.matrix(), expected, atol=1e-12)
        assert np.allclose(op.matrix().sum(axis=1), 0.0, atol=1e-12)

    def test_dirichlet_matrix_five_nodes(self):
        mesh = vh.build_mesh(0, 1, 5)
        op = assemble(unit_d(mesh), vh.BoundarySpec.dirichlet())
        expected = np.array([[32, -16, 0], [-16, 32, -16], [0, -16, 32]], dtype=float)
        assert np.allclose(op.matrix(), expected, atol=1e-12)

    def test_robin_adds_wall_terms(self):
        mesh = vh.build_mesh(0, 1, 5)
        op = assemble(unit_d(mesh), vh.BoundarySpec.robin(2.0, 3.0))
        m = op.matrix()
        # wall diagonal gains 2 b d_face / h
        assert m[0, 0] == pytest.approx(32 + 2 * 2.0 / 0.25)
        assert m[-1, -1] == pytest.approx(32 + 2 * 3.0 / 0.25)
        assert m[0, 1] == -32.0

    def test_robin_zero_matches_neumann(self, unit_mesh):
        a = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann()).matrix()
        b = assemble(unit_d(unit_mesh), vh.BoundarySpec.robin(0.0, 0.0)).matrix()
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_diffusion(self, unit_mesh):
        bad = np.ones(unit_mesh.n)
        bad[3] = -0.5
        with pytest.raises(ValidationError):
            assemble(vh.ScalarField(unit_mesh, bad), vh.BoundarySpec.neumann())

    def test_spd_with_weights(self, unit_mesh):
        rng = np.random.default_rng(5)
        d = vh.ScalarField(unit_mesh, 1.0 + rng.uniform(0, 2, unit_mesh.n))
        for bc in (vh.BoundarySpec.neumann(), vh.BoundarySpec.robin(1.0, 0.5),
                   vh.BoundarySpec.dirichlet()):
            op = assemble(d, bc)
            wa = op.weights[:, None] * op.matrix()
            assert np.allclose(wa, wa.T, atol=1e-10)
            eigs = np.linalg.eigvalsh(0.5 * (wa + wa.T))
            assert eigs.min() >= -1e-9


class TestApply:
    """L u through the solvers' path, -matvec on the active nodes.  Dirichlet
    rows next to a wall treat u as zero there, so their test functions
    vanish at the walls."""

    def test_constants_in_neumann_kernel(self, unit_mesh):
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        lu = -op.matvec(op.restrict(vh.field_from_constant(unit_mesh, 1.0)))
        assert np.abs(lu).max() < 1e-12

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    def test_exact_on_quadratic_interior(self, unit_mesh, kind):
        bc = vh.BoundarySpec(kind)
        op = assemble(unit_d(unit_mesh), bc)
        x = unit_mesh.nodes
        u = vh.ScalarField(unit_mesh, x * (1.0 - x))
        lu = op.embed(-op.matvec(op.restrict(u)))
        assert np.allclose(lu[1:-1], -2.0, atol=1e-10)

    def test_dirichlet_sine_second_derivative(self):
        mesh = vh.build_mesh(0, np.pi, 201)
        op = assemble(unit_d(mesh), vh.BoundarySpec.dirichlet())
        u = vh.ScalarField(mesh, np.sin(mesh.nodes))
        lu = op.embed(-op.matvec(op.restrict(u)))
        err = np.abs(lu[1:-1] + np.sin(mesh.nodes[1:-1])).max()
        # second-difference truncation ~ h^2/12 for sin
        assert err < 1e-4

    def test_weighted_symmetry_random_fields(self, unit_mesh):
        rng = np.random.default_rng(11)
        d = vh.ScalarField(unit_mesh, 0.5 + rng.uniform(0, 2, unit_mesh.n))
        for bc in (vh.BoundarySpec.neumann(), vh.BoundarySpec.robin(0.7, 1.3)):
            op = assemble(d, bc)
            for _ in range(10):
                u = rng.normal(size=unit_mesh.n)
                v = rng.normal(size=unit_mesh.n)
                lhs = float((op.weights * op.matvec(u) * v).sum())
                rhs = float((op.weights * u * op.matvec(v)).sum())
                scale = 1.0 + abs(lhs) + abs(rhs)
                assert abs(lhs - rhs) <= 1e-12 * scale


class TestSolve:
    def test_constant_solution(self, unit_mesh):
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        u = solve(op, vh.field_from_constant(unit_mesh, 1.0),
                  vh.field_from_constant(unit_mesh, 3.0))
        assert np.allclose(u.values, 3.0, atol=1e-12)

    def test_singular_neumann_reported(self, unit_mesh):
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        with pytest.raises(SingularSystemError):
            solve(op, vh.field_from_constant(unit_mesh, 0.0),
                  vh.field_from_constant(unit_mesh, 1.0))
        # Robin with b = 0 has the same kernel
        opr = assemble(unit_d(unit_mesh), vh.BoundarySpec.robin(0.0, 0.0))
        with pytest.raises(SingularSystemError):
            solve(opr, vh.field_from_constant(unit_mesh, 0.0),
                  vh.field_from_constant(unit_mesh, 1.0))

    def test_negative_potential_rejected(self, unit_mesh):
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        with pytest.raises(ValidationError):
            solve(op, vh.field_from_constant(unit_mesh, -1.0),
                  vh.field_from_constant(unit_mesh, 1.0))

    def test_dirichlet_sine_analytic(self):
        # -u'' = sin on (0, pi) with zero walls has solution sin
        mesh = vh.build_mesh(0, np.pi, 201)
        op = assemble(unit_d(mesh), vh.BoundarySpec.dirichlet())
        u = solve(op, vh.field_from_constant(mesh, 0.0),
                  vh.ScalarField(mesh, np.sin(mesh.nodes)))
        assert u.values[0] == 0.0 and u.values[-1] == 0.0
        assert np.abs(u.values - np.sin(mesh.nodes)).max() < 1e-4

    def test_solve_residual_random(self, unit_mesh):
        rng = np.random.default_rng(3)
        d = vh.ScalarField(unit_mesh, 0.5 + rng.uniform(0, 1, unit_mesh.n))
        c = 0.1 + rng.uniform(0, 1, unit_mesh.n)
        for bc in (vh.BoundarySpec.neumann(), vh.BoundarySpec.dirichlet(),
                   vh.BoundarySpec.robin(1.0, 2.0)):
            op = assemble(d, bc)
            shifted = ShiftedSolve(op, c)
            f = rng.normal(size=unit_mesh.n)
            u = shifted.solve(f)
            ua = op.restrict(u)
            res = op.matvec(ua) + c[op.sl] * ua - f[op.sl]
            assert np.abs(res).max() <= 1e-12 * (1 + np.abs(f).max() + np.abs(op.diag).max() * np.abs(ua).max())

    def test_discrete_maximum_principle(self, unit_mesh):
        rng = np.random.default_rng(9)
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.dirichlet())
        f = np.abs(rng.normal(size=unit_mesh.n))
        u = solve(op, vh.field_from_constant(unit_mesh, 1.0), vh.ScalarField(unit_mesh, f))
        assert u.values[unit_mesh.interior].min() > 0

    def test_comparison_ordered_rhs(self, unit_mesh):
        rng = np.random.default_rng(21)
        d = vh.ScalarField(unit_mesh, 0.5 + rng.uniform(0, 1, unit_mesh.n))
        c = vh.ScalarField(unit_mesh, 0.2 + rng.uniform(0, 1, unit_mesh.n))
        for bc in (vh.BoundarySpec.neumann(), vh.BoundarySpec.dirichlet()):
            op = assemble(d, bc)
            for _ in range(10):
                f1 = rng.normal(size=unit_mesh.n)
                f2 = f1 + rng.uniform(0, 1, size=unit_mesh.n)
                u1 = solve(op, c, vh.ScalarField(unit_mesh, f1)).values
                u2 = solve(op, c, vh.ScalarField(unit_mesh, f2)).values
                assert np.all(u2 - u1 >= -1e-12 * (1 + np.abs(u1).max()))

    def test_order_of_accuracy(self):
        # manufactured: u = cos(pi x), d = 1 + 0.5 sin(pi x), c = 1 on (0,1), Neumann
        def solve_err(n):
            mesh = vh.build_mesh(0, 1, n)
            x = mesh.nodes
            d = vh.ScalarField(mesh, 1 + 0.5 * np.sin(np.pi * x))
            u_exact = np.cos(np.pi * x)
            f = (
                np.pi**2 * np.cos(np.pi * x) * (1 + 0.5 * np.sin(np.pi * x))
                + 0.5 * np.pi**2 * np.sin(np.pi * x) * np.cos(np.pi * x)
                + u_exact
            )
            op = assemble(d, vh.BoundarySpec.neumann())
            u = solve(op, vh.field_from_constant(mesh, 1.0), vh.ScalarField(mesh, f))
            return np.abs(u.values - u_exact).max()

        e1, e2 = solve_err(101), solve_err(201)
        assert 3.5 < e1 / e2 < 4.5, f"expected ~4x error reduction, got {e1 / e2:.2f}"


class TestShiftedSolve:
    def test_reusable_factorization(self, unit_mesh):
        rng = np.random.default_rng(17)
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        shifted = ShiftedSolve(op, np.full(unit_mesh.n, 2.0))
        for _ in range(5):
            f = rng.normal(size=unit_mesh.n)
            u = shifted.solve(f)
            res = op.matvec(u) + 2.0 * u - f
            assert np.abs(res).max() <= 1e-11 * (1 + np.abs(f).max())

    def test_scalar_potential_accepted(self, unit_mesh):
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        shifted = ShiftedSolve(op, 1.5)
        u = shifted.solve(np.full(unit_mesh.n, 3.0))
        assert np.allclose(u, 2.0, atol=1e-12)

    def test_non_finite_input_rejected(self, unit_mesh):
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        with pytest.raises(ValidationError, match="finite"):
            ShiftedSolve(op, np.nan)
        with pytest.raises(ValidationError, match="finite"):
            ShiftedSolve(op, 1.0).solve(np.full(unit_mesh.n, np.inf))


def banded(lower, diag, upper):
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1] = diag
    ab[2, :-1] = lower
    return ab


class TestFactoredKernel:
    """ShiftedSolve factors once (dgttrf) and solves by dgttrs; its results
    must equal scipy's solve_banded (dgtsv) bit for bit."""

    BCS = {
        "neumann": vh.BoundarySpec.neumann(),
        "dirichlet": vh.BoundarySpec.dirichlet(),
        "robin": vh.BoundarySpec.robin(1.0, 0.5),
    }

    @pytest.mark.parametrize("n", [3, 4, 101])
    @pytest.mark.parametrize("kind", sorted(BCS))
    def test_bit_identical_to_solve_banded(self, kind, n):
        rng = np.random.default_rng([n, len(kind)])
        mesh = vh.build_mesh(0, 1, n)
        op = assemble(vh.ScalarField(mesh, rng.uniform(0.5, 2.0, n)), self.BCS[kind])
        sparse = rng.uniform(0, 5, op.m) * (rng.random(op.m) < 0.5)
        sparse[op.m // 2] = 1.0
        shifts = [rng.uniform(0, 5, op.m), sparse]
        if not op.has_constant_kernel:
            shifts.append(np.zeros(op.m))
        for c in shifts:
            ab = banded(op.lower, op.diag + c, op.upper)
            shifted = ShiftedSolve(op, c)
            for _ in range(3):
                f = rng.normal(size=op.m)
                f_before = f.copy()
                u = shifted.solve_active(f)
                assert np.array_equal(u, solve_banded((1, 1), ab, f))
                assert np.array_equal(f, f_before)
                assert np.array_equal(shifted.solve_active(f), u)

    @pytest.mark.parametrize("n, kind", [(3, "dirichlet"), (4, "dirichlet"), (101, "neumann")])
    def test_in_place_solve_matches_solve_active(self, n, kind):
        """overwrite_f=True writes the solution into the given row of a
        (2, m) array, bit for bit what solve_active returns; m = 1 and 2
        run through the padded factor."""
        rng = np.random.default_rng([n, 7])
        mesh = vh.build_mesh(0, 1, n)
        op = assemble(vh.ScalarField(mesh, rng.uniform(0.5, 2.0, n)), self.BCS[kind])
        assert op.m == {3: 1, 4: 2, 101: 101}[n]
        c = rng.uniform(0, 5, op.m)
        ab = banded(op.lower, op.diag + c, op.upper)
        shifted = ShiftedSolve(op, c)
        solve = shifted._solve
        lu = dict(zip(solve.__code__.co_freevars, (x.cell_contents for x in solve.__closure__)))["lu"]
        factors = [a.copy() for a in lu]
        u = np.empty((2, op.m))
        rows = tuple(u)
        for k in range(3):
            f = rng.normal(size=op.m)
            other = rng.normal(size=op.m)
            i = k % 2
            rows[i][:] = f
            rows[1 - i][:] = other
            expected = shifted.solve_active(f)
            assert shifted.solve_active(rows[i], True) is rows[i]
            assert np.array_equal(rows[i], expected)
            assert np.array_equal(rows[1 - i], other)
            assert np.array_equal(expected, solve_banded((1, 1), ab, f))
        for a, before in zip(lu, factors):
            assert not a.flags.writeable
            assert np.array_equal(a, before)

    def test_in_place_solve_rejects_a_copy(self, unit_mesh):
        """A right-hand side dgttrs cannot overwrite (strided, or not
        float64) is copied by the wrapper; the in-place solve raises instead
        of returning a solution that never reached the caller's array."""
        op = assemble(unit_d(unit_mesh), vh.BoundarySpec.neumann())
        shifted = ShiftedSolve(op, 1.0)
        strided = np.ones((op.m, 2))[:, 0]
        with pytest.raises(RuntimeError, match="copy"):
            shifted.solve_active(strided, True)
        with pytest.raises(RuntimeError, match="copy"):
            shifted.solve_active(np.ones(op.m, dtype=np.float32), True)

    @pytest.mark.parametrize("n", [3, 101])
    def test_negative_shift_bit_identical(self, n):
        # logistic Newton factors -L - beta + 2 mu v, which may be indefinite
        rng = np.random.default_rng(n)
        mesh = vh.build_mesh(0, 1, n)
        op = assemble(vh.ScalarField(mesh, rng.uniform(0.5, 2.0, n)), self.BCS["dirichlet"])
        diag = op.diag - rng.uniform(0, 2, op.m) * op.diag.max()
        f = rng.normal(size=op.m)
        u = _factor(op.lower, diag, op.upper)(f)
        assert np.array_equal(u, solve_banded((1, 1), banded(op.lower, diag, op.upper), f))

    @pytest.mark.parametrize("m", [1, 3])
    def test_zero_pivot_is_singular(self, m):
        with pytest.raises(SingularSystemError):
            _factor(np.zeros(m - 1), np.zeros(m), np.zeros(m - 1))


def dense_block(op1, op2, diag1, off12, off21, diag2):
    """The 2x2 block matrix written out densely, block by block, with np.block."""

    def tri(op, diag):
        return np.diag(diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)

    return np.block([[tri(op1, diag1), np.diag(off12)], [np.diag(off21), tri(op2, diag2)]])


def assert_solves_dense(solve, a, rng):
    """solve agrees with np.linalg.solve on the dense a within its condition
    number, leaves its input untouched, and a later solve does not
    overwrite an earlier result."""
    f, g = rng.normal(size=(2, a.shape[0]))
    f_before = f.copy()
    x = solve(f)
    assert np.array_equal(f, f_before)
    expected = np.linalg.solve(a, f)
    tol = 16 * np.finfo(float).eps * np.linalg.cond(a, np.inf) * np.abs(expected).max()
    assert np.abs(x - expected).max() <= tol
    x_before = x.copy()
    solve(g)
    assert np.array_equal(x, x_before)
    assert np.array_equal(solve(f), x)


def dense_stiffness(a):
    return float(np.abs(a).sum(axis=1).max())


class TestBlockMatrix:
    """The infection block [[T1, diag(off12)], [diag(off21), T2]] is factored
    as one band matrix in interleaved order (dgbtrf) and solved by dgbtrs;
    the dense block written out with np.block is its oracle, through
    np.linalg.solve and its |row| sums."""

    BCS = TestFactoredKernel.BCS

    @pytest.mark.parametrize("n", [3, 4, 101])
    @pytest.mark.parametrize("kind", sorted(BCS))
    def test_equals_bmat(self, kind, n):
        rng = np.random.default_rng([n, len(kind), 7])
        mesh = vh.build_mesh(0, 1, n)
        bc = self.BCS[kind]
        op1 = assemble(vh.ScalarField(mesh, rng.uniform(0.5, 2.0, n)), bc)
        op2 = assemble(vh.ScalarField(mesh, rng.uniform(0.5, 2.0, n)), bc)
        m = op1.m
        for zeros in (True, False):
            blocks = [op1.diag + rng.uniform(0, 5, m), -rng.uniform(0.1, 5, m),
                      -rng.uniform(0.1, 5, m), op2.diag + rng.uniform(0, 5, m)]
            if zeros:  # saturated nodes: zero coupling entries
                blocks[2][::2] = 0.0
                blocks[1][-1] = 0.0
            a = dense_block(op1, op2, *blocks)
            assert_solves_dense(_factor_block(op1, op2, *blocks), a, rng)
            assert _block_stiffness(op1, op2, *blocks) == pytest.approx(dense_stiffness(a), rel=1e-15)

    @pytest.mark.parametrize("kind", sorted(BCS))
    def test_jacobian_and_shifted_system_unchanged(self, kind):
        bc = self.BCS[kind]
        mesh = vh.build_mesh(0, 5, 101)
        rng = np.random.default_rng(np.random.SeedSequence([4, 2, 6]))
        coeffs = verify.random_coefficients(mesh, rng)
        v_b = vh.solve_logistic(coeffs, bc).v_b
        problem = EndemicProblem(coeffs, bc, v_b)
        m = problem.m

        # A Newton point with both gap > 0 and gap = 0 nodes.
        h = rng.uniform(0.1, 2.0, m)
        v = problem.v_plus * rng.uniform(0.2, 1.0, m)
        v[::3] = problem.v_plus[::3]
        gap = np.maximum(problem.v_plus - v, 0.0)
        assert (gap > 0).any() and (gap == 0).any()
        a = dense_block(
            problem.op1, problem.op2,
            problem.op1.diag + problem.rho, -problem.s1hu, -problem.s2 * gap,
            problem.op2.diag + problem.muv + problem.s2 * h * (gap > 0),
        )
        assert_solves_dense(problem.jacobian(h, v), a, rng)

        # Linearized at zero infection and shifted by -sigma with sigma below
        # lambda: the system eigensolve's matrix, a nonsingular M-matrix.
        block = dense_system_block(coeffs, v_b, bc)
        sigma = vh.principal_eigen_system(coeffs, v_b, bc).lam - 0.75
        assert_solves_dense(problem.jacobian(0.0, 0.0, shift=-sigma), block - sigma * np.eye(2 * m), rng)
        assert problem.stiffness == pytest.approx(dense_stiffness(block), rel=1e-15)
        z = rng.normal(size=2 * m)
        scale = np.abs(z).max() * dense_stiffness(block)
        assert np.abs(np.concatenate(problem.linear_matvec(z[:m], z[m:])) - block @ z).max() <= 1e-14 * scale

    @pytest.mark.parametrize("m", [1, 3])
    def test_singular_block_raises(self, m):
        # Zero diagonals: for m = 3 each tridiagonal block is odd-sized with a zero diagonal.
        op = assemble(unit_d(vh.build_mesh(0, 1, m + 2)), vh.BoundarySpec.dirichlet())
        zero = np.zeros(m)
        with pytest.raises(SingularSystemError):
            _factor_block(op, op, zero, zero, zero, zero)

    def test_rank_one_coupling_raises(self):
        # m = 1: [[2, -1], [-4, 2]] pivots on -4 and leaves an exact zero pivot.
        op = assemble(unit_d(vh.build_mesh(0, 1, 3)), vh.BoundarySpec.dirichlet())
        blocks = [np.array([x]) for x in (2.0, -1.0, -4.0, 2.0)]
        with pytest.raises(SingularSystemError):
            _factor_block(op, op, *blocks)
