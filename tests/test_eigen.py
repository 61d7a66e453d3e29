import numpy as np
import pytest

import vectorhost as vh
from vectorhost import eigen, verify
from vectorhost.errors import ConvergenceError, ValidationError

from helpers import constants_coeffs, dense_scalar_eig, dense_system_eig, refined_system_lambda


class TestScalarEigen:
    @pytest.mark.parametrize("beta0", [0.5, 1.0, 2.0])
    def test_neumann_constant_potential(self, unit_mesh, neumann, beta0):
        """Constant eigenfunction shifts the eigenvalue by the potential."""
        eig = vh.principal_eigen_scalar(
            vh.field_from_constant(unit_mesh, 1.0),
            vh.field_from_constant(unit_mesh, beta0),
            neumann,
        )
        assert eig.lam == pytest.approx(-beta0, abs=1e-10)
        assert np.allclose(eig.phi.values, 1.0, atol=1e-10)

    def test_neumann_zero_potential(self, unit_mesh, neumann):
        eig = vh.principal_eigen_scalar(
            vh.field_from_constant(unit_mesh, 1.0),
            vh.field_from_constant(unit_mesh, 0.0),
            neumann,
        )
        assert eig.lam == pytest.approx(0.0, abs=1e-10)

    def test_dirichlet_sine_mode(self):
        # first eigenvalue of -u'' on (0, pi) is 1; beta shifts it down by 0.5
        mesh = vh.build_mesh(0, np.pi, 401)
        eig = vh.principal_eigen_scalar(
            vh.field_from_constant(mesh, 1.0),
            vh.field_from_constant(mesh, 0.5),
            vh.BoundarySpec.dirichlet(),
        )
        assert eig.lam == pytest.approx(0.5, abs=1e-3)
        peak = eig.phi.values.max()
        assert peak == pytest.approx(1.0, abs=1e-12)
        assert np.abs(eig.phi.values - np.sin(mesh.nodes)).max() < 1e-3

    def test_matches_dense_oracle(self, neumann, dirichlet):
        rng = np.random.default_rng(12)
        for bc in (neumann, dirichlet, vh.BoundarySpec.robin(0.4, 1.1)):
            for n in (51, 101, 200):
                mesh = vh.build_mesh(0, 1, n)
                d2 = vh.ScalarField(mesh, 0.3 + rng.uniform(0, 2, n))
                beta = vh.ScalarField(mesh, rng.uniform(0.1, 3, n))
                eig = vh.principal_eigen_scalar(d2, beta, bc)
                lam_dense = dense_scalar_eig(d2, beta, bc)
                assert abs(eig.lam - lam_dense) < 1e-9, f"{bc.kind} n={n}"

    def test_eigenfunction_positive_and_normalized(self, unit_mesh, dirichlet):
        rng = np.random.default_rng(2)
        d2 = vh.ScalarField(unit_mesh, 0.5 + rng.uniform(0, 1, unit_mesh.n))
        beta = vh.ScalarField(unit_mesh, rng.uniform(0.5, 2, unit_mesh.n))
        eig = vh.principal_eigen_scalar(d2, beta, dirichlet)
        assert eig.phi.values[unit_mesh.interior].min() > 0
        assert eig.phi.values.max() == pytest.approx(1.0, abs=1e-12)

    def test_residual_meets_invariant(self, unit_mesh, neumann):
        rng = np.random.default_rng(8)
        d2 = vh.ScalarField(unit_mesh, 0.5 + rng.uniform(0, 1, unit_mesh.n))
        beta = vh.ScalarField(unit_mesh, rng.uniform(0.5, 2, unit_mesh.n))
        eig = vh.principal_eigen_scalar(d2, beta, neumann)
        op = vh.assemble(d2, neumann)
        phi_a = op.restrict(eig.phi)
        res = op.matvec(phi_a) - op.restrict(beta) * phi_a - eig.lam * phi_a
        assert np.abs(res).max() <= 1e-9 * (1 + abs(eig.lam))

    def test_monotone_in_potential(self, unit_mesh, neumann, dirichlet):
        """A larger potential strictly lowers the principal eigenvalue."""
        rng = np.random.default_rng(4)
        d2 = vh.ScalarField(unit_mesh, 0.5 + rng.uniform(0, 1, unit_mesh.n))
        for bc in (neumann, dirichlet):
            b1 = rng.uniform(0.2, 1.0, unit_mesh.n)
            bump = np.zeros(unit_mesh.n)
            bump[30:60] = 0.5
            lam1 = vh.principal_eigen_scalar(d2, vh.ScalarField(unit_mesh, b1), bc).lam
            lam2 = vh.principal_eigen_scalar(d2, vh.ScalarField(unit_mesh, b1 + bump), bc).lam
            assert lam2 < lam1

    def test_boundary_kind_ordering(self, unit_mesh):
        """Neumann <= Robin(b>0) <= Dirichlet for the same operator data."""
        rng = np.random.default_rng(6)
        d2 = vh.ScalarField(unit_mesh, 0.5 + rng.uniform(0, 1, unit_mesh.n))
        beta = vh.ScalarField(unit_mesh, rng.uniform(0.5, 2, unit_mesh.n))
        lam_n = vh.principal_eigen_scalar(d2, beta, vh.BoundarySpec.neumann()).lam
        lam_r = vh.principal_eigen_scalar(d2, beta, vh.BoundarySpec.robin(1.0, 1.0)).lam
        lam_d = vh.principal_eigen_scalar(d2, beta, vh.BoundarySpec.dirichlet()).lam
        assert lam_n <= lam_r + 1e-12
        assert lam_r <= lam_d + 1e-12


class TestSystemEigen:
    def test_constant_coefficients_closed_form(self, unit_mesh, neumann):
        """With constant data the 2x2 reaction matrix gives 1 - sqrt(2)."""
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        eig = vh.principal_eigen_system(coeffs, vb, neumann)
        assert eig.lam == pytest.approx(1 - np.sqrt(2), abs=1e-8)
        for phi in (eig.phi1, eig.phi2):
            spread = phi.values.max() - phi.values.min()
            assert spread <= 1e-8 * phi.values.max()

    def test_weak_coupling_closed_form(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh, h_u=0.5)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        eig = vh.principal_eigen_system(coeffs, vb, neumann)
        assert eig.lam == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-8)

    def test_matches_dense_oracle_random(self, neumann):
        mesh = vh.build_mesh(0, 1, 101)
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            coeffs = verify.random_coefficients(mesh, rng)
            logistic = vh.solve_logistic(coeffs, neumann)
            eig = vh.principal_eigen_system(coeffs, logistic.v_b, neumann)
            lam_dense, imag, vec = dense_system_eig(coeffs, logistic.v_b, neumann)
            assert imag < 1e-8
            assert abs(eig.lam - lam_dense) < 1e-8, f"seed {seed}"
            assert vec.min() > -1e-10

    def test_componentwise_positive_normalized(self, unit_mesh, dirichlet):
        rng = np.random.default_rng(77)
        coeffs = verify.random_coefficients(unit_mesh, rng)
        vb = vh.ScalarField(
            unit_mesh, np.sin(np.pi * (unit_mesh.nodes)) + 1e-9
        )
        eig = vh.principal_eigen_system(coeffs, vb, dirichlet)
        interior = unit_mesh.interior
        assert eig.phi1.values[interior].min() > 0
        assert eig.phi2.values[interior].min() > 0
        peak = max(eig.phi1.values.max(), eig.phi2.values.max())
        assert peak == pytest.approx(1.0, abs=1e-12)

    def test_residual_rows_meet_invariant(self, unit_mesh, neumann):
        rng = np.random.default_rng(31)
        coeffs = verify.random_coefficients(unit_mesh, rng)
        logistic = vh.solve_logistic(coeffs, neumann)
        eig = vh.principal_eigen_system(coeffs, logistic.v_b, neumann)
        problem = vh.EndemicProblem(coeffs, neumann, logistic.v_b)
        p1 = problem.op1.restrict(eig.phi1)
        p2 = problem.op2.restrict(eig.phi2)
        r1, r2 = problem.linear_matvec(p1, p2)
        tol = 1e-9 * (1 + abs(eig.lam))
        assert np.abs(r1 - eig.lam * p1).max() <= tol
        assert np.abs(r2 - eig.lam * p2).max() <= tol

    def test_perturbation_requires_positive_floor(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        with pytest.raises(ValidationError):
            vh.principal_eigen_system(coeffs, vb, neumann, eps=1.5)

    def test_noncooperative_perturbation_rejected(self, neumann):
        """eps = -1.5 makes sigma2 (V_B + eps w) negative: rejected up front."""
        mesh = vh.build_mesh(0, 1, 51)
        coeffs = constants_coeffs(mesh)
        vb = vh.field_from_constant(mesh, 1.0)
        with pytest.raises(ValidationError, match=r"V_B \+ eps\*weight"):
            vh.EndemicProblem(coeffs, neumann, vb, eps=-1.5)
        with pytest.raises(ValidationError, match=r"V_B \+ eps\*weight"):
            vh.principal_eigen_system(coeffs, vb, neumann, eps=-1.5)

    def test_lipschitz_in_eps(self, neumann):
        """|lam(eps) - lam(0)| <= C |eps| with mesh-stable C."""
        ratios = {}
        for n in (101, 201):
            mesh = vh.build_mesh(0, 1, n)
            rng = np.random.default_rng(7)
            coeffs = verify.random_coefficients(mesh, rng)
            logistic = vh.solve_logistic(coeffs, neumann)
            lam0 = vh.principal_eigen_system(coeffs, logistic.v_b, neumann).lam
            cs = []
            for eps in (0.1, 0.01, 0.001, -0.1, -0.01, -0.001):
                lam_eps = vh.principal_eigen_system(coeffs, logistic.v_b, neumann, eps).lam
                cs.append(abs(lam_eps - lam0) / abs(eps))
            ratios[n] = max(cs)
        assert 0.5 < ratios[201] / ratios[101] < 2.0

    def test_coupling_scale_sweep(self, unit_mesh, neumann):
        """Shrinking h_u raises the eigenvalue toward the decoupled minimum."""
        rng = np.random.default_rng(3)
        coeffs = verify.random_coefficients(unit_mesh, rng)
        logistic = vh.solve_logistic(coeffs, neumann)
        lams = []
        for s in (1.0, 0.5, 0.25, 0.1, 0.01):
            scaled = vh.CoefficientSet(
                d1=coeffs.d1, d2=coeffs.d2, rho=coeffs.rho, sigma1=coeffs.sigma1,
                sigma2=coeffs.sigma2, beta=coeffs.beta, mu=coeffs.mu,
                h_u=vh.ScalarField(unit_mesh, s * coeffs.h_u.values),
            )
            lams.append(vh.principal_eigen_system(scaled, logistic.v_b, neumann).lam)
            lam_dense, _, _ = dense_system_eig(scaled, logistic.v_b, neumann)
            assert abs(lams[-1] - lam_dense) < 1e-8
        assert all(b > a for a, b in zip(lams, lams[1:]))
        neg_rho = vh.ScalarField(unit_mesh, -coeffs.rho.values)
        neg_muv = vh.ScalarField(unit_mesh, -coeffs.mu.values * logistic.v_b.values)
        decoupled = min(
            vh.principal_eigen_scalar(coeffs.d1, neg_rho, neumann).lam,
            vh.principal_eigen_scalar(coeffs.d2, neg_muv, neumann).lam,
        )
        assert decoupled > lams[-1]
        assert decoupled - lams[-1] < 0.05 * (1 + abs(decoupled))


class TestNodaIteration:
    def test_readme_lambda_beta_exact_without_factoring(self, neumann, monkeypatch):
        """x = 1 is the exact eigenvector: the bracket is closed at the start."""
        mesh = vh.build_mesh(0, 1, 201)
        coeffs = constants_coeffs(mesh)
        factored = []
        monkeypatch.setattr(eigen, "_factor", lambda *args: factored.append(args))
        eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, neumann)
        assert eig.lam == -1.0
        assert eig.lam_lo == eig.lam_hi == -1.0
        assert eig.iterations == 1
        assert factored == []

    def test_readme_lambda_system_closed_form(self, neumann):
        mesh = vh.build_mesh(0, 1, 201)
        coeffs = constants_coeffs(mesh)
        eig = vh.principal_eigen_system(coeffs, vh.field_from_constant(mesh, 1.0), neumann)
        assert abs(eig.lam - (1 - np.sqrt(2))) <= 2e-13
        assert eig.lam_lo <= 1 - np.sqrt(2) <= eig.lam_hi

    def test_solve_leaving_positive_cone_raises(self):
        """Positive off-diagonals (not a Z-matrix): the shifted solve gives y = (1, 0)."""
        a = np.array([[3.0, 1.0], [1.0, 1.0]])

        def factor(sigma):
            return lambda x: np.linalg.solve(a - sigma * np.eye(2), x)

        with pytest.raises(ConvergenceError, match="positivity"):
            eigen._noda(lambda x: a @ x, np.dot, factor, 2, 4.0, "test")

    @pytest.mark.parametrize("n", [201, 401, 801])
    def test_mesh_refinement_converges(self, neumann, n):
        """Criterion 4's Neumann seeds on finer meshes: the stopping tests'
        round-off floor scales with the stencil, so neither the scalar
        eigensolve nor, where lambda_beta < 0, logistic Newton stalls, and
        where also lambda_system < -1e-3 the endemic solve's start checks,
        Newton polish and residual gate all resolve their residuals."""
        mesh = vh.build_mesh(0, 1, n)
        failed = []
        for k in range(1, 61):
            rng = np.random.default_rng(np.random.SeedSequence([4, 0, k]))
            coeffs = verify.random_coefficients(mesh, rng)
            try:
                eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, neumann)
                if eig.lam < 0:
                    logistic = vh.solve_logistic(coeffs, neumann, scalar_eig=eig)
                    sys_eig = vh.principal_eigen_system(coeffs, logistic.v_b, neumann)
                    if sys_eig.lam < -1e-3:
                        vh.solve_endemic(
                            coeffs, neumann, logistic=logistic, scalar_eig=eig, eigenpair=sys_eig
                        )
            except (ConvergenceError, ValidationError) as exc:
                failed.append((k, type(exc).__name__))
        assert failed == []


PANEL_SPECS = (
    (vh.BoundarySpec.neumann(), (0.0, 1.0)),
    (vh.BoundarySpec.dirichlet(), (0.0, 5.0)),
    (vh.BoundarySpec.robin(1.0, 0.5), (0.0, 5.0)),
)


@pytest.fixture(scope="module")
def criterion4_panel():
    """Criterion 4's panel at n=101: per closure, seeds [4, kind, k] up to the
    50th with lambda_beta < 0.  One (coeffs, bc, scalar eigenpair, V_B, system
    eigenpair) per seed tried; V_B and the system pair are None when
    lambda_beta >= 0."""
    runs = []
    for kind_index, (bc, (a, b)) in enumerate(PANEL_SPECS):
        mesh = vh.build_mesh(a, b, 101)
        count = k = 0
        while count < 50:
            k += 1
            rng = np.random.default_rng(np.random.SeedSequence([4, kind_index, k]))
            coeffs = verify.random_coefficients(mesh, rng)
            eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
            v_b = sys_eig = None
            if eig.lam < 0:
                count += 1
                v_b = vh.solve_logistic(coeffs, bc, scalar_eig=eig).v_b
                sys_eig = vh.principal_eigen_system(coeffs, v_b, bc)
            runs.append((coeffs, bc, eig, v_b, sys_eig))
    return runs


class TestCriterion4Panel:
    def test_iterations_bounded(self, criterion4_panel):
        """Noda's quadratic convergence, as a count: fixed-shift inverse
        iteration took about 41 (scalar) and 205 (system) per call here."""
        counts = [eig.iterations for _, _, eig, _, _ in criterion4_panel]
        counts += [s.iterations for *_, s in criterion4_panel if s is not None]
        assert len(counts) == len(criterion4_panel) + 150
        assert max(counts) <= 20

    def test_scalar_bracket_holds(self, criterion4_panel):
        for coeffs, bc, eig, _, _ in criterion4_panel:
            lam = dense_scalar_eig(coeffs.d2, coeffs.beta, bc)
            assert eig.lam_lo - 1e-10 <= lam <= eig.lam_hi + 1e-10, bc.kind

    def test_system_bracket_holds(self, criterion4_panel):
        for coeffs, bc, _, v_b, eig in criterion4_panel:
            if eig is None:
                continue
            lam = refined_system_lambda(coeffs, v_b, bc)
            assert eig.lam_lo - 1e-10 <= lam <= eig.lam_hi + 1e-10, bc.kind
            assert abs(eig.lam - lam) <= 1e-8
