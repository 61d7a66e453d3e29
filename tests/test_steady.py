import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vectorhost as vh
from vectorhost import steady, verify
from vectorhost.eigen import roundoff_floor
from vectorhost.errors import (
    AdmissibilityError,
    ConvergenceError,
    MeshMismatchError,
    MonotonicityError,
    ValidationError,
)
from vectorhost import operators
from vectorhost.operators import ShiftedSolve, _block_band, _factor_band, _interleave
from vectorhost.steady import (
    SWEEP_TOL,
    EndemicProblem,
    check_eps_admissibility,
    default_weight,
    monotone_iterate,
)

from helpers import (
    CLOSURES,
    constants_coeffs,
    count_scalar_eigensolves,
    criterion4_panel,
    criterion4_scenario,
    dense_endemic_newton,
)


def upper_pair(problem):
    """solve_endemic's upper pair (H_bar, V_B + eps w) of problem, interleaved."""
    return _interleave(steady._h_bar(problem.op1, problem.rho, problem.s1hu, problem.v_plus), problem.v_plus)


class TestLogistic:
    def test_constant_equilibrium(self, unit_mesh, neumann):
        log = vh.solve_logistic(constants_coeffs(unit_mesh), neumann)
        assert log.exists
        assert np.allclose(log.v_b.values, 1.0, atol=1e-11)

    def test_constant_equilibrium_ratio(self, unit_mesh, neumann):
        log = vh.solve_logistic(constants_coeffs(unit_mesh, mu=2.0), neumann)
        assert np.allclose(log.v_b.values, 0.5, atol=1e-11)

    def test_dirichlet_subcritical_absent(self):
        mesh = vh.build_mesh(0, np.pi, 201)
        coeffs = constants_coeffs(mesh, beta=0.5)
        log = vh.solve_logistic(coeffs, vh.BoundarySpec.dirichlet())
        assert not log.exists
        assert log.lambda_beta == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("n", [11, 201, 801])
    @pytest.mark.parametrize("bc", CLOSURES, ids=lambda bc: bc.kind)
    def test_random_scenarios_residual_and_bound(self, bc, n):
        mesh = vh.build_mesh(0, 1.0 if bc.kind == "neumann" else 5.0, n)
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            coeffs = verify.random_coefficients(mesh, rng)
            log = vh.solve_logistic(coeffs, bc)
            if bc.kind == "neumann":
                assert log.exists  # beta > 0 under Neumann always admits one
            if not log.exists:
                continue
            o = vh.assemble(coeffs.d2, bc)
            beta, mu, v = o.restrict(coeffs.beta), o.restrict(coeffs.mu), o.restrict(log.v_b)
            v_top = (coeffs.beta.values / coeffs.mu.values).max()
            assert v.min() > 0
            assert v.max() <= v_top + 1e-9
            res = o.matvec(v) - beta * v + mu * v * v
            # Evaluating -L2 v costs round-off that grows with the stencil.
            stiff = np.abs(o.diag - beta + 2 * mu * v).max() + np.abs(o.lower).max() + np.abs(o.upper).max()
            floor = roundoff_floor(stiff) * (1 + (beta * v_top).max())
            assert np.abs(res).max() <= max(1e-9 * (1 + v.max()), floor)

    @pytest.mark.parametrize(
        "step, match", [(1.0, "rose by"), (-1e3, "lost positivity")], ids=["up", "through-zero"]
    )
    def test_newton_step_off_the_monotone_path_raises(self, monkeypatch, step, match):
        """From max(beta/mu) plain Newton decreases monotonically and stays
        positive; a step that rises or crosses zero is a failure."""
        mesh = vh.build_mesh(0, np.pi, 101)
        coeffs = constants_coeffs(mesh, beta=2.0)
        monkeypatch.setattr(steady, "_factor", lambda op, diag: lambda f: np.full_like(f, step))
        with pytest.raises(ConvergenceError, match=match):
            vh.solve_logistic(coeffs, vh.BoundarySpec.dirichlet())

    def test_dirichlet_supercritical_profile(self):
        mesh = vh.build_mesh(0, np.pi, 201)
        coeffs = constants_coeffs(mesh, beta=2.0)
        log = vh.solve_logistic(coeffs, vh.BoundarySpec.dirichlet())
        assert log.exists
        assert log.v_b.values[0] == 0.0 and log.v_b.values[-1] == 0.0
        assert log.v_b.values[mesh.interior].min() > 0


class TestUpperSolution:
    @pytest.mark.parametrize("v_b, expected", [(1.0, 2.0), (1.1, 2.2)])
    def test_constant_case(self, unit_mesh, neumann, v_b, expected):
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, v_b)
        h_bar = vh.upper_solution_h(coeffs, vb, neumann)
        assert np.allclose(h_bar.values, expected, atol=1e-11)

    def test_zero_source_gives_zero(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        hu = np.zeros(unit_mesh.n)
        hu[unit_mesh.n // 2] = 1.0  # nontrivial but tiny support
        coeffs = vh.CoefficientSet(
            d1=coeffs.d1, d2=coeffs.d2, rho=coeffs.rho, sigma1=coeffs.sigma1,
            sigma2=coeffs.sigma2, beta=coeffs.beta, mu=coeffs.mu,
            h_u=vh.ScalarField(unit_mesh, hu),
        )
        vb = vh.field_from_constant(unit_mesh, 0.0)
        h_bar = vh.upper_solution_h(coeffs, vb, neumann)
        assert np.all(h_bar.values == 0.0)


class TestAdmissibility:
    def test_neumann_smallness_named(self, neumann):
        """beta constant makes phi constant and lambda_beta = -beta, so the
        condition is eps^2 mu < beta V_B, named in its form for every closure."""
        mesh = vh.build_mesh(0, 1, 101)
        x = mesh.nodes
        const = lambda c: vh.field_from_constant(mesh, c)
        coeffs = vh.CoefficientSet(
            d1=const(1), d2=const(0.05), rho=const(1), sigma1=const(1),
            sigma2=const(1), beta=const(1),
            mu=vh.ScalarField(mesh, 1.0 + 3.0 * np.sin(np.pi * x) ** 2),
            h_u=const(2),
        )
        log = vh.solve_logistic(coeffs, neumann)
        # strictly between the smallness bound and the positivity bound
        eps = 0.32
        assert log.v_b.values[mesh.interior].min() - eps > 0
        message = r"\(eps\*phi\)\^2 \* mu < beta\*V_B \+ eps\*phi\*\(lambda_beta \+ beta\).*worst margin -5\.344e-02"
        with pytest.raises(AdmissibilityError, match=message):
            check_eps_admissibility(coeffs, log.v_b, neumann, eps,
                                    default_weight(coeffs, neumann), log.lambda_beta)

    def test_dirichlet_smallness_named(self, unit_mesh, dirichlet):
        coeffs = constants_coeffs(unit_mesh, beta=2.0, mu=30.0)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        phi = vh.ScalarField(unit_mesh, np.sin(np.pi * unit_mesh.nodes))
        with pytest.raises(AdmissibilityError, match="lambda_beta \\+ beta"):
            check_eps_admissibility(coeffs, vb, dirichlet, 0.9, phi, -1.0)

    def test_positivity_named(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        with pytest.raises(AdmissibilityError, match="V_B - \\|eps\\|\\*weight > 0"):
            check_eps_admissibility(coeffs, vb, neumann, 1.2,
                                    default_weight(coeffs, neumann), -1.0)

    def test_positivity_checked_at_neumann_walls(self, neumann):
        """With beta large only the positivity clause fails, and only at
        the wall node."""
        mesh = vh.build_mesh(0, 1, 11)
        coeffs = constants_coeffs(mesh, beta=10.0)
        values = np.ones(mesh.n)
        values[0] = 0.1
        vb = vh.ScalarField(mesh, values)
        with pytest.raises(AdmissibilityError, match="V_B - \\|eps\\|\\*weight > 0"):
            check_eps_admissibility(coeffs, vb, neumann, 0.5,
                                    default_weight(coeffs, neumann), -1.0)

    def test_zero_eps_always_fine(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        check_eps_admissibility(coeffs, vb, neumann, 0.0,
                                default_weight(coeffs, neumann), -1.0)

    def test_smallness_fails_exactly_when_the_upper_pair_does(self):
        """With w = phi under every closure the smallness condition is the
        upper pair's V residual: it fails exactly when violation(upper,
        "upper") does, on criterion 4's scenarios at eps of either sign
        (pairs that fail the positivity clause are left out).  It fails
        for Neumann seeds 15 and 30 and Robin seeds 4, 5 and 8."""
        failures = []
        for kind_index, seeds in [(0, (2, 15, 30)), (1, (3, 5, 8)), (2, (4, 5, 8))]:
            for seed in seeds:
                coeffs, bc, log, _ = criterion4_scenario(kind_index, seed)
                weight = default_weight(coeffs, bc)
                for eps in (-0.3, -0.1, -0.05, 0.05, 0.1, 0.3):
                    try:
                        check_eps_admissibility(coeffs, log.v_b, bc, eps, weight, log.lambda_beta)
                        small = True
                    except AdmissibilityError as err:
                        if err.inequality == "V_B - |eps|*weight > 0":
                            continue
                        small = False
                        failures.append((kind_index, seed, eps))
                    problem = EndemicProblem(coeffs, bc, log.v_b, eps)
                    assert small == (not problem.violation(upper_pair(problem), "upper")), (kind_index, seed, eps)
        assert failures == [(0, 15, 0.1), (0, 30, 0.05), (2, 4, 0.05), (2, 5, -0.3), (2, 8, -0.3)]


class TestEndemicConstants:
    def test_closed_form(self, unit_mesh, neumann):
        """rho H = sigma1 h_u V_i and the V_i balance give (1, 0.5, 0.5)."""
        eq = vh.solve_endemic(constants_coeffs(unit_mesh), neumann)
        assert isinstance(eq, vh.EndemicEquilibrium)
        assert np.abs(eq.h_i.values - 1.0).max() < 1e-8
        assert np.abs(eq.v_i.values - 0.5).max() < 1e-8
        assert np.abs(eq.v_u.values - 0.5).max() < 1e-8
        assert eq.residual <= 1e-8

    def test_weak_coupling_absent(self, unit_mesh, neumann):
        res = vh.solve_endemic(constants_coeffs(unit_mesh, h_u=0.5), neumann)
        assert isinstance(res, vh.EndemicAbsent)
        assert res.lambda_system == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-8)

    def test_perturbed_closed_form_and_limit(self, unit_mesh, neumann):
        """Constant case: V_i(eps) = 0.5 + 1.5 eps, H(eps) = 1 + 3 eps."""
        coeffs = constants_coeffs(unit_mesh)
        log = vh.solve_logistic(coeffs, neumann)
        for eps in (0.1, 0.01, 0.001):
            eq = vh.solve_endemic(coeffs, neumann, eps, logistic=log)
            assert isinstance(eq, vh.EndemicEquilibrium)
            assert np.abs(eq.v_i.values - (0.5 + 1.5 * eps)).max() < 1e-8
            assert np.abs(eq.h_i.values - (1.0 + 3.0 * eps)).max() < 1e-8
            assert np.all(eq.v_i.values < 1.0 + eps)

    def test_eps_sandwich_nesting(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        log = vh.solve_logistic(coeffs, neumann)
        eqs = {
            eps: vh.solve_endemic(coeffs, neumann, eps, logistic=log)
            for eps in (-0.05, -0.01, 0.0, 0.01, 0.05)
        }
        order = [-0.05, -0.01, 0.0, 0.01, 0.05]
        for lo, hi in zip(order, order[1:]):
            assert np.all(eqs[lo].v_i.values <= eqs[hi].v_i.values + 1e-10)

    def test_requires_vector_equilibrium(self):
        mesh = vh.build_mesh(0, np.pi, 101)
        coeffs = constants_coeffs(mesh, beta=0.5)
        with pytest.raises(ValidationError):
            vh.solve_endemic(coeffs, vh.BoundarySpec.dirichlet())

    def test_package_imports_no_sparse_module(self):
        """The infection block is factored as one LAPACK band matrix: no
        module of the package imports scipy.sparse or SuperLU."""
        found = []
        for path in sorted(Path(vh.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                found += [
                    f"{path.name}:{node.lineno}: {name}"
                    for name in names
                    if "sparse" in name.split(".") or name.split(".")[-1] == "splu"
                ]
        assert not found

    @pytest.mark.parametrize("module", ["steady", "eigen", "operators", "grid"])
    def test_lower_layers_do_not_import_dynamics(self, module):
        """Equilibria, eigenpairs, operators and the grid sit below the time
        stepping: none of them imports vectorhost.dynamics."""
        path = Path(vh.__file__).parent / f"{module}.py"
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            found += [f"{module}.py:{node.lineno}" for name in names if "dynamics" in name.split(".")]
        assert not found

    def test_dense_path_loads_no_sparse_module(self):
        """On the README config the endemic solve loads no scipy.sparse.
        Older scipy releases load it from scipy.linalg itself, which the
        package needs for LAPACK, so the check runs only where it does not."""
        script = (
            "import sys\n"
            "import scipy.linalg.lapack\n"
            "if 'scipy.sparse' in sys.modules:\n"
            "    print('preloaded')\n"
            "    sys.exit(0)\n"
            "import vectorhost as vh\n"
            "mesh = vh.build_mesh(0.0, 1.0, 201)\n"
            "coeffs = vh.CoefficientSet.from_constants(mesh, d1=1.0, d2=1.0, rho=1.0, sigma1=1.0,\n"
            "                                          sigma2=1.0, beta=1.0, mu=1.0, h_u=2.0)\n"
            "eq = vh.solve_endemic(coeffs, vh.BoundarySpec.neumann())\n"
            "assert isinstance(eq, vh.EndemicEquilibrium)\n"
            "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'\n"
        )
        src = str(Path(vh.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        if done.stdout.strip() == "preloaded":
            pytest.skip("this scipy loads scipy.sparse when scipy.linalg is imported")


class TestMonotoneIteration:
    def _problem(self, mesh, bc, coeffs=None):
        coeffs = coeffs or constants_coeffs(mesh)
        log = vh.solve_logistic(coeffs, bc)
        return coeffs, log, EndemicProblem(coeffs, bc, log.v_b)

    def test_fixed_point_is_stationary(self, unit_mesh, neumann):
        coeffs, log, problem = self._problem(unit_mesh, neumann)
        eq = vh.solve_endemic(coeffs, neumann, logistic=log)
        run = monotone_iterate(problem, eq.h_i, eq.v_i, "down")
        assert run.sweeps <= 2
        assert vh.sup_distance(run.h, eq.h_i) < 1e-9

    def test_down_sweeps_decrease_everywhere(self, unit_mesh, neumann):
        coeffs, log, problem = self._problem(unit_mesh, neumann)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, neumann)
        run = monotone_iterate(problem, h_bar, log.v_b, "down", keep_history=True)
        assert run.converged
        prev = (h_bar.values, log.v_b.values)
        for h, v in run.history:
            assert np.all(h.values <= prev[0] + 1e-10)
            assert np.all(v.values <= prev[1] + 1e-10)
            prev = (h.values, v.values)

    def test_up_sweeps_increase_everywhere(self, unit_mesh, neumann):
        coeffs, log, problem = self._problem(unit_mesh, neumann)
        eig = vh.principal_eigen_system(coeffs, log.v_b, neumann)
        lo_h = vh.ScalarField(unit_mesh, 1e-6 * eig.phi1.values)
        lo_v = vh.ScalarField(unit_mesh, 1e-6 * eig.phi2.values)
        run = monotone_iterate(problem, lo_h, lo_v, "up", keep_history=True)
        assert run.converged
        prev = (lo_h.values, lo_v.values)
        for h, v in run.history:
            assert np.all(h.values >= prev[0] - 1e-10)
            assert np.all(v.values >= prev[1] - 1e-10)
            prev = (h.values, v.values)

    def test_rejects_invalid_start(self, unit_mesh, neumann):
        coeffs, log, problem = self._problem(unit_mesh, neumann)
        # far below the equilibrium it cannot be an upper solution
        tiny = vh.field_from_constant(unit_mesh, 1e-3)
        with pytest.raises(ValidationError):
            monotone_iterate(problem, tiny, tiny, "down")

    def test_invalid_start_names_its_worst_residual(self):
        """The error names the mesh node: under Dirichlet the first active
        node is node 1, where -L1 of a constant H = 1 meets the zero wall."""
        coeffs, bc, log, problem = criterion4_scenario(1, 5)
        one = vh.field_from_constant(coeffs.mesh, 1.0)
        message = r"^starting pair is not a valid lower solution: residual 1\.011e\+03 in H at node 1, slack 1\.012e-05$"
        with pytest.raises(ValidationError, match=message):
            monotone_iterate(problem, one, log.v_b, "up")

    def test_rejects_pairs_off_the_problem_mesh(self, unit_mesh, neumann):
        """A pair with another node count used to fail with a bare numpy
        broadcast error, and one with the node count but not the interval
        used to run and converge."""
        coeffs, log, problem = self._problem(unit_mesh, neumann)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, neumann)
        coarse = vh.field_from_constant(vh.build_mesh(0, 1, 51), 1.0)
        far = vh.build_mesh(0, 7, unit_mesh.n)
        h_far, v_far = vh.ScalarField(far, h_bar.values), vh.ScalarField(far, log.v_b.values)
        for args, kwargs in [
            ((coarse, log.v_b), {}),
            ((h_bar, coarse), {}),
            ((h_far, v_far), {}),
            ((h_bar, log.v_b), {"h_top": h_far}),
        ]:
            with pytest.raises(MeshMismatchError, match="must live on the problem's mesh"):
                monotone_iterate(problem, *args, "down", **kwargs)

    def test_unknown_direction(self, unit_mesh, neumann):
        coeffs, log, problem = self._problem(unit_mesh, neumann)
        with pytest.raises(ValidationError):
            monotone_iterate(problem, log.v_b, log.v_b, "sideways")


def assert_monotone(start, history, sign):
    prev = start
    for h, v in history:
        assert np.all(sign * (h.values - prev[0]) <= 1e-10)
        assert np.all(sign * (v.values - prev[1]) <= 1e-10)
        prev = (h.values, v.values)


class TestNodewiseSweeps:
    """Gauss-Seidel sweeps with nodewise K1 = rho, K2 = sigma2 h_top + mu V_B
    keep the iterates ordered on variable coefficients."""

    # criterion-4 scenarios with an equilibrium; Robin seed 6 used to hit the cap
    CASES = [(1, 5), (2, 6)]

    @pytest.mark.parametrize("kind_index, seed", CASES)
    def test_down_sweeps_decrease_everywhere(self, kind_index, seed):
        coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        run = monotone_iterate(problem, h_bar, log.v_b, "down", keep_history=True)
        assert run.converged and len(run.history) == run.sweeps
        assert run.k_c == float(problem.sweep_potential(problem.op1.restrict(h_bar)).max())
        assert_monotone((h_bar.values, log.v_b.values), run.history, 1.0)

    @pytest.mark.parametrize("kind_index, seed", CASES)
    def test_down_runs_re_damp_from_their_h(self, kind_index, seed, monkeypatch):
        """After sweeps 1, 2, 4, 8, ... a "down" run factors K2 anew from the
        H it just computed, which tops every later iterate; K_c stays the
        first, largest K2."""
        coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
        potentials = []

        def spy(op, c):
            if op is problem.op2:
                potentials.append(c)
            return ShiftedSolve(op, c)

        monkeypatch.setattr(steady, "ShiftedSolve", spy)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        run = monotone_iterate(problem, h_bar, log.v_b, "down", keep_history=True)
        assert run.converged and run.sweeps > 8
        redamped = [2**j for j in range(run.sweeps.bit_length()) if 2**j < run.sweeps]
        assert len(potentials) == 1 + len(redamped)
        assert np.array_equal(potentials[0], problem.sweep_potential(problem.op1.restrict(h_bar)))
        for k2, sweep in zip(potentials[1:], redamped, strict=True):
            h = problem.op1.restrict(run.history[sweep - 1][0])
            assert np.array_equal(k2, problem.sweep_potential(h))
        assert run.k_c == float(potentials[0].max())
        assert_monotone((h_bar.values, log.v_b.values), run.history, 1.0)

    @pytest.mark.parametrize("kind_index, seed", CASES)
    def test_standalone_up_sweeps_increase_everywhere(self, kind_index, seed):
        """Without h_top, "up" takes H_bar of upper_solution_h as the top."""
        coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
        eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
        lo_h = vh.ScalarField(log.v_b.mesh, 1e-2 * eig.phi1.values)
        lo_v = vh.ScalarField(log.v_b.mesh, 1e-2 * eig.phi2.values)
        run = monotone_iterate(problem, lo_h, lo_v, "up", keep_history=True)
        assert run.converged
        h_bar = problem.op1.restrict(vh.upper_solution_h(coeffs, log.v_b, bc))
        assert run.k_c == pytest.approx(float(problem.sweep_potential(h_bar).max()), rel=1e-14)
        assert_monotone((lo_h.values, lo_v.values), run.history, -1.0)
        eq = vh.solve_endemic(coeffs, bc, logistic=log, eigenpair=eig)
        assert vh.sup_distance(run.v, eq.v_i) < 1e-6

    @pytest.mark.parametrize("frac", [0.6, 0.3])
    def test_low_top_raises(self, frac):
        """An h_top above the start but below the limit makes an "up" sweep
        move the wrong way, which raises at once with the K2 it was given."""
        coeffs, bc, log, problem = criterion4_scenario(2, 6)
        eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
        lo_h = vh.ScalarField(log.v_b.mesh, 1e-2 * eig.phi1.values)
        lo_v = vh.ScalarField(log.v_b.mesh, 1e-2 * eig.phi2.values)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        low = vh.ScalarField(h_bar.mesh, frac * h_bar.values)
        k2 = float(problem.sweep_potential(problem.op1.restrict(low)).max())
        with pytest.raises(MonotonicityError, match="against the declared direction") as err:
            monotone_iterate(problem, lo_h, lo_v, "up", h_top=low)
        assert str(err.value).endswith(f"(max K2={k2:g})")

    def test_top_below_start_rejected(self):
        """A top below the start gives no order interval.  A "down" run from
        (H_bar, V_B) with h_top = 0 used to stop after 3 sweeps at H = 0 with
        converged=True, while max H* is 1.568."""
        mesh = vh.build_mesh(0, 5, 101)
        bc = vh.BoundarySpec.dirichlet()
        coeffs = verify.random_coefficients(mesh, np.random.default_rng(4))
        log = vh.solve_logistic(coeffs, bc)
        problem = EndemicProblem(coeffs, bc, log.v_b)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        with pytest.raises(ValidationError, match="h_top lies up to .* below the starting H"):
            monotone_iterate(problem, h_bar, log.v_b, "down", h_top=vh.field_from_constant(mesh, 0.0))


def reference_monotone(problem, h0, v0, direction, *, h_top=None):
    """The sweeps of monotone_iterate written per component, with fresh
    arrays and separate H and V reductions, re-damping a "down" run from its
    H after sweeps 1, 2, 4, 8, ...: its active-node history, sweeps,
    converged, k_c and final change, or the MonotonicityError it raises.
    The cap is steady.MAX_SWEEPS at the time of the call."""
    h_start, v_start = problem.op1.restrict(h0), problem.op2.restrict(v0)
    if h_top is not None:
        top = problem.op1.restrict(h_top)
    elif direction == "down":
        top = h_start
    else:
        top = ShiftedSolve(problem.op1, problem.rho).solve_active(problem.s1hu * problem.v_plus)
    k1 = problem.rho
    s1 = ShiftedSolve(problem.op1, k1)
    k_c = -np.inf
    h, v = h_start.copy(), v_start.copy()
    history, change, converged = [], np.inf, False
    for sweep in range(1, steady.MAX_SWEEPS + 1):
        if sweep == 1 or (direction == "down" and math.log2(sweep - 1).is_integer()):
            k2 = problem.sweep_potential(top if sweep == 1 else h)
            s2 = ShiftedSolve(problem.op2, k2)
            k_c = max(k_c, float(k2.max()))
            k_min = min(float(k1.min()), float(k2.min()))
            stiff = max(float(problem.op1.diag.max()), float(problem.op2.diag.max()))
            stiff += max(float(k1.max()), float(k2.max()))
            mono_coef = 256.0 * np.finfo(float).eps * stiff
        h_new = s1.solve_active(problem.s1hu * v)  # f1 + K1 H, as K1 = rho
        v_new = s2.solve_active(problem.reaction(h_new, v)[1] + k2 * v)
        u_scale = 1.0 + max(float(np.abs(h).max()), float(np.abs(v).max()))
        dh, dv = h_new - h, v_new - v
        if direction == "down":
            violation = max(float(dh.max()), float(dv.max()))
        else:
            violation = max(float(-dh.min()), float(-dv.min()))
        if violation > mono_coef * u_scale / k_min:
            raise MonotonicityError(
                f"sweep {sweep} moved {violation:.3e} against the declared direction "
                f"(max K2={float(k2.max()):g})"
            )
        change = max(float(np.abs(dh).max()), float(np.abs(dv).max()))
        h, v = h_new, v_new
        history.append((h, v))
        converged = change < SWEEP_TOL
        if converged:
            break
    return history, sweep if converged else steady.MAX_SWEEPS, converged, k_c, change


class TestMonotoneSweepOracle:
    """monotone_iterate reproduces the reference's per-component sweeps bit
    for bit: every iterate, the sweep count, the stop reason, K_c and the
    final change, and the error of a wrong-way sweep."""

    @staticmethod
    def assert_matches(problem, h0, v0, direction, **kwargs):
        """monotone_iterate returns the reference's iterates, sweeps, stop,
        K_c and change."""
        history, sweeps, converged, k_c, change = reference_monotone(problem, h0, v0, direction, **kwargs)
        run = monotone_iterate(problem, h0, v0, direction, keep_history=True, **kwargs)
        assert (run.sweeps, run.converged, run.k_c) == (sweeps, converged, k_c)
        assert run.final_change.hex() == change.hex()  # the sign of a zero too
        assert len(run.history) == len(history)
        for (h, v), (h_ref, v_ref) in zip(run.history, history):
            assert np.array_equal(h.values, problem.op1.embed(h_ref))
            assert np.array_equal(v.values, problem.op2.embed(v_ref))
        assert np.array_equal(run.h.values, run.history[-1][0].values)
        assert np.array_equal(run.v.values, run.history[-1][1].values)
        return run

    @staticmethod
    def lower_pair(coeffs, log, bc, amplitude=1e-2):
        eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
        mesh = log.v_b.mesh
        return (
            vh.ScalarField(mesh, amplitude * eig.phi1.values),
            vh.ScalarField(mesh, amplitude * eig.phi2.values),
        )

    @pytest.mark.parametrize("kind_index, seed", [(0, 2), (1, 5), (2, 6)])
    def test_down_and_up_with_and_without_top(self, kind_index, seed):
        coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        self.assert_matches(problem, h_bar, log.v_b, "down")
        high = vh.ScalarField(h_bar.mesh, 1.5 * h_bar.values)
        down = self.assert_matches(problem, h_bar, log.v_b, "down", h_top=high)
        lo_h, lo_v = self.lower_pair(coeffs, log, bc)
        self.assert_matches(problem, lo_h, lo_v, "up")
        self.assert_matches(problem, lo_h, lo_v, "up", h_top=down.h)

    @pytest.mark.parametrize("capped", ["up", "down"])
    def test_cap_hit_of_one_run(self, capped, monkeypatch):
        """A run that stops at MAX_SWEEPS: an upward run from the lower pair,
        or a downward run from the upper pair, each the reference's run up
        to the cap, unconverged."""
        coeffs, bc, log, problem = criterion4_scenario(0, 2)
        if capped == "up":
            start, cap = self.lower_pair(coeffs, log, bc), 12
        else:
            start, cap = (vh.upper_solution_h(coeffs, log.v_b, bc), log.v_b), 6
        monkeypatch.setattr(steady, "MAX_SWEEPS", cap)
        run = self.assert_matches(problem, *start, capped)
        assert run.sweeps == cap and not run.converged
        assert run.final_change >= SWEEP_TOL

    def test_low_top_raises_the_same_error(self):
        coeffs, bc, log, problem = criterion4_scenario(2, 6)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        lo_h, lo_v = self.lower_pair(coeffs, log, bc)
        low = vh.ScalarField(h_bar.mesh, 0.3 * h_bar.values)
        with pytest.raises(MonotonicityError) as ref:
            reference_monotone(problem, lo_h, lo_v, "up", h_top=low)
        with pytest.raises(MonotonicityError) as got:
            monotone_iterate(problem, lo_h, lo_v, "up", h_top=low)
        assert str(got.value) == str(ref.value)

    def test_down_failure_raises_the_same_error(self, monkeypatch):
        """A K2 too small for the order interval makes a "down" sweep rise,
        and the error names its sweep."""
        coeffs, bc, log, problem = criterion4_scenario(0, 2)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        weak = problem.sweep_potential
        monkeypatch.setattr(problem, "sweep_potential", lambda top: 0.3 * weak(top))
        with pytest.raises(MonotonicityError) as ref:
            reference_monotone(problem, h_bar, log.v_b, "down")
        with pytest.raises(MonotonicityError) as got:
            monotone_iterate(problem, h_bar, log.v_b, "down")
        assert str(got.value) == str(ref.value)

    def test_small_rise_within_tolerance(self):
        """A start a few ulps below the sweeps' fixed point: the one "down"
        sweep rises at some node by less than the round-off tolerance, so the
        rise is held to the tolerance and passes it.  The bracketed root
        lies within 1e-13 (1 + max |x|) of that point, 3.4e-12 here, so the
        start is taken 4 ulps below the one sweep from the root."""
        coeffs, bc, log, problem = criterion4_scenario(0, 2)
        eq = vh.solve_endemic(coeffs, bc, logistic=log)
        settled = monotone_iterate(problem, eq.h_i, eq.v_i, "down")
        assert settled.sweeps == 1
        h0, v0 = settled.h.values, settled.v.values
        for _ in range(4):
            h0, v0 = np.nextafter(h0, -np.inf), np.nextafter(v0, -np.inf)
        h0, v0 = vh.ScalarField(eq.h_i.mesh, h0), vh.ScalarField(eq.v_i.mesh, v0)
        run = self.assert_matches(problem, h0, v0, "down")
        assert run.sweeps == 1
        rise = max(float((run.h.values - h0.values).max()), float((run.v.values - v0.values).max()))
        assert 0.0 < rise < 1e-12

    @pytest.mark.parametrize("direction", ["down", "up"])
    @pytest.mark.parametrize("h_zero, v_zero", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    def test_fixed_point_change_is_positive_zero(self, direction, h_zero, v_zero):
        """From the trivial solution every sweep difference is a zero of
        either sign; the final change is +0.0, as max |d| gives it."""
        mesh = vh.build_mesh(0, 1, 101)
        bc = vh.BoundarySpec.neumann()
        coeffs = constants_coeffs(mesh)
        problem = EndemicProblem(coeffs, bc, vh.solve_logistic(coeffs, bc).v_b)
        h0 = vh.field_from_constant(mesh, h_zero)
        v0 = vh.field_from_constant(mesh, v_zero)
        run = self.assert_matches(problem, h0, v0, direction)
        assert run.sweeps == 1 and run.converged
        assert run.final_change == 0.0 and math.copysign(1.0, run.final_change) == 1.0

    def test_padded_factor(self):
        """n = 4 under Dirichlet leaves m = 2 active nodes, the fewest that
        scipy's dpttrf takes unpadded: logistic Newton and the sweeps factor
        the two rows as they are.  n = 3 leaves m = 1, which every factor
        pads to two rows (TestDirichletOneNode has its closed forms)."""
        mesh = vh.build_mesh(0, 5, 4)
        bc = vh.BoundarySpec.dirichlet()
        coeffs = constants_coeffs(mesh, d1=0.1, d2=0.1, h_u=5.0)
        log = vh.solve_logistic(coeffs, bc)
        problem = EndemicProblem(coeffs, bc, log.v_b)
        assert problem.m == 2
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        run = self.assert_matches(problem, h_bar, log.v_b, "down")
        assert run.sweeps > 1
        lo_h, lo_v = self.lower_pair(coeffs, log, bc)
        self.assert_matches(problem, lo_h, lo_v, "up", h_top=run.h)

        mesh = vh.build_mesh(0, np.pi, 3)
        coeffs = constants_coeffs(mesh, d1=0.1, d2=0.1, beta=2.0)
        log = vh.solve_logistic(coeffs, bc)
        problem = EndemicProblem(coeffs, bc, log.v_b)
        assert problem.m == 1
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        assert self.assert_matches(problem, h_bar, log.v_b, "down").sweeps == 42
        assert self.assert_matches(problem, *self.lower_pair(coeffs, log, bc), "up").sweeps == 89


def bracket_passes(monkeypatch, solve):
    """solve() with every pass of the endemic bracket recorded: its result
    and the (x_k, y_k) at which each pass evaluated the residual, on the
    active nodes as interleaved pairs (one residual call takes both)."""
    passes = []
    bracket = steady._bracket

    def spy(problem, x, y):
        residual = problem.residual
        calls = []

        def recorded(pairs):
            calls.append(pairs.copy())
            return residual(pairs)

        problem.residual = recorded
        try:
            return bracket(problem, x, y)
        finally:
            del problem.residual
            passes.extend((x_k, y_k) for x_k, y_k in calls)

    with monkeypatch.context() as patch:
        patch.setattr(steady, "_bracket", spy)
        return solve(), passes


class TestBracket:
    """solve_endemic encloses the root between Newton from the upper pair
    and Newton-Fourier from the lower pair, both on G'(x), the Jacobian at
    the upper iterate (Ortega and Rheinboldt 13.3.4 and 13.3.7)."""

    @pytest.mark.parametrize("eps", [0.0, 0.01, -0.01])
    def test_enclosure_on_every_pass(self, eps, monkeypatch):
        """y_k <= y_{k+1} <= x_{k+1} <= x_k on every pass over criterion 4's
        panel, up to 1e-10 (1 + max |x_k|); the round-off measured there is
        at most 7.5e-12 of that scale.  All 63 endemic scenarios solve at
        either sign of eps."""
        solves = 0
        for coeffs, bc, log, eig in criterion4_panel():
            if eig.lam >= 0:
                continue
            # The panel's eigenpair is that of eps = 0.
            kwargs = dict(logistic=log, eigenpair=eig if eps == 0.0 else None)
            eq, passes = bracket_passes(monkeypatch, lambda: vh.solve_endemic(coeffs, bc, eps, **kwargs))
            solves += 1
            assert len(passes) == eq.passes + 1  # the last evaluation only stops
            for (x, y), (x_next, y_next) in zip(passes, passes[1:]):
                tol = 1e-10 * (1.0 + np.abs(x).max())
                assert (y - y_next).max() <= tol
                assert (y_next - x_next).max() <= tol
                assert (x_next - x).max() <= tol
            x, y = passes[-1]
            assert eq.bracket_width == (x - y).max() <= 1e-13 * (1.0 + np.abs(x).max())
            assert eq.residual <= steady.RESIDUAL_TOL
        assert solves == 63

    @pytest.mark.parametrize("kind_index, seed", [(0, 2), (1, 5), (2, 6), (1, 43)])
    def test_limit_matches_dense_newton(self, kind_index, seed):
        """The returned root is the dense oracle's within 1e-10 of its
        scale; over criterion 4's panel at eps = 0 and 0.01 they differ by
        at most 3.5e-12."""
        coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
        for eps in (0.0, 0.01):
            eq = vh.solve_endemic(coeffs, bc, eps, logistic=log)
            weight = steady.default_weight(coeffs, bc)
            h, v = dense_endemic_newton(coeffs, log.v_b, bc, eps, weight)
            scale = 1.0 + max(np.abs(h).max(), np.abs(v).max())
            assert np.abs(problem.op1.restrict(eq.h_i) - h).max() <= 1e-10 * scale
            assert np.abs(problem.op2.restrict(eq.v_i) - v).max() <= 1e-10 * scale

    def test_pass_that_moves_neither_pair_stops(self, unit_mesh, neumann):
        """Roots are fixed points of their Newton steps.  From the constant
        case's positive root (1, 0.5), where the residual is exactly zero,
        and the trivial root, the first pass moves neither pair, and the
        bracket stops after it with its width still open."""
        coeffs = constants_coeffs(unit_mesh)
        problem = EndemicProblem(coeffs, neumann, vh.solve_logistic(coeffs, neumann).v_b)
        m = problem.m
        x, y = _interleave(np.ones(m), np.full(m, 0.5)), np.zeros(2 * m)
        x_end, y_end, passes, width, residual = steady._bracket(problem, x, y)
        assert (passes, width, residual) == (1, 1.0, 0.0)
        assert np.array_equal(x_end, x) and np.array_equal(y_end, y)

    def test_right_derivative_at_the_kink_fails_the_order_check(self, monkeypatch):
        """The upper pair starts on the kink V = V_B + eps w.  A Jacobian with
        the right derivative there drops sigma2 H from the V diagonal, and
        the first Newton-Fourier step overshoots the upper iterate."""
        coeffs, bc, log, problem = criterion4_scenario(0, 1)

        def right(self, u):
            h, v = u[0::2], u[1::2]
            gap = np.maximum(self.v_plus - v, 0.0)
            return _factor_band(_block_band(
                self.op1, self.op2,
                self.op1.diag + self.rho, -self.s1hu, -self.s2 * gap,
                self.op2.diag + (self.muv + self.s2 * h * (gap > 0.0)),
            ))

        monkeypatch.setattr(EndemicProblem, "jacobian", right)
        with pytest.raises(MonotonicityError, match="bracket pass 1: the lower pair tops the upper"):
            vh.solve_endemic(coeffs, bc, logistic=log)

    def test_one_factor_and_one_solve_per_pass(self, monkeypatch):
        """Each pass factors G'(x) once (dgbtrf) and takes both Newton steps
        in one dgbtrs call on a two-column right-hand side; the only other
        dgbtrs call is the sup norm G'(x)^{-1} 1 of an overlap."""
        calls = []

        def spy(name):
            lapack = getattr(operators, name)

            def recorded(*args, **kwargs):
                calls.append((name, args[3] if name == "dgbtrs" else None))
                return lapack(*args, **kwargs)

            monkeypatch.setattr(operators, name, recorded)

        spy("dgbtrf")
        spy("dgbtrs")
        for kind_index, seed in [(0, 2), (1, 5), (2, 6), (1, 43)]:
            coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
            eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
            calls.clear()
            eq = vh.solve_endemic(coeffs, bc, logistic=log, eigenpair=eig)
            factors = [b for name, b in calls if name == "dgbtrf"]
            pairs = [b for name, b in calls if name == "dgbtrs" and b.shape == (2 * problem.m, 2)]
            norms = [b for name, b in calls if name == "dgbtrs" and b.shape == (2 * problem.m,)]
            assert len(factors) == len(pairs) == eq.passes
            assert len(calls) == 2 * eq.passes + len(norms)
            assert all(np.array_equal(b, np.ones(2 * problem.m)) for b in norms)

    def test_invalid_upper_pair_names_its_worst_residual(self):
        """Criterion 4's Robin seed 5 at eps = -0.01 with the constant weight
        1: V_B - 0.01 is no upper solution at a Robin wall, where -L2 of a
        constant is positive.  violation names the worst residual, its
        component and node, and the slack, as solve_endemic's error does."""
        coeffs, bc, log, _ = criterion4_scenario(2, 5)
        problem = EndemicProblem(coeffs, bc, log.v_b, -0.01, weight=vh.field_from_constant(coeffs.mesh, 1.0))
        assert problem.violation(upper_pair(problem), "upper") == "residual -8.188e-02 in V at node 0, slack 1.134e-08"

    @pytest.mark.parametrize("seed", [5, 13, 14, 20, 26])
    def test_robin_solves_at_negative_eps(self, seed):
        """The Robin scenarios whose constant-weight upper pair failed at a
        wall at eps = -0.01 solve with w = phi."""
        coeffs, bc, log, _ = criterion4_scenario(2, seed)
        eq = vh.solve_endemic(coeffs, bc, -0.01, logistic=log)
        assert isinstance(eq, vh.EndemicEquilibrium)
        assert eq.residual <= steady.RESIDUAL_TOL


class TestLowerAmplitude:
    """The lower pair starts at delta0 (phi1, phi2), delta0 half the largest
    amplitude that the eigen bracket lam_hi proves a lower solution
    (steady._lower_amplitude), then delta0 / 10, delta0 / 100, ..."""

    @staticmethod
    def pairs(eig):
        """The block eig was solved on, its upper pair and phi, interleaved."""
        problem = eig.problem
        phi = _interleave(problem.op1.restrict(eig.phi1), problem.op2.restrict(eig.phi2))
        return problem, upper_pair(problem), phi

    @staticmethod
    def tried_lower_pairs(monkeypatch):
        """The pairs solve_endemic checks as lower solutions, in order."""
        tried = []
        violation = EndemicProblem.violation

        def spy(self, u, kind):
            if kind == "lower":
                tried.append(u.copy())
            return violation(self, u, kind)

        monkeypatch.setattr(EndemicProblem, "violation", spy)
        return tried

    def test_proven_amplitude_is_accepted_first_on_the_panel(self, monkeypatch):
        """On each of the 63 endemic scenarios of criterion 4's panel,
        delta0 phi lies below the upper pair, G(delta0 phi) <= (lam_hi / 2)
        delta0 phi up to the round-off of the residual, and solve_endemic
        takes it on its first try."""
        tried = self.tried_lower_pairs(monkeypatch)
        solves = 0
        for coeffs, bc, log, eig in criterion4_panel():
            if eig.lam >= 0:
                continue
            problem, upper, phi = self.pairs(eig)
            lower = steady._lower_amplitude(problem, eig.lam_hi, upper, phi) * phi
            assert np.all(lower <= upper)
            assert np.all(problem.residual(lower) <= 0.5 * eig.lam_hi * lower + problem.roundoff(lower))
            tried.clear()
            vh.solve_endemic(coeffs, bc, logistic=log, eigenpair=eig)
            assert len(tried) == 1 and np.array_equal(tried[0], lower)
            solves += 1
        assert solves == 63

    def test_open_bracket_falls_back_to_powers_of_ten(self, monkeypatch):
        """An eigenpair whose lam_hi >= 0 proves no amplitude: the search
        starts at 0.1 and divides by 10.  Criterion 4's Neumann seed 18
        rejects 0.1 phi and brackets from 0.01 phi, bit for bit as the
        bracket from that pair does."""
        coeffs, bc, log, _ = criterion4_scenario(0, 18)
        eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
        blind = dataclasses.replace(eig, lam_hi=0.5)
        assert blind.lam < 0 <= blind.lam_hi and blind.problem is eig.problem
        tried = self.tried_lower_pairs(monkeypatch)
        eq = vh.solve_endemic(coeffs, bc, logistic=log, eigenpair=blind)
        problem, upper, phi = self.pairs(eig)
        assert len(tried) == 2
        assert np.array_equal(tried[0], 0.1 * phi) and np.array_equal(tried[1], 0.01 * phi)
        x, y, passes, width, res = steady._bracket(problem, upper, 0.01 * phi)
        assert (eq.passes, eq.bracket_width, eq.residual) == (passes, width, res)
        assert np.array_equal(problem.op1.restrict(eq.h_i), x[0::2])
        assert np.array_equal(problem.op2.restrict(eq.v_i), x[1::2])

    def test_fine_neumann_scenario(self):
        """n = 1601 under Neumann on [0, 1] with the coefficients of seed
        [7, 1601, 2]: starting at 0.9 of the proven amplitude instead of half
        of it, the two limits ended 2.3e-8 apart, past AGREEMENT_TOL."""
        mesh = vh.build_mesh(0.0, 1.0, 1601)
        coeffs = verify.random_coefficients(mesh, np.random.default_rng([7, 1601, 2]))
        eq = vh.solve_endemic(coeffs, vh.BoundarySpec.neumann())
        assert isinstance(eq, vh.EndemicEquilibrium) and eq.lambda_system < 0


class TestOneBlockPerChain:
    """solve_endemic(eigenpair=) brackets on the block the eigenpair was
    solved on when it was built from the same coeffs, bc and v_b objects at
    the same eps, and builds its own otherwise."""

    @pytest.mark.parametrize("kind_index, seed", [(0, 2), (1, 5), (2, 6)])
    def test_builds_per_chain(self, kind_index, seed, monkeypatch):
        coeffs, bc, log, _ = criterion4_scenario(kind_index, seed)
        builds = []
        init = EndemicProblem.__init__

        def spy(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EndemicProblem, "__init__", spy)

        def chain(logistic, eps=0.0, eig_eps=0.0):
            builds.clear()
            eig = vh.principal_eigen_system(coeffs, log.v_b, bc, eig_eps)
            eq = vh.solve_endemic(coeffs, bc, eps, logistic=logistic, eigenpair=eig)
            return eq, len(builds)

        eq, count = chain(log)
        assert count == 1
        copied = dataclasses.replace(log, v_b=vh.ScalarField(coeffs.mesh, log.v_b.values.copy()))
        assert chain(copied)[1] == 2
        assert chain(log, eps=0.01, eig_eps=0.01)[1] == 1
        assert chain(log, eps=0.01)[1] == 2
        assert chain(log, eig_eps=0.01)[1] == 2
        # A block of its own gives the same bits.
        eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
        own = vh.solve_endemic(coeffs, bc, logistic=log, eigenpair=dataclasses.replace(eig, problem=None))
        assert (own.passes, own.bracket_width, own.residual) == (eq.passes, eq.bracket_width, eq.residual)
        for name in ("h_i", "v_i", "v_u"):
            assert np.array_equal(getattr(own, name).values, getattr(eq, name).values)


class TestOneScalarSolvePerChain:
    """The logistic carries the eigenpair of -L2 - beta that decided it, so
    the chain after solve_logistic never solves that eigenpair again."""

    @pytest.mark.parametrize("kind_index, seed", [(0, 2), (1, 5), (2, 6)])
    def test_endemic_reads_the_weight_from_the_logistic(self, kind_index, seed, monkeypatch):
        """At eps != 0 solve_endemic perturbs by the logistic's phi without a
        scalar eigensolve, bit for bit as by a block whose weight is solved
        afresh, and its block's weight is default_weight under every closure."""
        coeffs, bc, log, _ = criterion4_scenario(kind_index, seed)
        fresh = vh.principal_eigen_system(coeffs, log.v_b, bc, 0.01)
        want = vh.solve_endemic(coeffs, bc, 0.01, logistic=log,
                                eigenpair=dataclasses.replace(fresh, problem=None))
        weight = default_weight(coeffs, bc)
        calls = count_scalar_eigensolves(monkeypatch)
        builds = []
        init = EndemicProblem.__init__

        def spy(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(EndemicProblem, "__init__", spy)
        got = vh.solve_endemic(coeffs, bc, 0.01, logistic=log)
        assert calls == []
        assert len(builds) == 1 and np.array_equal(builds[0].weight.values, weight.values)
        assert (got.lambda_system, got.passes, got.bracket_width, got.residual) == (
            want.lambda_system, want.passes, want.bracket_width, want.residual)
        for name in ("h_i", "v_i", "v_u"):
            assert np.array_equal(getattr(got, name).values, getattr(want, name).values)

    @pytest.mark.parametrize("kind_index, seed, exists", [(0, 2, True), (1, 2, False)])
    def test_logistic_keeps_its_eigenpair(self, kind_index, seed, exists):
        """Both branches keep the eigenpair that decided them (Dirichlet
        seed 2 of criterion 4 has no V_B)."""
        coeffs, bc, log, _ = criterion4_scenario(kind_index, seed)
        eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
        assert log.exists is exists and (log.lambda_beta < 0) is exists
        assert log.lambda_beta == log.eig.lam == eig.lam
        assert np.array_equal(log.eig.phi.values, eig.phi.values)


class TestMeshMismatch:
    """An eigenpair or a logistic solved on another mesh never decides the
    chain: solve_logistic and solve_endemic refuse it (MeshMismatchError)
    before they read its eigenvalue."""

    @staticmethod
    def other(seed):
        """A scenario of the 51-node sweep stream on [0, 1] under Neumann:
        (coeffs, logistic, system eigenpair)."""
        bc = vh.BoundarySpec.neumann()
        coeffs = verify.random_coefficients(vh.build_mesh(0, 1, 51), np.random.default_rng(seed))
        log = vh.solve_logistic(coeffs, bc)
        return coeffs, log, vh.principal_eigen_system(coeffs, log.v_b, bc)

    def test_scalar_eigenpair(self):
        """Neumann seed 2 of criterion 4 has lambda_beta = -1.4329; the other
        mesh's -0.2402 would have been taken as its own."""
        coeffs, bc, log, _ = criterion4_scenario(0, 2)
        other = self.other(0)[0]
        eig = vh.principal_eigen_scalar(other.d2, other.beta, bc)
        assert eig.lam == pytest.approx(-0.2402, abs=1e-4)
        with pytest.raises(MeshMismatchError, match="scalar_eig must live on the coefficient mesh"):
            vh.solve_logistic(coeffs, bc, scalar_eig=eig)
        with pytest.raises(MeshMismatchError, match="scalar_eig"):
            vh.solve_endemic(coeffs, bc, scalar_eig=eig)

    def test_system_eigenpair(self):
        """Its own lambda_system is -3.20, so an Absent from the other mesh's
        1.166 would contradict the chain."""
        coeffs, bc, log, _ = criterion4_scenario(0, 2)
        eig = self.other(2)[2]
        assert eig.lam == pytest.approx(1.166, abs=1e-3)
        with pytest.raises(MeshMismatchError, match="eigenpair must live on the coefficient mesh"):
            vh.solve_endemic(coeffs, bc, logistic=log, eigenpair=eig)

    def test_logistic_before_the_absent_return(self):
        """Neumann seed 3 of criterion 4 is Absent (lambda_system = 0.488) on
        its own eigenpair; a logistic from the other mesh is refused first."""
        coeffs, bc, log, _ = criterion4_scenario(0, 3)
        eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
        assert eig.lam > 0
        with pytest.raises(MeshMismatchError, match="logistic.v_b"):
            vh.solve_endemic(coeffs, bc, logistic=self.other(2)[1], eigenpair=eig)


class TestSweepCap:
    """A bracket that stops at its cap of MAX_NEWTON passes (formerly the
    monotone iterations' MAX_SWEEPS sweeps) is a convergence failure, not
    evidence against uniqueness, and is never silent."""

    def test_cap_hit_with_disagreeing_limits_is_convergence_error(
        self, unit_mesh, neumann, monkeypatch
    ):
        coeffs = constants_coeffs(unit_mesh)
        log = vh.solve_logistic(coeffs, neumann)
        monkeypatch.setattr(steady, "MAX_NEWTON", 3)
        with pytest.raises(ConvergenceError, match="endemic bracket hit its cap of 3 passes at width"):
            vh.solve_endemic(coeffs, neumann, 0.0, logistic=log)

    def test_former_cap_hitter_converges(self):
        """Robin seed 6 of criterion 4 (bench panel index 14) ran both monotone
        iterations into the 5,000-sweep cap under one scalar K_c."""
        coeffs, bc, log, _ = criterion4_scenario(2, 6)
        eq = vh.solve_endemic(coeffs, bc, logistic=log)
        assert eq.passes <= 20


class TestResidualGate:
    @pytest.mark.parametrize("kind_index, seed", [(2, 19), (1, 43), (2, 46)])
    def test_unconverged_limits_are_not_a_uniqueness_violation(self, kind_index, seed, monkeypatch):
        """Limits the bracket has not closed by a cap of 4 passes have
        residuals above RESIDUAL_TOL and lie further apart than
        AGREEMENT_TOL: the cap raises ConvergenceError, never a
        UniquenessViolation."""
        coeffs, bc, log, _ = criterion4_scenario(kind_index, seed)
        monkeypatch.setattr(steady, "MAX_NEWTON", 4)
        with pytest.raises(ConvergenceError, match="cap of 4 passes at width") as err:
            vh.solve_endemic(coeffs, bc, logistic=log)
        width = float(str(err.value).split("at width ")[1].split()[0])
        assert width > steady.AGREEMENT_TOL and err.value.residual > steady.RESIDUAL_TOL


class TestDirichletOneNode:
    """n = 3 under Dirichlet leaves one active node, where every solve has a
    closed form: lambda_beta = 2 d2 / h^2 - beta, V_B = -lambda_beta / mu,
    lambda_system is the smaller eigenvalue of the 2 x 2 block, and the
    endemic pair solves two scalar equations.  Logistic Newton factors
    through the padded one-node LDL^T."""

    @staticmethod
    def setup_case():
        mesh = vh.build_mesh(0, np.pi, 3)
        return mesh, vh.BoundarySpec.dirichlet(), constants_coeffs(mesh, d1=0.1, d2=0.1, beta=2.0)

    def test_lambda_beta_and_v_b(self):
        mesh, bc, coeffs = self.setup_case()
        eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
        lam = 2 * 0.1 / mesh.h**2 - 2.0
        assert lam == pytest.approx(-1.91894305, abs=1e-8)
        assert eig.lam == pytest.approx(lam, rel=1e-14)
        assert eig.phi.values.tolist() == [0.0, 1.0, 0.0]
        log = vh.solve_logistic(coeffs, bc, scalar_eig=eig)
        assert log.v_b.values[[0, 2]].tolist() == [0.0, 0.0]
        assert log.v_b.values[1] == pytest.approx(-lam / 1.0, rel=1e-12)

    def test_endemic_equilibrium(self):
        mesh, bc, coeffs = self.setup_case()
        k = 2 * 0.1 / mesh.h**2  # -L1 = -L2 = k at the node
        v_b = 2.0 - k  # -lambda_beta / mu
        a, s = k + 1.0, 1.0 * 2.0  # k + rho, sigma1 h_u
        result = vh.solve_endemic(coeffs, bc)
        assert isinstance(result, vh.EndemicEquilibrium)
        block = np.array([[a, -s], [-1.0 * v_b, k + 1.0 * v_b]])  # sigma2 V_B, mu V_B
        assert result.lambda_system == pytest.approx(np.linalg.eigvals(block).real.min(), abs=1e-12)
        # a H = s V and k V = sigma2 (V_B - V) H - mu V_B V, with V > 0.
        v = v_b - a * (k + v_b) / s
        assert result.v_i.values[1] == pytest.approx(v, rel=1e-10)
        assert result.h_i.values[1] == pytest.approx(s * v / a, rel=1e-10)
        assert result.v_i.values[[0, 2]].tolist() == [0.0, 0.0]


class TestExistenceIffSign:
    def test_randomized_small_suite(self, neumann):
        mesh = vh.build_mesh(0, 1, 101)
        checked = 0
        seed = 0
        while checked < 12:
            seed += 1
            rng = np.random.default_rng(np.random.SeedSequence([99, seed]))
            coeffs = verify.random_coefficients(mesh, rng)
            eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, neumann)
            log = vh.solve_logistic(coeffs, neumann, scalar_eig=eig)
            sys_eig = vh.principal_eigen_system(coeffs, log.v_b, neumann)
            if abs(sys_eig.lam) <= 1e-3:
                continue
            checked += 1
            res = vh.solve_endemic(coeffs, neumann, logistic=log, eigenpair=sys_eig)
            if sys_eig.lam < 0:
                assert isinstance(res, vh.EndemicEquilibrium)
                interior = mesh.interior
                assert np.all(res.v_i.values[interior] < log.v_b.values[interior])
                assert res.h_i.values[interior].min() > 0
                assert res.residual <= 1e-8
            else:
                assert isinstance(res, vh.EndemicAbsent)

    def test_coupling_sweep_absent_on_positive_side(self, neumann):
        mesh = vh.build_mesh(0, 1, 101)
        rng = np.random.default_rng(13)
        coeffs = verify.random_coefficients(mesh, rng)
        log = vh.solve_logistic(coeffs, neumann)
        for scale in (2.0, 1.0, 0.5, 0.25, 0.1, 0.02):
            scaled = vh.CoefficientSet(
                d1=coeffs.d1, d2=coeffs.d2, rho=coeffs.rho, sigma1=coeffs.sigma1,
                sigma2=coeffs.sigma2, beta=coeffs.beta, mu=coeffs.mu,
                h_u=vh.ScalarField(mesh, scale * coeffs.h_u.values),
            )
            eig = vh.principal_eigen_system(scaled, log.v_b, neumann)
            res = vh.solve_endemic(scaled, neumann, logistic=log, eigenpair=eig)
            if eig.lam > 1e-8:
                assert isinstance(res, vh.EndemicAbsent)
            elif eig.lam < -1e-8:
                assert isinstance(res, vh.EndemicEquilibrium)
