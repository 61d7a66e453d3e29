import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vectorhost as vh
from vectorhost import verify
from vectorhost.errors import (
    AdmissibilityError,
    ConvergenceError,
    MonotonicityError,
    ValidationError,
)
from vectorhost.operators import ShiftedSolve
from vectorhost.steady import (
    MAX_SWEEPS,
    SWEEP_TOL,
    EndemicProblem,
    check_eps_admissibility,
    default_weight,
    monotone_iterate,
)

from helpers import constants_coeffs


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

    def test_random_scenarios_residual_and_bound(self, neumann):
        mesh = vh.build_mesh(0, 1, 101)
        op = vh.assemble(vh.field_from_constant(mesh, 1.0), neumann)
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            coeffs = verify.random_coefficients(mesh, rng)
            log = vh.solve_logistic(coeffs, neumann)
            assert log.exists  # beta > 0 under Neumann always admits one
            v = log.v_b.values
            assert v.min() > 0
            assert v.max() <= (coeffs.beta.values / coeffs.mu.values).max() + 1e-9
            o = vh.assemble(coeffs.d2, neumann)
            va = o.restrict(log.v_b)
            res = o.matvec(va) - o.restrict(coeffs.beta) * va + o.restrict(coeffs.mu) * va * va
            assert np.abs(res).max() <= 1e-9 * (1 + v.max())

    def test_dirichlet_supercritical_profile(self):
        mesh = vh.build_mesh(0, np.pi, 201)
        coeffs = constants_coeffs(mesh, beta=2.0)
        log = vh.solve_logistic(coeffs, vh.BoundarySpec.dirichlet())
        assert log.exists
        assert log.v_b.values[0] == 0.0 and log.v_b.values[-1] == 0.0
        assert log.v_b.values[mesh.interior].min() > 0


class TestUpperSolution:
    def test_constant_case(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        h_bar = vh.upper_solution_h(coeffs, vb, neumann)
        assert np.allclose(h_bar.values, 2.0, atol=1e-11)

    def test_perturbed_constant_case(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        h_bar = vh.upper_solution_h(coeffs, vb, neumann, eps=0.1,
                                    weight=vh.field_from_constant(unit_mesh, 1.0))
        assert np.allclose(h_bar.values, 2.2, atol=1e-11)

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
        with pytest.raises(AdmissibilityError, match="eps\\^2 \\* mu < beta\\*V_B"):
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

    def test_zero_eps_always_fine(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        vb = vh.field_from_constant(unit_mesh, 1.0)
        check_eps_admissibility(coeffs, vb, neumann, 0.0,
                                default_weight(coeffs, neumann), -1.0)


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

    def test_decoupled_input_flagged(self, unit_mesh, neumann):
        """h_u identically zero cannot pass CoefficientSet validation, so the
        defensive branch is reached through an unvalidated instance."""
        coeffs = constants_coeffs(unit_mesh)
        zero_hu = object.__new__(vh.CoefficientSet)
        for name in ("d1", "d2", "rho", "sigma1", "sigma2", "beta", "mu"):
            object.__setattr__(zero_hu, name, getattr(coeffs, name))
        object.__setattr__(zero_hu, "h_u", vh.ScalarField(unit_mesh, np.zeros(unit_mesh.n)))
        res = vh.solve_endemic(zero_hu, neumann)
        assert isinstance(res, vh.EndemicAbsent)
        assert res.decoupled

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
        run = monotone_iterate(problem, eq.h_i, eq.v_i, "down", check_start=False)
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

    def test_unknown_direction(self, unit_mesh, neumann):
        coeffs, log, problem = self._problem(unit_mesh, neumann)
        with pytest.raises(ValidationError):
            monotone_iterate(problem, log.v_b, log.v_b, "sideways")


def criterion4_scenario(kind_index, seed):
    """Scenario `seed` of criterion 4's stream for Neumann (0) on [0, 1], or
    Dirichlet (1) or Robin (2) on [0, 5]."""
    bc, length = (
        (vh.BoundarySpec.neumann(), 1.0),
        (vh.BoundarySpec.dirichlet(), 5.0),
        (vh.BoundarySpec.robin(1.0, 0.5), 5.0),
    )[kind_index]
    mesh = vh.build_mesh(0, length, 101)
    rng = np.random.default_rng(np.random.SeedSequence([4, kind_index, seed]))
    coeffs = verify.random_coefficients(mesh, rng)
    log = vh.solve_logistic(coeffs, bc)
    return coeffs, bc, log, EndemicProblem(coeffs, bc, log.v_b)


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

    @pytest.mark.parametrize("frac, doubled", [(0.6, True), (0.3, False)])
    def test_low_top_retries_once_with_doubled_potentials(self, frac, doubled):
        """An h_top above the start but below the limit makes an "up" sweep
        move the wrong way; the retry doubles both potentials, and a second
        violation raises."""
        coeffs, bc, log, problem = criterion4_scenario(2, 6)
        eig = vh.principal_eigen_system(coeffs, log.v_b, bc)
        lo_h = vh.ScalarField(log.v_b.mesh, 1e-2 * eig.phi1.values)
        lo_v = vh.ScalarField(log.v_b.mesh, 1e-2 * eig.phi2.values)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        low = vh.ScalarField(h_bar.mesh, frac * h_bar.values)
        if not doubled:
            with pytest.raises(MonotonicityError, match="against the declared direction"):
                monotone_iterate(problem, lo_h, lo_v, "up", h_top=low)
            return
        run = monotone_iterate(problem, lo_h, lo_v, "up", h_top=low)
        k2 = problem.sweep_potential(problem.op1.restrict(low))
        assert run.k_c == float((2.0 * k2).max())
        assert run.converged
        ref = monotone_iterate(problem, lo_h, lo_v, "up")
        assert vh.sup_distance(run.h, ref.h) < 1e-8
        assert vh.sup_distance(run.v, ref.v) < 1e-8

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


def reference_monotone(problem, h0, v0, direction, *, h_top=None, stop_below_sup=None):
    """The sweeps of monotone_iterate written per component, with fresh
    arrays and separate H and V reductions: its active-node history, sweeps,
    converged, k_c and final change, or the MonotonicityError it raises."""
    h_start, v_start = problem.op1.restrict(h0), problem.op2.restrict(v0)
    if h_top is not None:
        top = problem.op1.restrict(h_top)
    elif direction == "down":
        top = h_start
    else:
        top = ShiftedSolve(problem.op1, problem.rho).solve_active(problem.s1hu * problem.v_plus)
    k2_base = problem.sweep_potential(top)

    def run(scale):
        k1, k2 = scale * problem.rho, scale * k2_base
        s1, s2 = ShiftedSolve(problem.op1, k1), ShiftedSolve(problem.op2, k2)
        k_min = min(float(k1.min()), float(k2.min()))
        stiff = max(float(problem.op1.diag.max()), float(problem.op2.diag.max()))
        stiff += max(float(k1.max()), float(k2.max()))
        mono_coef = 256.0 * np.finfo(float).eps * stiff
        h, v = h_start.copy(), v_start.copy()
        history, change, converged = [], np.inf, False
        for sweep in range(1, MAX_SWEEPS + 1):
            h_new = s1.solve_active(problem.s1hu * v + (k1 - problem.rho) * h)
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
            collapsed = (
                stop_below_sup is not None
                and max(float(h.max(initial=0.0)), float(v.max(initial=0.0))) < stop_below_sup
            )
            converged = change < SWEEP_TOL or collapsed
            if converged:
                break
        return history, sweep if converged else MAX_SWEEPS, converged, float(k2.max()), change

    try:
        return run(1.0)
    except MonotonicityError:
        return run(2.0)


class TestMonotoneSweepOracle:
    """The stacked, allocation-free sweep kernel reproduces the per-component
    sweeps bit for bit: every iterate, the sweep count, the stop reason,
    K_c and the final change, and the error of a failed retry."""

    @staticmethod
    def assert_matches(problem, h0, v0, direction, **kwargs):
        history, sweeps, converged, k_c, change = reference_monotone(
            problem, h0, v0, direction, **kwargs
        )
        run = monotone_iterate(problem, h0, v0, direction, keep_history=True, **kwargs)
        assert (run.sweeps, run.converged, run.k_c, run.final_change) == (
            sweeps, converged, k_c, change
        )
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

    def test_doubling_retry(self):
        coeffs, bc, log, problem = criterion4_scenario(2, 6)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        lo_h, lo_v = self.lower_pair(coeffs, log, bc)
        low = vh.ScalarField(h_bar.mesh, 0.6 * h_bar.values)
        run = self.assert_matches(problem, lo_h, lo_v, "up", h_top=low)
        assert run.k_c == float((2.0 * problem.sweep_potential(problem.op1.restrict(low))).max())

    def test_failed_retry_raises_the_same_error(self):
        coeffs, bc, log, problem = criterion4_scenario(2, 6)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        lo_h, lo_v = self.lower_pair(coeffs, log, bc)
        low = vh.ScalarField(h_bar.mesh, 0.3 * h_bar.values)
        with pytest.raises(MonotonicityError) as ref:
            reference_monotone(problem, lo_h, lo_v, "up", h_top=low)
        with pytest.raises(MonotonicityError) as got:
            monotone_iterate(problem, lo_h, lo_v, "up", h_top=low)
        assert str(got.value) == str(ref.value)

    def test_collapse_stop(self):
        """Neumann seed 3 has lambda_system > 0: the down run collapses to zero
        and stops on stop_below_sup before the change drops below tolerance."""
        coeffs, bc, log, problem = criterion4_scenario(0, 3)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        run = self.assert_matches(problem, h_bar, log.v_b, "down", stop_below_sup=2e-6)
        assert run.converged and run.final_change >= SWEEP_TOL

    def test_padded_factor(self):
        """n = 4 under Dirichlet leaves m = 2 active nodes, which _factor pads
        to the three rows scipy's wrappers need."""
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


class TestSweepCap:
    """A monotone iteration that stops at max_sweeps is a convergence
    failure, not evidence against uniqueness, and is never silent."""

    def test_cap_hit_with_disagreeing_limits_is_convergence_error(self, unit_mesh, neumann):
        expected = "downward monotone iteration hit its cap of 3 sweeps"
        with pytest.raises(ConvergenceError, match=expected):
            vh.solve_endemic(constants_coeffs(unit_mesh), neumann, 0.0, max_sweeps=3)

    def test_cap_hit_rescued_by_polish_is_recorded(self, unit_mesh, neumann):
        coeffs = constants_coeffs(unit_mesh)
        capped = vh.solve_endemic(coeffs, neumann, 0.0, max_sweeps=20)
        assert (capped.converged_upper, capped.converged_lower) == (False, False)
        assert (capped.iterations_upper, capped.iterations_lower) == (20, 20)
        full = vh.solve_endemic(coeffs, neumann, 0.0)
        assert full.converged_upper and full.converged_lower
        assert vh.sup_distance(capped.h_i, full.h_i) < 1e-8
        assert vh.sup_distance(capped.v_i, full.v_i) < 1e-8

    def test_former_cap_hitter_converges(self):
        """Robin seed 6 of criterion 4 (bench panel index 14) ran both monotone
        iterations into the 5,000-sweep cap under one scalar K_c."""
        coeffs, bc, log, _ = criterion4_scenario(2, 6)
        eq = vh.solve_endemic(coeffs, bc, logistic=log)
        assert eq.converged_upper and eq.converged_lower
        assert max(eq.iterations_upper, eq.iterations_lower) <= 100


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
