import ast
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
    MonotonicityError,
    ValidationError,
)
from vectorhost.operators import ShiftedSolve
from vectorhost.steady import (
    MAX_POLISH,
    POLISH_TOL,
    SWEEP_TOL,
    EndemicProblem,
    check_eps_admissibility,
    default_weight,
    monotone_iterate,
)

from helpers import CLOSURES, constants_coeffs, criterion4_scenario


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


def reference_monotone(problem, h0, v0, direction, *, h_top=None, redamp=None, history=None):
    """The sweeps of monotone_iterate written per component, with fresh
    arrays and separate H and V reductions, re-damping a "down" run from its
    H after sweeps 1, 2, 4, 8, ...: its active-node history, sweeps,
    converged, k_c and final change, or the MonotonicityError it raises.

    redamp maps a sweep to the H that K2 is re-damped from after it, in
    place of that rule: the schedule that a paired downward run sets (see
    pair_schedule).  A given history list receives the iterates, so it
    holds those before a wrong-way sweep too.  The cap is steady.MAX_SWEEPS
    at the time of the call."""
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
    history = [] if history is None else history
    change, converged = np.inf, False
    for sweep in range(1, steady.MAX_SWEEPS + 1):
        if redamp is not None:
            damp_from = top if sweep == 1 else redamp.get(sweep - 1)
        elif sweep == 1 or (direction == "down" and math.log2(sweep - 1).is_integer()):
            damp_from = top if sweep == 1 else h
        else:
            damp_from = None
        if damp_from is not None:
            k2 = problem.sweep_potential(damp_from)
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


def pair_schedule(history, converged):
    """The K2 schedule that a downward run with this history sets for an
    upward run swept in lockstep with it: its H after sweeps 1, 2, 4, ...,
    and its limit after its last sweep once it has converged."""
    redamp = {k: history[k - 1][0] for k in range(1, len(history) + 1) if k & (k - 1) == 0}
    if converged:
        redamp[len(history)] = history[-1][0]
    return redamp


class TestMonotoneSweepOracle:
    """The stacked, allocation-free sweep kernel reproduces the per-component
    sweeps bit for bit: every iterate, the sweep count, the stop reason,
    K_c and the final change, and the error of a wrong-way sweep."""

    @staticmethod
    def assert_is(problem, run, ref):
        """run returned the reference's iterates, sweeps, stop, K_c and change."""
        history, sweeps, converged, k_c, change = ref
        assert (run.sweeps, run.converged, run.k_c) == (sweeps, converged, k_c)
        assert run.final_change.hex() == change.hex()  # the sign of a zero too
        assert len(run.history) == len(history)
        for (h, v), (h_ref, v_ref) in zip(run.history, history):
            assert np.array_equal(h.values, problem.op1.embed(h_ref))
            assert np.array_equal(v.values, problem.op2.embed(v_ref))
        assert np.array_equal(run.h.values, run.history[-1][0].values)
        assert np.array_equal(run.v.values, run.history[-1][1].values)

    def assert_matches(self, problem, h0, v0, direction, **kwargs):
        run = monotone_iterate(problem, h0, v0, direction, keep_history=True, **kwargs)
        self.assert_is(problem, run, reference_monotone(problem, h0, v0, direction, **kwargs))
        return run

    @staticmethod
    def pair(problem, upper, lower, h_bar, keep_history):
        """The downward run from upper and the upward run from lower, swept
        in lockstep with K2 first damped from h_bar, as solve_endemic runs
        them."""
        (uh, uv), (lh, lv) = upper, lower
        restrict1, restrict2 = problem.op1.restrict, problem.op2.restrict
        runs = [(restrict1(uh), restrict2(uv), "down"), (restrict1(lh), restrict2(lv), "up")]
        return steady._monotone_runs(problem, runs, restrict1(h_bar), keep_history)

    def assert_pair_matches(self, problem, upper, lower, h_bar):
        """The pair's downward run is the standalone one, bit for bit, and its
        upward run the reference under the schedule the downward run sets."""
        down, up = self.pair(problem, upper, lower, h_bar, True)
        ref_down = reference_monotone(problem, *upper, "down")
        self.assert_is(problem, down, ref_down)
        self.assert_is(problem, monotone_iterate(problem, *upper, "down", keep_history=True), ref_down)
        redamp = pair_schedule(ref_down[0], ref_down[2])
        self.assert_is(problem, up, reference_monotone(problem, *lower, "up", h_top=h_bar, redamp=redamp))
        return down, up

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

    @pytest.mark.parametrize("kind_index, seed", [(0, 2), (1, 5), (2, 6)])
    def test_down_and_up_in_lockstep(self, kind_index, seed):
        """The pair of solve_endemic: the upward run, damped first from H_bar,
        then from the downward run's H after passes 1, 2, 4, ... and from its
        limit, goes on alone after the downward run retires."""
        coeffs, bc, log, problem = criterion4_scenario(kind_index, seed)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        lower = self.lower_pair(coeffs, log, bc)
        down, up = self.assert_pair_matches(problem, (h_bar, log.v_b), lower, h_bar)
        assert down.converged and up.converged and up.sweeps > down.sweeps
        assert up.k_c == down.k_c == float(problem.sweep_potential(problem.op1.restrict(h_bar)).max())

    @pytest.mark.parametrize("capped", ["up", "down"])
    def test_cap_hit_of_one_run(self, capped, monkeypatch):
        """One run of the pair converges and the other hits the cap: an upward
        run from the lower pair capped after the downward run retired, or a
        downward run capped after an upward run from just below the root (a
        lower solution, the reaction being sublinear) retired."""
        coeffs, bc, log, problem = criterion4_scenario(0, 2)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        if capped == "up":
            lower, cap = self.lower_pair(coeffs, log, bc), 12
        else:
            eq = vh.solve_endemic(coeffs, bc, logistic=log)
            s = 1.0 - 1e-9
            lower = tuple(vh.ScalarField(h_bar.mesh, s * f.values) for f in (eq.h_i, eq.v_i))
            cap = 6
        monkeypatch.setattr(steady, "MAX_SWEEPS", cap)
        down, up = self.assert_pair_matches(problem, (h_bar, log.v_b), lower, h_bar)
        runs = {"down": down, "up": up}
        assert runs[capped].sweeps == cap and not runs[capped].converged
        assert runs[capped].final_change >= SWEEP_TOL
        other = runs["up" if capped == "down" else "down"]
        assert other.converged and other.sweeps < cap

    @pytest.mark.parametrize("wrong", ["down", "up"])
    def test_pair_wrong_way_raises_the_same_error(self, wrong, monkeypatch):
        """A K2 too small for the order interval: for every damping, which
        makes the downward run rise first, or only for the one taken from the
        downward limit, which makes the upward run, then alone, fall."""
        coeffs, bc, log, problem = criterion4_scenario(0, 2)
        h_bar = vh.upper_solution_h(coeffs, log.v_b, bc)
        lower = self.lower_pair(coeffs, log, bc)
        limit = problem.op1.restrict(monotone_iterate(problem, h_bar, log.v_b, "down").h)
        strong = problem.sweep_potential
        if wrong == "down":
            weak = lambda top: 0.3 * strong(top)  # noqa: E731
        else:
            weak = lambda top: 0.3 * strong(top) if np.array_equal(top, limit) else strong(top)  # noqa: E731
        monkeypatch.setattr(problem, "sweep_potential", weak)
        history = []
        if wrong == "down":
            with pytest.raises(MonotonicityError) as ref:
                reference_monotone(problem, h_bar, log.v_b, "down", history=history)
        else:
            converged = reference_monotone(problem, h_bar, log.v_b, "down", history=history)[2]
            redamp = pair_schedule(history, converged)
            with pytest.raises(MonotonicityError) as ref:
                reference_monotone(problem, *lower, "up", h_top=h_bar, redamp=redamp)
            assert int(str(ref.value).split()[1]) > len(history)  # after the downward run retired
        with pytest.raises(MonotonicityError) as got:
            self.pair(problem, (h_bar, log.v_b), lower, h_bar, False)
        assert str(got.value) == str(ref.value)

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
        """A start a few ulps below the polished root: the one "down" sweep
        rises at some node by less than the round-off tolerance, so the
        tolerance is computed and passed, not skipped."""
        coeffs, bc, log, problem = criterion4_scenario(0, 2)
        eq = vh.solve_endemic(coeffs, bc, logistic=log)
        h0, v0 = eq.h_i.values, eq.v_i.values
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
        the two rows as they are (m = 1 is padded: TestDirichletOneNode)."""
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


def reference_polish(problem, h, v, box):
    """_newton_polish without its early exit: a rejected step is halved
    until alpha reaches 2^-20, 20 trials in all, except that a search from
    a residual at or below its round-off floor tries the full step only.
    Returns (h, v, rn) and, per search, (accepted, trials, the first trial
    whose clipped point was the current iterate or None, below the floor)."""
    (h_lo, v_lo), (h_hi, v_hi) = box
    r1, r2 = problem.residual(h, v)
    rn = float(max(np.abs(r1).max(), np.abs(r2).max()))
    m = problem.m
    searches = []
    for _ in range(MAX_POLISH):
        if rn <= POLISH_TOL:
            break
        delta = problem.jacobian(h, v)(-np.concatenate([r1, r2]))
        scale = 1.0 + max(float(np.abs(h).max()), float(np.abs(v).max()))
        below = rn <= roundoff_floor(problem.stiffness) * scale
        still, improved = None, False
        for trials in range(1, 2 if below else 21):
            alpha = 2.0 ** (1 - trials)
            h_t = np.clip(h + alpha * delta[:m], h_lo, h_hi)
            v_t = np.clip(v + alpha * delta[m:], v_lo, v_hi)
            if still is None and np.array_equal(h_t, h) and np.array_equal(v_t, v):
                still = trials
            r1_t, r2_t = problem.residual(h_t, v_t)
            rn_t = float(max(np.abs(r1_t).max(), np.abs(r2_t).max()))
            if rn_t < rn:
                h, v, r1, r2, rn = h_t, v_t, r1_t, r2_t, rn_t
                improved = True
                break
        searches.append((improved, trials, still, below))
        if not improved:
            break
    return (h, v, rn), searches


class TestNewtonPolishOracle:
    """The polish line search stops at a trial that is the current iterate,
    and returns the bits of the search that tries every halving, or only
    the full step from a residual at its round-off floor."""

    @staticmethod
    def polish_inputs(kind_index, seed, monkeypatch):
        """The (problem, h, v, box) of both polishes of a criterion-4 solve."""
        coeffs, bc, log, _ = criterion4_scenario(kind_index, seed)
        calls = []
        polish = steady._newton_polish

        def spy(*args):
            calls.append(args)
            return polish(*args)

        with monkeypatch.context() as patch:
            patch.setattr(steady, "_newton_polish", spy)
            vh.solve_endemic(coeffs, bc, logistic=log)
        assert len(calls) == 2
        return calls

    @staticmethod
    def counted_polish(problem, h, v, box, monkeypatch):
        """_newton_polish and the number of residual calls it made."""
        count = [0]
        residual = EndemicProblem.residual

        def spy(self, *args):
            count[0] += 1
            return residual(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(EndemicProblem, "residual", spy)
            out = steady._newton_polish(problem, h, v, box)
        return out, count[0]

    @staticmethod
    def assert_same_bits(got, ref):
        (h, v, rn), (h_ref, v_ref, rn_ref) = got, ref
        assert h.tobytes() == h_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        assert rn.hex() == rn_ref.hex()

    # A search from a residual at or below its round-off floor tries the
    # full step only, and on these scenarios no accepted step is halved.
    # Neumann seed 16 stops at POLISH_TOL.  Neumann seeds 32 and 98 end both
    # polishes in a search below the floor whose full step clips onto the
    # iterate, which costs no residual call; Dirichlet seed 5 ends both in
    # one whose full step is evaluated and rejected.  Seeds 32 and 5 are the
    # first of their closure on those paths.  Halvings above the floor,
    # which seeds 0 and 5 used to take, no longer occur on criterion 4's
    # scenarios (seeds 0-200 of each closure); the two tests below cover
    # that code.
    @pytest.mark.parametrize(
        "kind_index, seed, stop, halvings",
        [(0, 16, "tol", 0), (0, 32, "clipped", 0), (1, 5, "rejected", 0), (0, 98, "clipped", 0)],
    )
    def test_matches_the_full_search(self, kind_index, seed, stop, halvings, monkeypatch):
        longest = 0
        for args in self.polish_inputs(kind_index, seed, monkeypatch):
            ref, searches = reference_polish(*args)
            got, calls = self.counted_polish(*args, monkeypatch)
            self.assert_same_bits(got, ref)
            accepted, trials, still, below = searches[-1]
            if stop == "tol":
                assert accepted and ref[2] <= POLISH_TOL
                assert calls == 1 + sum(t for _, t, _, _ in searches)
            else:
                # The failed search is below the floor and tries the full
                # step alone; a trial clipped onto the iterate is not evaluated.
                assert not accepted and below and trials == 1
                assert still == (1 if stop == "clipped" else None)
                assert calls == 1 + sum(t for _, t, _, _ in searches[:-1]) + (still is None)
            longest = max([longest] + [t - 1 for ok, t, _, _ in searches if ok])
        assert longest == halvings  # the halvings before an accepted step

    def test_stall_below_the_floor_costs_one_residual(self, monkeypatch):
        """Restarted at the point where it stalled, the polish's one search
        starts below the round-off floor: its full step is evaluated once
        and rejected, where the halving search made 20 residual calls."""
        (problem, h, v, box), _ = self.polish_inputs(1, 5, monkeypatch)
        (h1, v1, rn), _ = self.counted_polish(problem, h, v, box, monkeypatch)
        assert POLISH_TOL < rn <= problem.roundoff(h1, v1)
        got, calls = self.counted_polish(problem, h1, v1, box, monkeypatch)
        assert calls == 1 + 1  # the starting residual, then the full step
        assert got[0] is h1 and got[1] is v1 and got[2] == rn
        ref, searches = reference_polish(problem, h1, v1, box)
        assert searches == [(False, 1, None, True)]
        self.assert_same_bits(got, ref)

    def test_search_that_never_reaches_the_iterate_runs_every_halving(self, monkeypatch):
        """A box pinned to one point off the iterate clips every trial onto
        it; when that point's residual is the larger, each of the 20 trials
        is evaluated and rejected."""
        (problem, h, v, _), _ = self.polish_inputs(0, 1, monkeypatch)
        h0, v0 = h * (1.0 + 1e-6), v * (1.0 + 1e-6)
        box = ((1.5 * h, 1.5 * v), (1.5 * h, 1.5 * v))
        ref, searches = reference_polish(problem, h0, v0, box)
        assert searches == [(False, 20, None, False)]
        got, calls = self.counted_polish(problem, h0, v0, box, monkeypatch)
        self.assert_same_bits(got, ref)
        assert calls == 1 + 20
        assert got[0] is h0 and got[1] is v0

    def test_trial_at_the_iterate_in_one_component_only_goes_on(self, monkeypatch):
        """A box that pins H at the iterate keeps every trial's H there, while
        the V steps are still accepted: the exit needs both components.
        Neumann seed 2 is the first whose first polish takes that path."""
        (problem, h, v, ((_, v_lo), (_, v_hi))), _ = self.polish_inputs(0, 2, monkeypatch)
        v0 = v * (1.0 + 1e-6)
        box = ((h, v_lo), (h, v_hi))
        ref, searches = reference_polish(problem, h, v0, box)
        assert searches[0] == (True, 1, None, False) and len(searches) > 2
        self.assert_same_bits(steady._newton_polish(problem, h, v0, box), ref)


class TestSweepCap:
    """A monotone iteration that stops at MAX_SWEEPS is a convergence
    failure, not evidence against uniqueness, and is never silent."""

    def test_cap_hit_with_disagreeing_limits_is_convergence_error(
        self, unit_mesh, neumann, monkeypatch
    ):
        monkeypatch.setattr(steady, "MAX_SWEEPS", 3)
        expected = "downward monotone iteration hit its cap of 3 sweeps"
        with pytest.raises(ConvergenceError, match=expected):
            vh.solve_endemic(constants_coeffs(unit_mesh), neumann, 0.0)

    def test_cap_hit_rescued_by_polish_is_recorded(self, unit_mesh, neumann, monkeypatch):
        coeffs = constants_coeffs(unit_mesh)
        with monkeypatch.context() as patch:
            patch.setattr(steady, "MAX_SWEEPS", 20)
            capped = vh.solve_endemic(coeffs, neumann, 0.0)
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


class TestResidualGate:
    @pytest.mark.parametrize("kind_index, seed", [(2, 19), (1, 43), (2, 46)])
    def test_unconverged_limits_are_not_a_uniqueness_violation(self, kind_index, seed, monkeypatch):
        """With SWEEP_TOL = 1e-3 the upward Newton polish of these criterion-4
        scenarios stalls far above the residual gate, and the two limits
        disagree: a convergence failure, not evidence against uniqueness."""
        coeffs, bc, log, _ = criterion4_scenario(kind_index, seed)
        monkeypatch.setattr(steady, "SWEEP_TOL", 1e-3)
        with pytest.raises(ConvergenceError, match="residual above tolerance"):
            vh.solve_endemic(coeffs, bc, logistic=log)


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
