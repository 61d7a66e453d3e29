"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criteria cover: closed-form eigenvalue oracles, dense-
matrix eigen agreement, closed-form equilibria with monotone-sweep
integrity, the existence-iff-sign dichotomy over seeded random scenarios,
convergence of the three canonical threshold runs, exactness of the
summed-vector reduction, the Dirichlet moving envelope, monotone auxiliary
flows, trajectory comparison, and mesh-refinement order.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import vectorhost as vh
from vectorhost import verify
from vectorhost.steady import EndemicProblem, monotone_iterate, upper_solution_h

from helpers import constants_coeffs, dense_system_eig, make_state


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {label}")
        raise
    print(f"[criterion {num:2d}] PASS  {label}")


def neumann():
    return vh.BoundarySpec.neumann()


def dirichlet():
    return vh.BoundarySpec.dirichlet()


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_scalar_eigen_oracles():
    with criterion(1, "scalar eigenvalue closed forms (Neumann exact, Dirichlet O(h^2))"):
        mesh = vh.build_mesh(0, 1, 201)
        d2 = vh.field_from_constant(mesh, 1.0)
        for beta0 in (0.5, 1.0, 2.0):
            t0 = time.perf_counter()
            eig = vh.principal_eigen_scalar(
                d2, vh.field_from_constant(mesh, beta0), neumann()
            )
            elapsed = time.perf_counter() - t0
            assert abs(eig.lam - (-beta0)) <= 1e-10, f"beta={beta0}: lam={eig.lam}"
            assert elapsed < 1.0, f"beta={beta0}: took {elapsed:.2f}s"
        for n, tol in ((401, 1e-3), (801, 2.5e-4)):
            mesh_pi = vh.build_mesh(0, np.pi, n)
            t0 = time.perf_counter()
            eig = vh.principal_eigen_scalar(
                vh.field_from_constant(mesh_pi, 1.0),
                vh.field_from_constant(mesh_pi, 0.5),
                dirichlet(),
            )
            elapsed = time.perf_counter() - t0
            assert abs(eig.lam - 0.5) <= tol, f"n={n}: |lam-0.5|={abs(eig.lam - 0.5):.2e}"
            assert elapsed < 1.0, f"n={n}: took {elapsed:.2f}s"


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_system_eigen_oracles():
    with criterion(2, "system eigenvalue: constants closed form + dense-matrix agreement"):
        mesh = vh.build_mesh(0, 1, 101)
        coeffs = constants_coeffs(mesh)
        vb = vh.field_from_constant(mesh, 1.0)
        eig = vh.principal_eigen_system(coeffs, vb, neumann())
        assert abs(eig.lam - (1 - np.sqrt(2))) <= 1e-8
        for phi in (eig.phi1, eig.phi2):
            spread = phi.values.max() - phi.values.min()
            assert spread <= 1e-8 * phi.values.max(), f"relative variation {spread:.2e}"
        for seed in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([2, seed]))
            rc = verify.random_coefficients(mesh, rng)
            logistic = vh.solve_logistic(rc, neumann())
            lam_iter = vh.principal_eigen_system(rc, logistic.v_b, neumann()).lam
            lam_dense, imag, vec = dense_system_eig(rc, logistic.v_b, neumann())
            assert imag < 1e-8
            assert abs(lam_iter - lam_dense) <= 1e-8, f"seed {seed}: {abs(lam_iter - lam_dense):.2e}"


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_endemic_closed_form():
    with criterion(3, "endemic equilibrium closed form + dual-limit agreement + sweep monotonicity"):
        mesh = vh.build_mesh(0, 1, 201)
        bc = neumann()
        coeffs = constants_coeffs(mesh)
        eq = vh.solve_endemic(coeffs, bc)  # enforces 2e-8 dual-limit agreement internally
        assert isinstance(eq, vh.EndemicEquilibrium)
        assert np.abs(eq.h_i.values - 1.0).max() <= 1e-8
        assert np.abs(eq.v_i.values - 0.5).max() <= 1e-8
        assert np.abs(eq.v_u.values - 0.5).max() <= 1e-8

        logistic = vh.solve_logistic(coeffs, bc)
        sys_eig = vh.principal_eigen_system(coeffs, logistic.v_b, bc)
        problem = EndemicProblem(coeffs, bc, logistic.v_b)
        h_bar = upper_solution_h(coeffs, logistic.v_b, bc)
        down = monotone_iterate(problem, h_bar, logistic.v_b, "down", keep_history=True)
        assert down.converged
        prev = (h_bar.values, logistic.v_b.values)
        for h, v in down.history:  # zero nodewise violations, every sweep
            assert np.all(h.values <= prev[0] + 1e-10)
            assert np.all(v.values <= prev[1] + 1e-10)
            prev = (h.values, v.values)
        lo_h = vh.ScalarField(mesh, 1e-6 * sys_eig.phi1.values)
        lo_v = vh.ScalarField(mesh, 1e-6 * sys_eig.phi2.values)
        up = monotone_iterate(problem, lo_h, lo_v, "up", keep_history=True)
        assert up.converged
        prev = (lo_h.values, lo_v.values)
        for h, v in up.history:
            assert np.all(h.values >= prev[0] - 1e-10)
            assert np.all(v.values >= prev[1] - 1e-10)
            prev = (h.values, v.values)


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_existence_iff_sign():
    with criterion(4, "existence iff negative eigenvalue, 50 scenarios per boundary kind"):
        t0 = time.perf_counter()
        specs = (
            ("neumann", vh.BoundarySpec.neumann(), (0.0, 1.0)),
            ("dirichlet", vh.BoundarySpec.dirichlet(), (0.0, 5.0)),
            ("robin", vh.BoundarySpec.robin(1.0, 0.5), (0.0, 5.0)),
        )
        for kind_index, (kind, bc, (a, b)) in enumerate(specs):
            mesh = vh.build_mesh(a, b, 101)
            count = 0
            seed = 0
            while count < 50:
                seed += 1
                rng = np.random.default_rng(np.random.SeedSequence([4, kind_index, seed]))
                coeffs = verify.random_coefficients(mesh, rng)
                eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, bc)
                if eig.lam >= 0:
                    continue
                logistic = vh.solve_logistic(coeffs, bc, scalar_eig=eig)
                sys_eig = vh.principal_eigen_system(coeffs, logistic.v_b, bc)
                if abs(sys_eig.lam) <= 1e-3:
                    continue
                count += 1
                res = vh.solve_endemic(coeffs, bc, 0.0, logistic=logistic,
                                       scalar_eig=eig, eigenpair=sys_eig)
                if sys_eig.lam < 0:
                    assert isinstance(res, vh.EndemicEquilibrium), (
                        f"{kind} seed {seed}: lam={sys_eig.lam:.4f} but no equilibrium"
                    )
                    interior = mesh.interior
                    assert np.all(res.v_i.values[interior] < logistic.v_b.values[interior]), (
                        f"{kind} seed {seed}: V_i not strictly below V_B"
                    )
                else:
                    assert isinstance(res, vh.EndemicAbsent), (
                        f"{kind} seed {seed}: lam={sys_eig.lam:.4f} but equilibrium found"
                    )
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ------------------------------------------------------- criteria 5 + 6 setup


def _canonical_scenarios():
    mesh = vh.build_mesh(0, 1, 201)
    mesh_pi = vh.build_mesh(0, np.pi, 201)
    bump = np.sin(mesh_pi.nodes)
    dirichlet_init = vh.State(
        0.0,
        vh.ScalarField(mesh_pi, 0.2 * bump),
        vh.ScalarField(mesh_pi, 0.5 * bump),
        vh.ScalarField(mesh_pi, 0.2 * bump),
    )
    return [
        ("endemic", constants_coeffs(mesh), neumann(),
         make_state(mesh, 0.1, 0.8, 0.2), "Endemic"),
        ("disease_free", constants_coeffs(mesh, h_u=0.5), neumann(),
         make_state(mesh, 0.1, 0.8, 0.2), "DiseaseFree"),
        ("extinct", constants_coeffs(mesh_pi, beta=0.5), dirichlet(),
         dirichlet_init, "Extinct"),
    ]


@pytest.fixture(scope="module")
def canonical_runs():
    runs = {}
    for name, coeffs, bc, init, predicted in _canonical_scenarios():
        dt = vh.stability_dt_max(coeffs, init)
        cfg = vh.StepperConfig(dt=dt, t_end=200.0)
        t0 = time.perf_counter()
        report = verify.run_threshold_experiment(coeffs, bc, init, cfg, distance_tol=1e-4)
        elapsed = time.perf_counter() - t0
        runs[name] = dict(coeffs=coeffs, bc=bc, init=init, cfg=cfg,
                          report=report, predicted=predicted, elapsed=elapsed)
    return runs


def test_criterion_05_threshold_dynamics(canonical_runs):
    with criterion(5, "three canonical runs reach their attractors below 1e-4 by t=200"):
        expected_attractors = {
            "endemic": (1.0, 0.5, 0.5),
            "disease_free": (0.0, 1.0, 0.0),
            "extinct": (0.0, 0.0, 0.0),
        }
        for name, run in canonical_runs.items():
            rep = run["report"]
            assert rep.predicted_attractor == run["predicted"], name
            assert rep.final_sup_distance < 1e-4, (
                f"{name}: final distance {rep.final_sup_distance:.2e}"
            )
            assert rep.time_to_tolerance is not None and rep.time_to_tolerance <= 200.0
            assert run["elapsed"] < 30.0, f"{name}: took {run['elapsed']:.1f}s"
            att = rep.attractor
            h, vu, vi = expected_attractors[name]
            assert np.abs(att.h_i.values - h).max() < 1e-7 or name == "extinct"
            assert abs(att.v_u.values.max() - vu) < 1e-7
            assert abs(att.v_i.values.max() - vi) < 1e-7


def test_criterion_06_v_reduction_exactness(canonical_runs):
    with criterion(6, "V_u + V_i equals the scalar trajectory within 1e-8 at all snapshots"):
        for name, run in canonical_runs.items():
            rep = run["report"]
            times = [row.t for row in rep.trajectory]
            v0 = vh.ScalarField(run["init"].mesh,
                                run["init"].v_u.values + run["init"].v_i.values)
            full = vh.integrate(run["init"], run["coeffs"], run["bc"], run["cfg"],
                                snapshot_times=times)
            scalar = vh.integrate_scalar_logistic(
                v0, run["coeffs"], run["bc"], run["cfg"],
                snapshot_times=times)
            scalar_by_t = {t: f for t, f in scalar.snapshots}
            compared = 0
            for st in full.snapshots:
                vf = scalar_by_t.get(st.t)
                if vf is None:
                    continue
                gap = np.abs(st.v_u.values + st.v_i.values - vf.values).max()
                assert gap <= 1e-8, f"{name} t={st.t}: gap {gap:.2e}"
                compared += 1
            assert compared >= 10, f"{name}: only {compared} shared snapshots"


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_envelope():
    with criterion(7, "moving envelope: finite entry time, then strict containment to t=200"):
        mesh = vh.build_mesh(0, np.pi, 201)
        coeffs = constants_coeffs(mesh, beta=2.0)
        bump = np.sin(mesh.nodes)
        small = vh.ScalarField(mesh, 0.05 * bump)
        init = vh.State(0.0, small, small, small)
        dt = vh.stability_dt_max(coeffs, init)
        env = verify.check_envelope_dirichlet(
            coeffs, init, 0.05, vh.StepperConfig(dt=dt, t_end=200.0)
        )
        assert env.t_eps is not None, "no entry time found"
        assert env.t_eps < 200.0
        assert env.held_until_end, "envelope broken after entry"


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_monotone_auxiliary_flows():
    with criterion(8, "auxiliary flows: non-increasing from above, non-decreasing from below"):
        mesh = vh.build_mesh(0, 1, 201)
        bc = neumann()
        coeffs = constants_coeffs(mesh)
        logistic = vh.solve_logistic(coeffs, bc)
        eps = 0.01
        eq = vh.solve_endemic(coeffs, bc, eps, logistic=logistic)
        assert isinstance(eq, vh.EndemicEquilibrium)
        cfg = vh.StepperConfig(dt=0.05, t_end=400.0)
        down = vh.integrate_aux_pair(
            vh.ScalarField(mesh, 3.0 * eq.h_i.values),
            vh.ScalarField(mesh, 3.0 * eq.v_i.values),
            coeffs, logistic.v_b, bc, cfg,
            eps=eps, monotone="nonincreasing",
        )
        assert down.monotone_ok and down.max_violation <= 1e-10, (
            f"down flow violated by {down.max_violation:.2e}"
        )
        assert vh.sup_distance(down.h, eq.h_i) < 1e-5
        sys_eig = vh.principal_eigen_system(coeffs, logistic.v_b, bc, eps)
        up = vh.integrate_aux_pair(
            vh.ScalarField(mesh, 1e-6 * sys_eig.phi1.values),
            vh.ScalarField(mesh, 1e-6 * sys_eig.phi2.values),
            coeffs, logistic.v_b, bc, cfg,
            eps=eps, monotone="nondecreasing",
        )
        assert up.monotone_ok and up.max_violation <= 1e-10, (
            f"up flow violated by {up.max_violation:.2e}"
        )
        assert vh.sup_distance(up.h, eq.h_i) < 1e-4


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_comparison_principle():
    with criterion(9, "20 ordered initial pairs stay ordered in (H_i, V_i) to t=50"):
        mesh = vh.build_mesh(0, 1, 101)
        bc = neumann()
        for seed in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([9, seed]))
            coeffs = verify.random_coefficients(mesh, rng)
            big = verify.random_initial(mesh, bc, rng)
            small = vh.State(
                0.0,
                vh.ScalarField(mesh, 0.5 * big.h_i.values),
                vh.ScalarField(mesh, big.v_u.values + 0.5 * big.v_i.values),
                vh.ScalarField(mesh, 0.5 * big.v_i.values),
            )
            dt = vh.stability_dt_max(coeffs, big)
            rep = vh.compare_trajectories(
                small, big, coeffs, bc, vh.StepperConfig(dt=dt, t_end=50.0)
            )
            assert rep.ordered, (
                f"seed {seed}: ordering broke at t={rep.first_violation_time} "
                f"by {rep.max_violation:.2e}"
            )
            assert rep.max_violation <= 1e-10


# --------------------------------------------------------------- criterion 10


def test_criterion_10_mesh_refinement_order():
    with criterion(10, "doubling n cuts eigenvalue/equilibrium changes ~4x (ratio in [3,5])"):
        bc = neumann()

        def solve_at(n):
            mesh = vh.build_mesh(0, 1, n)
            x = mesh.nodes
            const = lambda c: vh.field_from_constant(mesh, c)
            coeffs = vh.CoefficientSet(
                d1=const(1), d2=const(1), rho=const(1), sigma1=const(1),
                sigma2=const(1),
                beta=vh.ScalarField(mesh, 1.0 + 0.25 * np.cos(np.pi * x)),
                mu=const(1),
                h_u=vh.ScalarField(mesh, 2.0 + 0.5 * np.cos(np.pi * x)),
            )
            logistic = vh.solve_logistic(coeffs, bc)
            sys_eig = vh.principal_eigen_system(coeffs, logistic.v_b, bc)
            eq = vh.solve_endemic(coeffs, bc, logistic=logistic, eigenpair=sys_eig)
            assert isinstance(eq, vh.EndemicEquilibrium)
            return (sys_eig.lam,
                    float(eq.h_i.values.max()),
                    float(eq.v_i.values.max()))

        coarse, mid, fine = solve_at(201), solve_at(401), solve_at(801)
        for i, label in enumerate(("lambda(V_B)", "sup H_i*", "sup V_i*")):
            d21 = coarse[i] - mid[i]
            d42 = mid[i] - fine[i]
            ratio = d21 / d42
            assert 3.0 <= ratio <= 5.0, f"{label}: ratio {ratio:.3f} outside [3, 5]"
