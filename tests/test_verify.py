import numpy as np
import pytest

import vectorhost as vh
from vectorhost import verify
from vectorhost.errors import AdmissibilityError, ValidationError

from helpers import constants_coeffs, make_state


class TestThresholdExperiment:
    def test_endemic_scenario(self, neumann):
        mesh = vh.build_mesh(0, 1, 101)
        coeffs = constants_coeffs(mesh)
        init = make_state(mesh, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.0625, t_end=150.0)
        rep = verify.run_threshold_experiment(coeffs, neumann, init, cfg)
        assert rep.predicted_attractor == verify.ENDEMIC
        assert rep.lambda_system == pytest.approx(1 - np.sqrt(2), abs=1e-8)
        assert rep.final_sup_distance < 1e-4
        assert rep.time_to_tolerance is not None
        assert not rep.slow_regime
        assert np.allclose(rep.attractor.h_i.values, 1.0, atol=1e-8)
        # settled trajectories sit on the computed equilibrium, and the
        # uninfected-vector limit is V_B - V_i*
        assert rep.steady
        assert rep.final_sup_distance <= 10 * cfg.steady_tol
        eq = rep.equilibrium
        assert np.allclose(eq.v_u.values, rep.v_b.values - eq.v_i.values, atol=1e-12)

    def test_disease_free_scenario(self, neumann):
        mesh = vh.build_mesh(0, 1, 101)
        coeffs = constants_coeffs(mesh, h_u=0.5)
        init = make_state(mesh, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.0625, t_end=150.0)
        rep = verify.run_threshold_experiment(coeffs, neumann, init, cfg)
        assert rep.predicted_attractor == verify.DISEASE_FREE
        assert rep.lambda_system > 0
        assert rep.final_sup_distance < 1e-4
        assert np.allclose(rep.attractor.v_u.values, 1.0, atol=1e-9)

    def test_extinct_scenario(self, dirichlet):
        mesh = vh.build_mesh(0, np.pi, 101)
        coeffs = constants_coeffs(mesh, beta=0.5)
        bump = np.sin(mesh.nodes)
        init = vh.State(0.0,
                        vh.ScalarField(mesh, 0.2 * bump),
                        vh.ScalarField(mesh, 0.5 * bump),
                        vh.ScalarField(mesh, 0.2 * bump))
        dt = vh.stability_dt_max(coeffs, init)
        rep = verify.run_threshold_experiment(coeffs, dirichlet, init,
                                              vh.StepperConfig(dt=dt, t_end=150.0))
        assert rep.predicted_attractor == verify.EXTINCT
        assert rep.lambda_beta == pytest.approx(0.5, abs=2e-3)
        assert rep.lambda_system is None
        assert rep.final_sup_distance < 1e-4

    def test_requires_positive_interior_initial(self, neumann):
        mesh = vh.build_mesh(0, 1, 51)
        coeffs = constants_coeffs(mesh)
        init = make_state(mesh, 0.0, 0.8, 0.2)
        with pytest.raises(ValidationError):
            verify.run_threshold_experiment(coeffs, neumann, init,
                                            vh.StepperConfig(dt=0.05, t_end=1.0))

    def test_trajectory_rows_match_the_snapshot_states(self, dirichlet):
        """threshold_report takes the sup norms of all snapshots from their
        stacked rows at once; they are those of each snapshot State, bit for
        bit, repeated snapshots included."""
        mesh = vh.build_mesh(0, 5, 51)
        sc = verify.random_scenario(mesh, dirichlet, np.random.default_rng(3))
        prediction = verify.classify_scenario(sc.coeffs, dirichlet, sc.initial)
        cfg = vh.StepperConfig(dt=vh.stability_dt_max(sc.coeffs, sc.initial), t_end=4.0)
        traj = vh.integrate(sc.initial, sc.coeffs, dirichlet, cfg,
                            snapshot_times=[0.0, 1.0, 1.0, 2.5, 4.0],
                            reference=prediction.attractor, reference_tol=1e-4)
        got = verify.threshold_report(prediction, traj, 1e-4).trajectory
        want = [
            verify.TrajectoryRow(st.t, dist, *(float(np.abs(f.values).max())
                                               for f in (st.h_i, st.v_u, st.v_i)))
            for st, dist in zip(traj.snapshots, traj.snapshot_distances, strict=True)
        ]
        assert len(got) == 5 and got[1] == got[2]
        assert [tuple(map(float.hex, row)) for row in got] == \
            [tuple(map(float.hex, row)) for row in want]

    def test_neumann_lambda_beta_always_negative(self, neumann):
        mesh = vh.build_mesh(0, 1, 101)
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            coeffs = verify.random_coefficients(mesh, rng)
            eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, neumann)
            assert eig.lam <= -coeffs.beta.values.min() + 1e-9

    def test_threshold_boundary_smoke(self, neumann):
        """Exactly critical coupling (lambda = 0): the infection still decays
        toward disease-free, just slowly; the run is flagged slow-regime."""
        mesh = vh.build_mesh(0, 1, 101)
        coeffs = constants_coeffs(mesh, h_u=1.0)  # sigma1 h_u sigma2 V_B = 1 = rho mu V_B
        init = make_state(mesh, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.0625, t_end=100.0)
        rep = verify.run_threshold_experiment(coeffs, neumann, init, cfg)
        assert abs(rep.lambda_system) < 1e-8
        assert rep.predicted_attractor == verify.DISEASE_FREE
        assert rep.slow_regime
        final = rep.final_state
        assert np.abs(final.h_i.values).max() < 0.5 * np.abs(init.h_i.values).max()
        assert abs(final.v_u.values.mean() + final.v_i.values.mean() - 1.0) < 1e-5

    def test_classification_matches_empirics(self, neumann):
        """Away from the threshold the trajectory heads for the predicted
        attractor and not for either alternative."""
        mesh = vh.build_mesh(0, 1, 101)
        checked = 0
        seed = 0
        while checked < 6:
            seed += 1
            rng = np.random.default_rng(np.random.SeedSequence([2024, seed]))
            scenario = verify.random_scenario(mesh, neumann, rng)
            coeffs = scenario.coeffs
            eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, neumann)
            log = vh.solve_logistic(coeffs, neumann, scalar_eig=eig)
            sys_eig = vh.principal_eigen_system(coeffs, log.v_b, neumann)
            if abs(sys_eig.lam) < 0.05:
                continue
            checked += 1
            dt = vh.stability_dt_max(coeffs, scenario.initial)
            rep = verify.run_threshold_experiment(
                coeffs, neumann, scenario.initial,
                vh.StepperConfig(dt=dt, t_end=300.0))
            final = rep.final_state
            zero = vh.field_from_constant(mesh, 0.0)
            candidates = {
                verify.DISEASE_FREE: (zero, log.v_b, zero),
                verify.ENDEMIC: None,
            }
            if rep.equilibrium is not None:
                eq = rep.equilibrium
                candidates[verify.ENDEMIC] = (eq.h_i, eq.v_u, eq.v_i)
            dists = {}
            for name, trio in candidates.items():
                if trio is None:
                    continue
                dists[name] = max(
                    vh.sup_distance(final.h_i, trio[0]),
                    vh.sup_distance(final.v_u, trio[1]),
                    vh.sup_distance(final.v_i, trio[2]),
                )
            assert min(dists, key=dists.get) == rep.predicted_attractor, (
                f"seed {seed}: predicted {rep.predicted_attractor}, dists {dists}"
            )


class TestEnvelope:
    def _setup(self, beta=2.0):
        mesh = vh.build_mesh(0, np.pi, 201)
        coeffs = constants_coeffs(mesh, beta=beta)
        return mesh, coeffs

    def test_from_equilibrium_holds_immediately(self, dirichlet):
        mesh, coeffs = self._setup()
        log = vh.solve_logistic(coeffs, dirichlet)
        half = vh.ScalarField(mesh, 0.5 * log.v_b.values)
        init = vh.State(0.0, vh.ScalarField(mesh, np.zeros(mesh.n) + 0.0), half, half)
        # h_i is irrelevant to the scalar envelope; keep it zero
        dt = vh.stability_dt_max(coeffs, init)
        env = verify.check_envelope_dirichlet(coeffs, init, 0.05,
                                              vh.StepperConfig(dt=dt, t_end=20.0))
        assert env.t_eps == 0.0
        assert env.held_until_end

    def test_entry_time_found_and_held(self, dirichlet):
        mesh, coeffs = self._setup()
        bump = np.sin(mesh.nodes)
        small = vh.ScalarField(mesh, 0.05 * bump)
        init = vh.State(0.0, small, small, small)
        dt = vh.stability_dt_max(coeffs, init)
        env = verify.check_envelope_dirichlet(coeffs, init, 0.05,
                                              vh.StepperConfig(dt=dt, t_end=100.0))
        assert env.t_eps is not None and env.t_eps > 0
        assert env.held_until_end

    def test_margins_at_requested_times(self, dirichlet):
        """Each margin row is the first state at or past its time (within
        1e-9), with its least distance to each side of the envelope."""
        mesh, coeffs = self._setup()
        small = vh.ScalarField(mesh, 0.05 * np.sin(mesh.nodes))
        init = vh.State(0.0, small, small, small)
        cfg = vh.StepperConfig(dt=vh.stability_dt_max(coeffs, init), t_end=10.0)
        times = np.linspace(0.0, cfg.t_end, 11)
        env = verify.check_envelope_dirichlet(coeffs, init, 0.05, cfg, margin_times=times)

        states = []
        vh.integrate_scalar_logistic(
            vh.ScalarField(mesh, 2 * small.values), coeffs, dirichlet, cfg,
            observer=lambda t, values: states.append((t, values[1:-1].copy())),
        )
        eig = vh.principal_eigen_scalar(coeffs.d2, coeffs.beta, dirichlet)
        v_b = vh.solve_logistic(coeffs, dirichlet).v_b.values
        lower = (v_b - 0.05 * eig.phi.values)[1:-1]
        upper = (v_b + 0.05 * eig.phi.values)[1:-1]
        want = []
        for time in times:
            t, v = next((t, v) for t, v in states if t >= time - 1e-9)
            want.append((t, float((v - lower).min()), float((upper - v).min())))
        assert env.margins == want
        assert env.margins[0][0] == 0.0 and env.margins[-1][0] == cfg.t_end

    @pytest.mark.parametrize("times", [0.5, [[0.0, 0.5]]], ids=["scalar", "2-D"])
    def test_margin_times_not_1d_rejected(self, dirichlet, times):
        mesh, coeffs = self._setup()
        small = vh.ScalarField(mesh, 0.05 * np.sin(mesh.nodes))
        init = vh.State(0.0, small, small, small)
        cfg = vh.StepperConfig(dt=vh.stability_dt_max(coeffs, init), t_end=1.0)
        with pytest.raises(ValidationError, match="snapshot times must be a 1-D sequence"):
            verify.check_envelope_dirichlet(coeffs, init, 0.05, cfg, margin_times=times)

    def test_inadmissible_eps_named(self, dirichlet):
        mesh, coeffs = self._setup()
        bump = np.sin(mesh.nodes)
        small = vh.ScalarField(mesh, 0.05 * bump)
        init = vh.State(0.0, small, small, small)
        with pytest.raises(AdmissibilityError):
            verify.check_envelope_dirichlet(coeffs, init, 5.0,
                                            vh.StepperConfig(dt=0.05, t_end=10.0))

    def test_requires_negative_lambda_beta(self, dirichlet):
        mesh, coeffs = self._setup(beta=0.5)
        bump = np.sin(mesh.nodes)
        small = vh.ScalarField(mesh, 0.05 * bump)
        init = vh.State(0.0, small, small, small)
        with pytest.raises(ValidationError):
            verify.check_envelope_dirichlet(coeffs, init, 0.05,
                                            vh.StepperConfig(dt=0.05, t_end=10.0))


CLOSURES = (
    (vh.BoundarySpec.neumann(), 1.0),
    (vh.BoundarySpec.dirichlet(), 5.0),
    (vh.BoundarySpec.robin(1.0, 0.5), 5.0),
)


class TestClassification:
    @pytest.mark.parametrize("kind_index, seed, predicted", [
        (0, 1, verify.ENDEMIC), (0, 3, verify.DISEASE_FREE),
        (1, 1, verify.ENDEMIC), (1, 2, verify.EXTINCT), (1, 3, verify.DISEASE_FREE),
        (2, 5, verify.ENDEMIC), (2, 3, verify.EXTINCT), (2, 1, verify.DISEASE_FREE),
    ])
    def test_equals_the_explicit_chain(self, kind_index, seed, predicted):
        """classify_scenario takes its verdict from solve_endemic at eps = 0:
        lambda_system, the prediction and the attractor are those of the
        explicit chain principal_eigen_system -> solve_endemic(eigenpair=),
        bit for bit (criterion 4's streams)."""
        bc, b = CLOSURES[kind_index]
        mesh = vh.build_mesh(0.0, b, 101)
        rng = np.random.default_rng(np.random.SeedSequence([4, kind_index, seed]))
        sc = verify.random_scenario(mesh, bc, rng)
        got = verify.classify_scenario(sc.coeffs, bc, sc.initial)

        eig = vh.principal_eigen_scalar(sc.coeffs.d2, sc.coeffs.beta, bc)
        zero = np.zeros(mesh.n)
        lam_sys = None
        if eig.lam >= 0:
            want, attractor = verify.EXTINCT, (zero, zero, zero)
        else:
            log = vh.solve_logistic(sc.coeffs, bc, scalar_eig=eig)
            sys_eig = vh.principal_eigen_system(sc.coeffs, log.v_b, bc)
            lam_sys = float.hex(sys_eig.lam)
            res = vh.solve_endemic(sc.coeffs, bc, 0.0, logistic=log, scalar_eig=eig,
                                   eigenpair=sys_eig)
            if isinstance(res, vh.EndemicAbsent):
                want, attractor = verify.DISEASE_FREE, (zero, log.v_b.values, zero)
            else:
                want, attractor = verify.ENDEMIC, (res.h_i.values, res.v_u.values, res.v_i.values)
        assert want == predicted
        assert got.predicted_attractor == want
        assert float.hex(got.lambda_beta) == float.hex(eig.lam)
        assert (None if got.lambda_system is None else float.hex(got.lambda_system)) == lam_sys
        assert [f.values.tobytes() for f in got.attractor] == [a.tobytes() for a in attractor]
        assert (got.equilibrium is not None) == (want == verify.ENDEMIC)

    @pytest.mark.parametrize("seed, predicted", [(1, verify.ENDEMIC), (3, verify.DISEASE_FREE)])
    def test_one_endemic_problem_per_classification(self, seed, predicted, monkeypatch):
        """solve_endemic runs the system eigensolve on the EndemicProblem it
        goes on to solve, so one classification builds the block once."""
        bc, b = CLOSURES[0]
        rng = np.random.default_rng(np.random.SeedSequence([4, 0, seed]))
        sc = verify.random_scenario(vh.build_mesh(0.0, b, 101), bc, rng)
        built = []
        init = vh.EndemicProblem.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(vh.EndemicProblem, "__init__", counted)
        assert verify.classify_scenario(sc.coeffs, bc, sc.initial).predicted_attractor == predicted
        assert len(built) == 1


class TestScenarioGenerator:
    def test_deterministic_for_fixed_seed(self, unit_mesh, neumann):
        a = verify.random_scenario(unit_mesh, neumann, np.random.default_rng(42))
        b = verify.random_scenario(unit_mesh, neumann, np.random.default_rng(42))
        assert np.array_equal(a.coeffs.beta.values, b.coeffs.beta.values)
        assert np.array_equal(a.initial.h_i.values, b.initial.h_i.values)
        c = verify.random_scenario(unit_mesh, neumann, np.random.default_rng(43))
        assert not np.array_equal(a.coeffs.beta.values, c.coeffs.beta.values)

    def test_coefficient_ranges(self, unit_mesh):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = verify.wavy_field(unit_mesh, rng)
            assert f.values.min() > 0
            assert 0.1 <= f.values.min() and f.values.max() <= 7.5

    def test_dirichlet_initial_zeroed_at_walls(self, unit_mesh, dirichlet):
        s = verify.random_initial(unit_mesh, dirichlet, np.random.default_rng(5))
        for f in (s.h_i, s.v_u, s.v_i):
            assert f.values[0] == 0.0 and f.values[-1] == 0.0
            assert f.values[unit_mesh.interior].min() > 0
