import numpy as np
import pytest

import vectorhost as vh
from vectorhost import verify
from vectorhost.errors import BlowUpError, StabilityError, ValidationError

from helpers import constants_coeffs, make_state


@pytest.fixture
def mesh201():
    return vh.build_mesh(0, 1, 201)


class TestStep:
    def test_disease_free_is_fixed(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        log = vh.solve_logistic(coeffs, neumann)
        state = make_state(mesh201, 0.0, log.v_b, 0.0)
        new = vh.step(state, coeffs, neumann, 0.05)
        change = max(
            vh.sup_distance(new.h_i, state.h_i),
            vh.sup_distance(new.v_u, state.v_u),
            vh.sup_distance(new.v_i, state.v_i),
        )
        assert change < 1e-12

    def test_endemic_equilibrium_is_fixed(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        eq = vh.solve_endemic(coeffs, neumann)
        state = vh.State(0.0, eq.h_i, eq.v_u, eq.v_i)
        new = vh.step(state, coeffs, neumann, 0.05)
        change = max(
            vh.sup_distance(new.h_i, state.h_i),
            vh.sup_distance(new.v_u, state.v_u),
            vh.sup_distance(new.v_i, state.v_i),
        )
        assert change <= 1e-10

    def test_zero_state_stays_zero(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        state = make_state(mesh201, 0.0, 0.0, 0.0)
        new = vh.step(state, coeffs, neumann, 0.05)
        assert vh.sup_norm(new.h_i) == 0.0
        assert vh.sup_norm(new.v_u) == 0.0
        assert vh.sup_norm(new.v_i) == 0.0

    def test_rejects_oversized_dt(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        state = make_state(mesh201, 0.1, 0.8, 0.2)
        bound = vh.stability_dt_max(coeffs, state)
        with pytest.raises(StabilityError):
            vh.step(state, coeffs, neumann, 2 * bound)

    def test_stability_bound_value(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        state = make_state(mesh201, 0.1, 0.8, 0.2)
        # V_hat = max(1.0, beta/mu = 1); denominator 1 + 2 + 1 + 2 + 2 = 8
        assert vh.stability_dt_max(coeffs, state) == pytest.approx(0.0625)

    def test_positivity_preserved(self, mesh201, neumann):
        rng = np.random.default_rng(15)
        coeffs = verify.random_coefficients(mesh201, rng)
        state = verify.random_initial(mesh201, neumann, rng)
        dt = vh.stability_dt_max(coeffs, state)
        for _ in range(200):
            state = vh.step(state, coeffs, neumann, dt)
            assert state.h_i.values.min() >= 0.0
            assert state.v_u.values.min() >= 0.0
            assert state.v_i.values.min() >= 0.0

    def test_state_rejects_negative_component(self, mesh201):
        with pytest.raises(ValidationError):
            make_state(mesh201, -0.1, 0.8, 0.2)

    def test_clamping_band(self):
        from vectorhost.dynamics import _clamp
        from vectorhost.errors import BlowUpError

        healed = _clamp(np.array([1.0, -5e-15, 0.2]), "V")
        assert healed[1] == 0.0
        with pytest.raises(BlowUpError):
            _clamp(np.array([1.0, -1e-13, 0.2]), "V")


class TestIntegrate:
    def test_endemic_attractor(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        eq = vh.solve_endemic(coeffs, neumann)
        init = make_state(mesh201, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.0625, t_end=200.0)
        traj = vh.integrate(init, coeffs, neumann, cfg,
                            reference=(eq.h_i, eq.v_u, eq.v_i), reference_tol=1e-4)
        assert traj.final_sup_distance < 1e-4
        assert traj.first_time_below is not None

    def test_disease_free_attractor(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201, h_u=0.5)
        log = vh.solve_logistic(coeffs, neumann)
        zero = vh.field_from_constant(mesh201, 0.0)
        init = make_state(mesh201, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.0625, t_end=200.0)
        traj = vh.integrate(init, coeffs, neumann, cfg,
                            reference=(zero, log.v_b, zero), reference_tol=1e-4)
        assert traj.final_sup_distance < 1e-4

    def test_extinction_dirichlet(self, dirichlet):
        mesh = vh.build_mesh(0, np.pi, 201)
        coeffs = constants_coeffs(mesh, beta=0.5)
        bump = np.sin(mesh.nodes)
        init = vh.State(0.0,
                        vh.ScalarField(mesh, 0.2 * bump),
                        vh.ScalarField(mesh, 0.5 * bump),
                        vh.ScalarField(mesh, 0.2 * bump))
        zero = vh.field_from_constant(mesh, 0.0)
        dt = vh.stability_dt_max(coeffs, init)
        traj = vh.integrate(init, coeffs, dirichlet, vh.StepperConfig(dt=dt, t_end=200.0),
                            reference=(zero, zero, zero), reference_tol=1e-4)
        assert traj.final_sup_distance < 1e-4

    def test_snapshots_at_requested_times(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        init = make_state(mesh201, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.0625, t_end=5.0)
        traj = vh.integrate(init, coeffs, neumann, cfg,
                            snapshot_times=[0.0, 1.0, 2.5, 5.0], stop_at_steady=False)
        assert len(traj.snapshots) == 4
        assert traj.snapshots[0].t == 0.0
        for want, snap in zip([1.0, 2.5, 5.0], traj.snapshots[1:]):
            assert abs(snap.t - want) <= cfg.dt + 1e-12

    def test_dirichlet_boundary_stays_zero(self, dirichlet):
        mesh = vh.build_mesh(0, np.pi, 101)
        coeffs = constants_coeffs(mesh, beta=2.0)
        bump = np.sin(mesh.nodes)
        init = vh.State(0.0,
                        vh.ScalarField(mesh, 0.1 * bump),
                        vh.ScalarField(mesh, 0.2 * bump),
                        vh.ScalarField(mesh, 0.1 * bump))
        dt = vh.stability_dt_max(coeffs, init)
        traj = vh.integrate(init, coeffs, dirichlet,
                            vh.StepperConfig(dt=dt, t_end=5.0), stop_at_steady=False)
        for f in (traj.final.h_i, traj.final.v_u, traj.final.v_i):
            assert f.values[0] == 0.0 and f.values[-1] == 0.0

    def test_overflow_raises_blowup(self):
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh)
        init = make_state(mesh, 1e300, 1e300, 1e300)
        cfg = vh.StepperConfig(dt=vh.stability_dt_max(coeffs, init), t_end=200.0)
        with pytest.raises(BlowUpError, match="step 1"):
            vh.integrate(init, coeffs, vh.BoundarySpec.neumann(), cfg)


class TestTimeGrid:
    """All integrators take floor(t_end/dt) full steps plus one remainder
    step onto t_end, and test the steady window after full steps only."""

    @pytest.mark.parametrize("n_dt, steady", [(4.5, False), (5.0, True)])
    def test_window_skips_remainder_step(self, neumann, n_dt, steady):
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh, h_u=0.5)
        v_b = vh.solve_logistic(coeffs, neumann).v_b
        dt = 0.05
        cfg = vh.StepperConfig(dt=dt, t_end=n_dt * dt, steady_window=5)
        full = vh.integrate(make_state(mesh, 0.0, v_b, 0.0), coeffs, neumann, cfg)
        scalar = vh.integrate_scalar_logistic(v_b, coeffs, neumann, cfg)
        assert (full.steady, full.steps) == (steady, 5)
        assert (scalar.steady, scalar.steps) == (steady, 5)


class TestScalarLogistic:
    def test_constant_equilibrium_stationary(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        v0 = vh.field_from_constant(mesh201, 1.0)  # beta/mu
        traj = vh.integrate_scalar_logistic(v0, coeffs, neumann,
                                            vh.StepperConfig(dt=0.05, t_end=2.0),
                                            stop_at_steady=False)
        assert vh.sup_distance(traj.final, v0) < 1e-11

    def test_nodal_logistic_closed_form(self, mesh201, neumann):
        """Spatially constant data reduce to the logistic ODE per node."""
        coeffs = constants_coeffs(mesh201)
        v0 = vh.field_from_constant(mesh201, 0.1)
        dt = 0.05
        traj = vh.integrate_scalar_logistic(v0, coeffs, neumann,
                                            vh.StepperConfig(dt=dt, t_end=10.0),
                                            snapshot_times=np.arange(0.0, 10.5, 0.5),
                                            stop_at_steady=False)
        exact_final = 1.0 / (1.0 + 9.0 * np.exp(-10.0))
        assert np.abs(traj.final.values - exact_final).max() < 3 * dt
        values = [s.values[0] for _, s in traj.snapshots]
        assert all(b > a for a, b in zip(values, values[1:]))  # monotone rise

    def test_sum_consistency_with_full_system(self, mesh201, neumann):
        """V_u + V_i of the 3-component run and the scalar run coincide."""
        coeffs = constants_coeffs(mesh201)
        init = make_state(mesh201, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.0625, t_end=50.0)
        times = np.arange(0.0, 51.0, 1.0)
        full = vh.integrate(init, coeffs, neumann, cfg,
                            snapshot_times=times, stop_at_steady=False)
        v0 = vh.ScalarField(mesh201, init.v_u.values + init.v_i.values)
        scalar = vh.integrate_scalar_logistic(v0, coeffs, neumann, cfg,
                                              snapshot_times=times, stop_at_steady=False)
        assert len(full.snapshots) == len(scalar.snapshots)
        for st, (t, vf) in zip(full.snapshots, scalar.snapshots):
            assert abs(st.t - t) < 1e-12
            gap = np.abs(st.v_u.values + st.v_i.values - vf.values).max()
            assert gap <= 1e-8, f"t={t}: V-reduction gap {gap:.2e}"

    def test_requires_positive_interior(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        with pytest.raises(ValidationError):
            vh.integrate_scalar_logistic(vh.field_from_constant(mesh201, 0.0),
                                         coeffs, neumann,
                                         vh.StepperConfig(dt=0.05, t_end=1.0))


class TestTemporalAccuracy:
    def test_first_order_in_dt(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        init = make_state(mesh201, 0.1, 0.8, 0.2)
        finals = {}
        for dt in (0.05, 0.025, 0.0125):
            cfg = vh.StepperConfig(dt=dt, t_end=10.0)
            finals[dt] = vh.integrate(init, coeffs, neumann, cfg, stop_at_steady=False).final
        d1 = max(vh.sup_distance(finals[0.05].h_i, finals[0.025].h_i),
                 vh.sup_distance(finals[0.05].v_i, finals[0.025].v_i))
        d2 = max(vh.sup_distance(finals[0.025].h_i, finals[0.0125].h_i),
                 vh.sup_distance(finals[0.025].v_i, finals[0.0125].v_i))
        assert 1.5 < d1 / d2 < 3.0, f"expected ~2x shrink per halving, got {d1 / d2:.2f}"


class TestAuxPairFlow:
    def test_down_flow_from_scaled_equilibrium(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        log = vh.solve_logistic(coeffs, neumann)
        eq = vh.solve_endemic(coeffs, neumann, 0.01, logistic=log)
        flow = vh.integrate_aux_pair(
            vh.ScalarField(mesh201, 3 * eq.h_i.values),
            vh.ScalarField(mesh201, 3 * eq.v_i.values),
            coeffs, log.v_b, neumann,
            vh.StepperConfig(dt=0.05, t_end=200.0),
            eps=0.01, monotone="nonincreasing",
        )
        assert flow.monotone_ok
        assert flow.max_violation <= 1e-10
        assert vh.sup_distance(flow.h, eq.h_i) < 1e-5
        assert vh.sup_distance(flow.v, eq.v_i) < 1e-5

    def test_up_flow_from_small_eigen_pair(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        log = vh.solve_logistic(coeffs, neumann)
        eig = vh.principal_eigen_system(coeffs, log.v_b, neumann, 0.01)
        eq = vh.solve_endemic(coeffs, neumann, 0.01, logistic=log)
        delta = 1e-6
        flow = vh.integrate_aux_pair(
            vh.ScalarField(mesh201, delta * eig.phi1.values),
            vh.ScalarField(mesh201, delta * eig.phi2.values),
            coeffs, log.v_b, neumann,
            vh.StepperConfig(dt=0.05, t_end=400.0),
            eps=0.01, monotone="nondecreasing",
        )
        assert flow.monotone_ok
        assert flow.max_violation <= 1e-10
        assert vh.sup_distance(flow.h, eq.h_i) < 1e-4


class TestCompareTrajectories:
    def test_identical_states_stay_ordered(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        s = make_state(mesh201, 0.1, 0.8, 0.2)
        rep = vh.compare_trajectories(s, s, coeffs, neumann,
                                      vh.StepperConfig(dt=0.0625, t_end=10.0))
        assert rep.ordered
        assert rep.max_violation == 0.0

    def test_scaled_infection_stays_below(self, mesh201, neumann):
        """Half the infection with the same total vector count stays below."""
        coeffs = constants_coeffs(mesh201)
        big = make_state(mesh201, 0.2, 0.7, 0.3)
        small = make_state(mesh201, 0.1, 0.85, 0.15)  # same V_u + V_i
        rep = vh.compare_trajectories(small, big, coeffs, neumann,
                                      vh.StepperConfig(dt=0.0625, t_end=50.0))
        assert rep.ordered, f"violated at t={rep.first_violation_time}"
        assert rep.max_violation <= 1e-10

    def test_rejects_unordered_start(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        a = make_state(mesh201, 0.3, 0.8, 0.2)
        b = make_state(mesh201, 0.1, 0.8, 0.2)
        with pytest.raises(ValidationError):
            vh.compare_trajectories(a, b, coeffs, neumann,
                                    vh.StepperConfig(dt=0.05, t_end=1.0))
