import numpy as np
import pytest

import vectorhost as vh
from vectorhost import verify
from vectorhost.errors import BlowUpError, StabilityError, ValidationError
from vectorhost.operators import ShiftedSolve

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

        healed = np.array([[[1.0, -5e-15, 0.2]]])  # (rows, runs, n)
        assert _clamp(healed, ["V"]) == {}
        assert healed[0, 0, 1] == 0.0
        with pytest.raises(BlowUpError):
            raise _clamp(np.array([[[1.0, -1e-13, 0.2]]]), ["V"])[0]


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


def _batch_runs():
    """Four runs on 51 nodes with different dt: Neumann random coefficients
    (settles early, on a 30-step window where the others use 50), Dirichlet
    constants (ends on a remainder step), Robin random coefficients (tracks
    its attractor to t_end), and the overflow state of
    test_overflow_raises_blowup (fails at step 1)."""
    n = 51
    runs = []
    for bc, (a, b), seed in ((vh.BoundarySpec.neumann(), (0, 1), 1),
                             (vh.BoundarySpec.robin(1.0, 0.5), (0, 5), 3)):
        mesh = vh.build_mesh(a, b, n)
        rng = np.random.default_rng(np.random.SeedSequence([7, seed]))
        sc = verify.random_scenario(mesh, bc, rng)
        attractor = verify.classify_scenario(sc.coeffs, bc, sc.initial).attractor
        dt = (1.0 if seed == 1 else 0.5) * vh.stability_dt_max(sc.coeffs, sc.initial)
        cfg = vh.StepperConfig(dt=dt, t_end=30.0 if seed == 1 else 10.0, steady_tol=1e-7,
                               steady_window=30 if seed == 1 else 50)
        runs.append((sc.initial, sc.coeffs, bc, cfg, attractor))
    mesh = vh.build_mesh(0, np.pi, n)
    coeffs = constants_coeffs(mesh, beta=2.0)
    bump = np.sin(mesh.nodes)
    init = make_state(mesh, vh.ScalarField(mesh, 0.1 * bump), vh.ScalarField(mesh, 0.2 * bump),
                      vh.ScalarField(mesh, 0.1 * bump))
    cfg = vh.StepperConfig(dt=0.7 * vh.stability_dt_max(coeffs, init), t_end=4.3)
    runs.insert(1, (init, coeffs, vh.BoundarySpec.dirichlet(), cfg, None))
    mesh = vh.build_mesh(0, 1, n)
    coeffs = constants_coeffs(mesh)
    init = make_state(mesh, 1e300, 1e300, 1e300)
    cfg = vh.StepperConfig(dt=vh.stability_dt_max(coeffs, init), t_end=200.0)
    runs.append((init, coeffs, vh.BoundarySpec.neumann(), cfg, None))
    return runs


class TestIntegrateMany:
    """A lockstep batch gives each run exactly what integrate gives it alone."""

    def test_matches_separate_runs(self):
        runs = _batch_runs()
        times = np.linspace(0.0, 30.0, 31)
        kw = dict(snapshot_times=times, reference_tol=1e-3)
        finished = list(vh.integrate_many(*[list(x) for x in zip(*(r[:4] for r in runs))],
                                          references=[r[4] for r in runs], **kw))
        # The failed run leaves first, then the others in the order they finish.
        assert [r for r, _ in finished] == [3, 1, 2, 0]
        batch = [result for _, result in sorted(finished, key=lambda item: item[0])]
        assert len({r[3].dt for r in runs}) == len(runs)
        for (state0, coeffs, bc, cfg, ref), got in zip(runs[:3], batch):
            alone = vh.integrate(state0, coeffs, bc, cfg, reference=ref, **kw)
            for name in ("h_i", "v_u", "v_i"):
                assert getattr(got.final, name).values.tobytes() == \
                    getattr(alone.final, name).values.tobytes()
            assert (got.steps, got.steady) == (alone.steps, alone.steady)
            assert got.final.t == alone.final.t
            assert got.first_time_below == alone.first_time_below
            assert got.final_sup_distance == alone.final_sup_distance
            assert got.snapshot_distances == alone.snapshot_distances
            assert [s.t for s in got.snapshots] == [s.t for s in alone.snapshots]
            for a, b in zip(got.snapshots, alone.snapshots):
                assert a.v_i.values.tobytes() == b.v_i.values.tobytes()
        settles, remainder, tracks = batch[:3]
        assert settles.steady and settles.steps < runs[0][3].t_end / runs[0][3].dt
        cfg = runs[1][3]
        assert not remainder.steady and remainder.steps == int(cfg.t_end / cfg.dt) + 1
        assert remainder.final.t == cfg.t_end
        # One tracked run comes within reference_tol, the other never does.
        assert settles.first_time_below is not None and tracks.first_time_below is None

        with pytest.raises(BlowUpError) as alone:
            vh.integrate(*runs[3][:4], **kw)
        assert isinstance(batch[3], BlowUpError)
        assert str(batch[3]) == str(alone.value) and str(alone.value).startswith("step 1 ")

    def test_rejected_input_is_recorded(self, neumann):
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh)
        init = make_state(mesh, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.05, t_end=1.0)
        bad = vh.StepperConfig(dt=1.0, t_end=1.0)
        finished = vh.integrate_many([init, init], [coeffs, coeffs], [neumann] * 2, [cfg, bad])
        (_, err), (_, ok) = finished
        assert ok.steps == 20
        assert isinstance(err, StabilityError)


class TestMarchClamp:
    """The stepping core clamps round-off negatives row by row and names the
    row that drops below the band."""

    def _march(self, scale):
        from vectorhost.dynamics import _march

        mesh = vh.build_mesh(0, 1, 21)
        op = vh.assemble(vh.field_from_constant(mesh, 1.0), vh.BoundarySpec.neumann())
        u0 = np.ones((3, mesh.n))

        def rhs(c, h, rows):  # (-L + 1/h) maps constants c/h to c: rows 1, -5e-15, scale
            return lambda u: u * np.array([1.0, -5e-15, scale])[:, None, None] / h[:, None]

        names = ("H_i", "V_u", "V_i")
        ((_, out),) = _march(u0[:, None], [[op] * 3], names, rhs, np.empty((0, 1, mesh.n)),
                             [1.0], [1.0], lambda t, new, old, runs: None, [None])
        if isinstance(out, Exception):
            raise out
        return out[0]

    def test_round_off_negatives_clamped_to_zero(self):
        u = self._march(1.0)
        assert np.all(u[1] == 0.0)
        assert np.allclose(u[[0, 2]], 1.0, rtol=1e-12)

    def test_blowup_names_the_row(self):
        with pytest.raises(BlowUpError, match="^V_i dropped to"):
            self._march(-1e-3)


def _oracle_step(state, coeffs, bc, dt):
    """One IMEX step written out independently of the stepping core: the
    documented reactions evaluated left to right, u * (1/dt) added, and each
    component solved on its own against -L + 1/dt."""
    c = coeffs
    h, vu, vi = state.h_i.values, state.v_u.values, state.v_i.values
    rho, s2, beta, mu = c.rho.values, c.sigma2.values, c.beta.values, c.mu.values
    s1hu = c.sigma1.values * c.h_u.values
    v = vu + vi
    reactions = (
        -rho * h + s1hu * vi,
        -s2 * vu * h + beta * v - mu * v * vu,
        s2 * vu * h - mu * v * vi,
    )
    rows = []
    for u, reaction, d in zip((h, vu, vi), reactions, (c.d1, c.d2, c.d2)):
        solve = ShiftedSolve(vh.assemble(d, bc), 1.0 / dt)
        x = solve.solve(u * (1.0 / dt) + reaction)
        assert x.min() > -1e-14
        rows.append(np.maximum(x, 0.0))  # the round-off clamp
    return rows


def _oracle_cases(n=41):
    """A random scenario under each closure, on meshes of n nodes."""
    cases = []
    for bc, (a, b) in ((vh.BoundarySpec.neumann(), (0, 1)),
                       (vh.BoundarySpec.dirichlet(), (0, np.pi)),
                       (vh.BoundarySpec.robin(1.0, 0.5), (0, 5))):
        rng = np.random.default_rng(np.random.SeedSequence([11, len(cases)]))
        sc = verify.random_scenario(vh.build_mesh(a, b, n), bc, rng)
        cases.append((sc.initial, sc.coeffs, bc))
    return cases


class TestOneStepOracle:
    """The stepping core gives, bit for bit, the step written out by hand."""

    @pytest.mark.parametrize("case", range(3), ids=["neumann", "dirichlet", "robin"])
    def test_step(self, case):
        state, coeffs, bc = _oracle_cases()[case]
        dt = vh.stability_dt_max(coeffs, state)
        new = vh.step(state, coeffs, bc, dt)
        want = _oracle_step(state, coeffs, bc, dt)
        for got, row in zip((new.h_i, new.v_u, new.v_i), want):
            assert np.array_equal(got.values, row)

    def test_first_step_of_a_batch(self):
        cases = _oracle_cases()
        dts = [f * vh.stability_dt_max(coeffs, state)
               for f, (state, coeffs, _) in zip((1.0, 0.6, 0.35), cases)]
        cfgs = [vh.StepperConfig(dt=dt, t_end=3 * dt) for dt in dts]
        states, coeffs, bcs = (list(x) for x in zip(*cases))
        batch = dict(vh.integrate_many(states, coeffs, bcs, cfgs,
                                       snapshot_times=[0.5 * min(dts)], stop_at_steady=False))
        for r, (state, co, bc) in enumerate(cases):
            (snap,) = batch[r].snapshots
            assert snap.t == dts[r]
            want = _oracle_step(state, co, bc, dts[r])
            for got, row in zip((snap.h_i, snap.v_u, snap.v_i), want):
                assert np.array_equal(got.values, row)


class TestErrorState:
    """The core silences overflow for its own steps only: the caller's numpy
    error state is in force on return, on raise, while a batch is suspended
    and inside an observer."""

    CALLER = {"divide": "raise", "over": "raise", "under": "ignore", "invalid": "raise"}

    @pytest.fixture
    def caller_state(self):
        with np.errstate(**self.CALLER):
            yield
            assert np.geterr() == self.CALLER

    def test_integrate(self, caller_state, neumann):
        mesh = vh.build_mesh(0, 1, 21)
        cfg = vh.StepperConfig(dt=0.05, t_end=2.0)
        vh.integrate(make_state(mesh, 0.1, 0.8, 0.2), constants_coeffs(mesh), neumann, cfg)
        assert np.geterr() == self.CALLER

    def test_compare_trajectories(self, caller_state, neumann):
        mesh = vh.build_mesh(0, 1, 21)
        s = make_state(mesh, 0.1, 0.8, 0.2)
        vh.compare_trajectories(s, s, constants_coeffs(mesh), neumann,
                                vh.StepperConfig(dt=0.05, t_end=1.0))
        assert np.geterr() == self.CALLER

    def test_batch_closed_after_first_yield(self, caller_state, neumann):
        mesh = vh.build_mesh(0, 1, 21)
        init = make_state(mesh, 0.1, 0.8, 0.2)
        cfgs = [vh.StepperConfig(dt=0.05, t_end=t_end) for t_end in (0.5, 5.0)]
        batch = vh.integrate_many([init] * 2, [constants_coeffs(mesh)] * 2, [neumann] * 2, cfgs,
                                  stop_at_steady=False)
        r, _ = next(batch)  # the other run is still stepping
        assert r == 0 and np.geterr() == self.CALLER
        batch.close()
        assert np.geterr() == self.CALLER

    def test_blowup(self, caller_state):
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh)
        init = make_state(mesh, 1e300, 1e300, 1e300)
        cfg = vh.StepperConfig(dt=vh.stability_dt_max(coeffs, init), t_end=1.0)
        with pytest.raises(BlowUpError, match="step 1"):
            vh.integrate(init, coeffs, vh.BoundarySpec.neumann(), cfg)
        assert np.geterr() == self.CALLER

    def test_observer_still_warns(self, neumann):
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh)
        seen = []

        def observer(t, values):
            if t > 0:  # inside the stepping core, not the initial call
                seen.append(np.float64(1e308) * 10)

        with pytest.warns(RuntimeWarning, match="overflow"):
            vh.integrate_scalar_logistic(vh.field_from_constant(mesh, 0.5), coeffs, neumann,
                                         vh.StepperConfig(dt=0.05, t_end=0.2), observer=observer)
        assert len(seen) == 4 and np.isinf(seen).all()


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
