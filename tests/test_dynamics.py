import dataclasses

import numpy as np
import pytest

import vectorhost as vh
from vectorhost import dynamics, verify
from vectorhost.dynamics import ORDER_TOL, _block_steps, _rows, _state
from vectorhost.errors import BlowUpError, MeshMismatchError, StabilityError, ValidationError
from vectorhost.operators import ShiftedSolve
from vectorhost.steady import default_weight

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
        for f in (new.h_i, new.v_u, new.v_i):
            assert np.abs(f.values).max() == 0.0

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


@pytest.mark.parametrize("name, value", [
    ("dt", 0.0), ("dt", np.nan), ("dt", np.inf),
    ("t_end", -1.0), ("t_end", np.nan), ("t_end", np.inf),
    ("steady_tol", 0.0), ("steady_tol", np.nan), ("steady_tol", np.inf),
    ("steady_window", 0), ("steady_window", 2.5), ("steady_window", 50.0),
    ("steady_window", True),
])
def test_stepper_config_rejects(name, value):
    """A NaN steady_tol would turn the steady stop off, and a steady_window
    of 2.5 would run as 2: each is rejected when the config is built."""
    with pytest.raises(ValidationError, match=name):
        vh.StepperConfig(**{"dt": 0.05, "t_end": 1.0, name: value})


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
        traj = vh.integrate(init, coeffs, neumann, cfg, snapshot_times=[0.0, 1.0, 2.5, 5.0])
        assert (traj.steady, traj.steps) == (False, 80)  # the run reaches t_end
        assert len(traj.snapshots) == 4
        assert traj.snapshots[0].t == 0.0
        for want, snap in zip([1.0, 2.5, 5.0], traj.snapshots[1:]):
            assert abs(snap.t - want) <= cfg.dt + 1e-12
        # The summary keeps (t, rows); snapshots builds States from them.
        for snap, (t, rows) in zip(traj.snapshots, traj.snapshot_rows, strict=True):
            assert isinstance(snap, vh.State) and snap.t == t
            assert _rows(snap).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("times", [[1.0, np.nan, 2.0], [np.nan, 1.0, 2.0], [0.0, np.inf]])
    def test_non_finite_snapshot_time_rejected(self, neumann, times):
        """A NaN among the times used to drop every snapshot after it."""
        mesh = vh.build_mesh(0, 1, 11)
        coeffs = constants_coeffs(mesh)
        cfg = vh.StepperConfig(dt=0.05, t_end=2.0)
        with pytest.raises(ValidationError, match="snapshot times must be finite"):
            vh.integrate(make_state(mesh, 0.1, 0.8, 0.2), coeffs, neumann, cfg,
                         snapshot_times=times)
        with pytest.raises(ValidationError, match="snapshot times must be finite"):
            vh.integrate_scalar_logistic(vh.field_from_constant(mesh, 0.5), coeffs, neumann, cfg,
                                         snapshot_times=times)
        # A run that fails its own checks used to hide the batch's bad times.
        batch = ([make_state(mesh, 0.1, 0.8, 0.2)], [coeffs], [neumann],
                 [vh.StepperConfig(dt=100.0, t_end=200.0)])
        [(_, err)] = vh.integrate_many(*batch)
        assert isinstance(err, StabilityError)
        with pytest.raises(ValidationError, match="snapshot times must be finite"):
            list(vh.integrate_many(*batch, snapshot_times=times))

    @pytest.mark.parametrize("times", [0.5, [[0.0, 0.5]]], ids=["scalar", "2-D"])
    @pytest.mark.parametrize("entry", ["integrate", "integrate_many", "integrate_scalar_logistic"])
    def test_snapshot_times_not_1d_rejected(self, neumann, entry, times):
        """A bare number used to raise numpy's AxisError, and [[0.0, 0.5]]
        was silently taken as one flat list."""
        mesh = vh.build_mesh(0, 1, 11)
        coeffs = constants_coeffs(mesh)
        state = make_state(mesh, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.05, t_end=1.0)
        run = {
            "integrate": lambda: vh.integrate(state, coeffs, neumann, cfg, snapshot_times=times),
            "integrate_many": lambda: list(vh.integrate_many([state], [coeffs], [neumann], [cfg],
                                                             snapshot_times=times)),
            "integrate_scalar_logistic": lambda: vh.integrate_scalar_logistic(
                vh.field_from_constant(mesh, 0.5), coeffs, neumann, cfg, snapshot_times=times),
        }[entry]
        with pytest.raises(ValidationError, match="snapshot times must be a 1-D sequence"):
            run()

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_reference_tol_must_be_positive_and_finite(self, neumann, tol):
        """Such a tolerance used to be accepted, and first_time_below was
        then never recorded."""
        mesh = vh.build_mesh(0, 1, 11)
        coeffs = constants_coeffs(mesh)
        state = make_state(mesh, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.05, t_end=1.0)
        with pytest.raises(ValidationError, match="reference_tol must be positive and finite"):
            vh.integrate(state, coeffs, neumann, cfg, reference=(state.h_i, state.v_u, state.v_i),
                         reference_tol=tol)
        with pytest.raises(ValidationError, match="reference_tol must be positive and finite"):
            verify.run_threshold_experiment(coeffs, neumann, state, cfg, distance_tol=tol)

    def test_runs_start_at_time_zero(self, neumann):
        """The stepping clock, snapshot times and t_end count from 0, so an
        initial state at another time is rejected; integrate_many records the
        error for that run only.  A single step keeps the state's time."""
        mesh = vh.build_mesh(0, 1, 11)
        coeffs = constants_coeffs(mesh)
        late = make_state(mesh, 0.1, 0.8, 0.2, t=5.0)
        cfg = vh.StepperConfig(dt=0.05, t_end=1.0)
        with pytest.raises(ValidationError, match="t = 0"):
            vh.integrate(late, coeffs, neumann, cfg, snapshot_times=[0.0, 0.5, 1.0])
        batch = dict(vh.integrate_many([late, make_state(mesh, 0.1, 0.8, 0.2)], [coeffs] * 2,
                                       [neumann] * 2, [cfg] * 2, snapshot_times=[0.0, 0.5, 1.0]))
        assert isinstance(batch[0], ValidationError)
        assert [t for t, _ in batch[1].snapshot_rows] == [0.0, 0.5, 1.0]
        assert batch[1].final.t == 1.0
        assert vh.step(late, coeffs, neumann, 0.05).t == 5.0 + 0.05

    def test_dirichlet_boundary_stays_zero(self, dirichlet):
        mesh = vh.build_mesh(0, np.pi, 101)
        coeffs = constants_coeffs(mesh, beta=2.0)
        bump = np.sin(mesh.nodes)
        init = vh.State(0.0,
                        vh.ScalarField(mesh, 0.1 * bump),
                        vh.ScalarField(mesh, 0.2 * bump),
                        vh.ScalarField(mesh, 0.1 * bump))
        dt = vh.stability_dt_max(coeffs, init)
        traj = vh.integrate(init, coeffs, dirichlet, vh.StepperConfig(dt=dt, t_end=5.0))
        for f in (traj.final.h_i, traj.final.v_u, traj.final.v_i):
            assert f.values[0] == 0.0 and f.values[-1] == 0.0

    def test_overflow_raises_blowup(self):
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh)
        init = make_state(mesh, 1e300, 1e300, 1e300)
        cfg = vh.StepperConfig(dt=vh.stability_dt_max(coeffs, init), t_end=200.0)
        with pytest.raises(BlowUpError, match="step 1"):
            vh.integrate(init, coeffs, vh.BoundarySpec.neumann(), cfg)


# Run lengths around the block length B of the stepping core: B - 1, B,
# B + 1 and 2B + 1 full steps, each with and without a remainder step.
LENGTHS = [(name, rem) for name in ("B-1", "B", "B+1", "2B+1") for rem in (False, True)]


def _grid(name, remainder, block, dt):
    """The step sizes of a run of the named length, and the time each of its
    states stands at: k * dt, and t_end (the last) after a remainder step."""
    n_full = {"B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1}[name]
    t_end = (n_full + 0.5 * remainder) * dt
    dts = [dt] * n_full + [t_end - n_full * dt] * remainder
    return dts, [k * dt for k in range(n_full + 1)] + [t_end] * remainder


def _chain(state, coeffs, bc, dts):
    """The rows after each step of a vh.step chain, from the initial ones."""
    rows = [_rows(state)]
    for h in dts:
        state = vh.step(state, coeffs, bc, h)
        rows.append(_rows(state))
    return rows


def _due_steps(times, step_times, dt):
    """For each requested time, sorted, the step whose state a run takes for
    it: the first step time reaching it within 1e-9 max(1, dt), or within
    1e-12 max(1, dt) for the initial state."""
    scale, due = max(1.0, dt), []
    for s in sorted(times):
        hits = [k for k, t in enumerate(step_times) if t >= s - (1e-12 if k == 0 else 1e-9) * scale]
        if hits:
            due.append(hits[0])
    return due


def _settling_tol(rows, w, step):
    """A steady_tol under which a run whose states are rows first settles
    after `step` on a window of w steps."""
    moves = [np.abs(rows[k] - rows[k - w]).max() for k in range(w, step + 1)]
    assert min(moves[:-1]) > moves[-1], "the run does not settle first at this step"
    return (moves[-1] + min(moves[:-1])) / 2


def _batch_runs():
    """Four runs on 51 nodes with different dt: Neumann random coefficients
    (settles on a 10-step window while a run on a 50-step window still
    steps; on 50 steps it would settle later), Dirichlet constants without a
    reference (ends on a remainder step), Robin random coefficients (tracks
    its attractor to t_end), and the overflow state of
    test_overflow_raises_blowup without a reference (fails at step 1, while
    the others step on)."""
    n = 51
    runs = []
    for bc, (a, b), seed in ((vh.BoundarySpec.neumann(), (0, 1), 1),
                             (vh.BoundarySpec.robin(1.0, 0.5), (0, 5), 3)):
        mesh = vh.build_mesh(a, b, n)
        rng = np.random.default_rng(np.random.SeedSequence([7, seed]))
        sc = verify.random_scenario(mesh, bc, rng)
        attractor = verify.classify_scenario(sc.coeffs, bc, sc.initial).attractor
        dt = (1.0 if seed == 1 else 0.5) * vh.stability_dt_max(sc.coeffs, sc.initial)
        cfg = vh.StepperConfig(dt=dt, t_end=30.0 if seed == 1 else 10.0,
                               steady_tol=3e-6 if seed == 1 else 1e-7,
                               steady_window=10 if seed == 1 else 50)
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


def _fields(summary):
    """Every field of a TrajectorySummary, with arrays as bytes."""
    out = dataclasses.asdict(summary)
    out["final"] = (summary.final.t, _rows(summary.final).tobytes())
    out["snapshot_rows"] = [(t, rows.tobytes()) for t, rows in summary.snapshot_rows]
    return out


class TestIntegrateMany:
    """A lockstep batch gives each run exactly what integrate gives it alone."""

    def test_matches_separate_runs(self):
        runs = _batch_runs()
        times = np.linspace(0.0, 30.0, 31)
        kw = dict(snapshot_times=times, reference_tol=1e-3)
        finished = list(vh.integrate_many(*[list(x) for x in zip(*(r[:4] for r in runs))],
                                          references=[r[4] for r in runs], **kw))
        # The failed run leaves first, then the others in the order they finish.
        assert [r for r, _ in finished] == [3, 1, 0, 2]
        batch = [result for _, result in sorted(finished, key=lambda item: item[0])]
        assert len({r[3].dt for r in runs}) == len(runs)
        for (state0, coeffs, bc, cfg, ref), got in zip(runs[:3], batch):
            alone = vh.integrate(state0, coeffs, bc, cfg, reference=ref, **kw)
            assert _fields(got) == _fields(alone)
            assert (got.snapshot_distances is None) == (ref is None)
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

    def test_bookkeeping_matches_stepping(self):
        """The settling run's steady step, first time below reference_tol and
        final distance, found again from vh.step states taken one by one."""
        state, coeffs, bc, cfg, ref = _batch_runs()[0]
        got = vh.integrate(state, coeffs, bc, cfg, reference=ref, reference_tol=1e-3)
        ref_rows = np.array([f.values for f in ref])
        rows, first, w = [_rows(state)], None, cfg.steady_window
        for k in range(int(cfg.t_end / cfg.dt)):
            if first is None and np.abs(rows[k] - ref_rows).max() < 1e-3:
                first = k * cfg.dt
            if k >= w and np.abs(rows[k] - rows[k - w]).max() < cfg.steady_tol:
                break
            rows.append(_rows(vh.step(_state(0.0, rows[k], state.mesh), coeffs, bc, cfg.dt)))
        assert got.steady and got.steps == k
        assert first is not None and got.first_time_below == first
        assert _rows(got.final).tobytes() == rows[k].tobytes()
        assert got.final_sup_distance == np.abs(rows[k] - ref_rows).max()

    @pytest.mark.parametrize("length, remainder", LENGTHS)
    def test_retirement_within_and_across_blocks(self, length, remainder):
        """Two runs settle in the first block (the later-indexed one first),
        one in the second, and one reaches t_end on a grid around the block
        length: each gets its solo summary, bit for bit, and the runs leave
        in the order of their last step."""
        cases = _oracle_cases(n=51)
        block = _block_steps(3 * 4 * 51)
        states, coeffs, bcs, cfgs, refs = [], [], [], [], []
        for (state, co, bc), settle in zip(cases, (12, 7, block + 3)):
            dt = vh.stability_dt_max(co, state)
            rows = _chain(state, co, bc, [dt] * settle)
            cfgs.append(vh.StepperConfig(dt=dt, t_end=100 * dt, steady_window=5,
                                         steady_tol=_settling_tol(rows, 5, settle)))
            states.append(state), coeffs.append(co), bcs.append(bc)
            refs.append(tuple(vh.ScalarField(state.mesh, r) for r in rows[settle // 2]))
        dt = 0.6 * cfgs[0].dt
        dts, times = _grid(length, remainder, block, dt)
        cfgs.append(vh.StepperConfig(dt=dt, t_end=times[-1], steady_tol=1e-300))
        states.append(states[0]), coeffs.append(coeffs[0]), bcs.append(bcs[0]), refs.append(None)
        kw = dict(snapshot_times=[0.0, 5 * dt, 13 * dt, 30 * dt, 60 * dt], reference_tol=1e-3)

        finished = list(vh.integrate_many(states, coeffs, bcs, cfgs, references=refs, **kw))
        steps = [12, 7, block + 3, len(dts)]
        assert [r for r, _ in finished] == sorted(range(4), key=lambda r: steps[r])
        for r, got in finished:
            alone = vh.integrate(states[r], coeffs[r], bcs[r], cfgs[r], reference=refs[r], **kw)
            assert _fields(got) == _fields(alone)
            assert (got.steps, got.steady) == (steps[r], r < 3)

    def test_remainder_steps_beside_full_steps(self):
        """Runs that take only a remainder step, no step at all, or a
        remainder step after a few full ones, while another still takes full
        steps: each gets its solo summary, bit for bit."""
        cases = _oracle_cases(n=41)
        dt = min(vh.stability_dt_max(coeffs, state) for state, coeffs, _ in cases)
        cfgs = [vh.StepperConfig(dt=dt, t_end=0.3 * dt),
                vh.StepperConfig(dt=dt, t_end=1e-14 * dt),
                vh.StepperConfig(dt=dt, t_end=7.5 * dt, steady_window=3),
                vh.StepperConfig(dt=dt / 2, t_end=11.25 * dt)]
        states, coeffs, bcs = zip(*[cases[r % 3] for r in range(4)])
        kw = dict(snapshot_times=[0.0, 0.3 * dt, dt, 7.5 * dt, 11.25 * dt])

        finished = list(vh.integrate_many(states, coeffs, bcs, cfgs, **kw))
        assert [r for r, _ in finished] == [1, 0, 2, 3]
        for r, got in finished:
            alone = vh.integrate(states[r], coeffs[r], bcs[r], cfgs[r], **kw)
            assert _fields(got) == _fields(alone)
        got = dict(finished)
        assert [got[r].steps for r in range(4)] == [1, 0, 8, 23]
        assert [got[r].final.t for r in (0, 2, 3)] == [cfgs[r].t_end for r in (0, 2, 3)]
        assert _rows(got[1].final).tobytes() == _rows(states[1]).tobytes()

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


def _core_rhs(rhs, op):
    """rhs in the stepping core's protocol, from one whose react(u, out)
    writes u/h + reaction into (rows, runs, n) arrays: react gets the flat
    slots reshaped, and W, the weights of op, is applied after it."""
    def core(c, h, rows):
        react = rhs(c, h, rows)
        shape = (rows, h.size, op.mesh.n)

        def flat(u, out):
            f = out.reshape(shape)
            react(u.reshape(shape), f)
            np.multiply(f, op.weights, f)

        return flat

    return core


class TestMarchClamp:
    """The stepping core clamps round-off negatives row by row and names the
    row that drops below the band."""

    def _march(self, scale):
        from vectorhost.dynamics import _march

        mesh = vh.build_mesh(0, 1, 21)
        op = vh.assemble(vh.field_from_constant(mesh, 1.0), vh.BoundarySpec.neumann())
        u0 = np.ones((3, mesh.n))

        def rhs(c, h, rows):  # (-L + 1/h) maps constants c/h to c: rows 1, -5e-15, scale
            return lambda u, out: np.divide(u * np.array([1.0, -5e-15, scale])[:, None, None],
                                            h[:, None], out)

        names = ("H_i", "V_u", "V_i")
        ((_, out),) = _march(u0[:, None], [[op] * 3], names, _core_rhs(rhs, op),
                             np.empty((0, 1, mesh.n)), [1.0], [1.0], lambda *args: None, [None])
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

    @staticmethod
    def _steps(u0, coef, rhs, steps):
        """_march over `steps` unit steps of the runs u0 (rows, R, n) under
        a weak diffusion: the outcomes by run, and each state it visited as
        (step, run, rows bytes), in the order visited."""
        from vectorhost.dynamics import _march

        rows, n_runs, n = u0.shape
        op = vh.assemble(vh.field_from_constant(vh.build_mesh(0, 1, n), 1e-6),
                         vh.BoundarySpec.neumann())
        seen = []

        def visit(k, t, new, old, runs, dist):
            assert np.array_equal(t, k + np.arange(len(t))[:, None] + np.zeros(len(runs)))
            seen.extend((k + j, r, new[j, :, i].tobytes())
                        for j in range(len(t)) for i, r in enumerate(runs.tolist()))

        out = _march(u0, [[op] * rows] * n_runs, ("H_i", "V_u", "V_i"), _core_rhs(rhs, op),
                     coef, [1.0] * n_runs, [float(steps)] * n_runs, visit, [None] * n_runs)
        return dict(out), seen

    def _one_by_one(self, u0, coef, rhs, steps):
        """The same runs taken one step at a time, each alone; a run that
        fails has (step, error) as its outcome."""
        out, seen = {}, []
        for r in range(u0.shape[1]):
            u = u0[:, r:r + 1]
            for k in range(1, steps + 1):
                outcome, step_seen = self._steps(u, coef[:, r:r + 1], rhs, 1)
                res = outcome[0]
                if isinstance(res, Exception):
                    out[r] = k, res
                    break
                u = res[0][:, None]
                seen.append((k, r, step_seen[0][2]))
            else:
                out[r] = res
        return out, sorted(seen)

    @staticmethod
    def _drop(c, h, rows):
        """V_u falls by c per unit step while positive; H_i and V_i stay."""
        def react(u, out):
            np.divide(u, h[:, None], out)
            out[1] -= c[0] * (u[1] > 0) / h[:, None]

        return react

    @pytest.mark.parametrize("at", ["3", "B+2"])
    @pytest.mark.parametrize("drop, fails", [(1e-14, False), (1e-3, True)])
    def test_negative_inside_a_block(self, at, drop, fails):
        """V_u turns negative at step j, inside a block: within the round-off
        band it is clamped to 0 and the run steps on, below it the run stops
        with a BlowUpError naming V_u.  Every state visited, and the outcome,
        are those of the run taken one step at a time."""
        block = _block_steps(3 * 201)
        j = 3 if at == "3" else block + 2
        u0 = np.ones((3, 1, 201))
        u0[1] = (j - 0.5) * drop
        coef = np.full((1, 1, 1), drop)
        out, seen = self._steps(u0, coef, self._drop, j + 3)
        want_out, want_seen = self._one_by_one(u0, coef, self._drop, j + 3)
        assert seen == want_seen
        if fails:
            assert want_out[0][0] == j
            assert str(out[0]) == str(want_out[0][1]) == (
                "V_u dropped to -5.000e-04, below the -1e-14 round-off band"
            )
            assert [k for k, _, _ in seen] == list(range(1, j))
        else:
            rows = out[0][0]
            assert rows.tobytes() == want_out[0][0].tobytes() and out[0][2] == j + 3
            assert np.all(rows[1] == 0.0) and np.allclose(rows[[0, 2]], 1.0, rtol=1e-12)
            assert [k for k, _, _ in seen] == list(range(1, j + 4))

    @pytest.mark.parametrize("at", ["3", "B+2"])
    def test_overflow_inside_a_block(self, at):
        """Run 1 of three grows tenfold a step and its right-hand side
        overflows at step j, inside a block: it stops with the BlowUpError
        for step j, and the other runs get their solo results bit for bit."""
        n = 201
        block = _block_steps(3 * 3 * n)
        j = 3 if at == "3" else block + 2
        x = np.linspace(0, 1, n)
        u0 = np.repeat(np.stack([1.0 + 0.5 * np.sin(3 * x), 0.5 + x, 2.0 - x])[:, None], 3, axis=1)
        u0[:, 1] = 2e307 / 10.0 ** (j - 1)  # reaches 2e307 at step j - 1
        coef = np.array([0.97, 10.0, 1.02])[None, :, None]

        def grow(c, h, rows):
            return lambda u, out: np.divide(u * c[0], h[:, None], out)

        out, seen = self._steps(u0, coef, grow, 2 * block + 1)
        assert isinstance(out[1], BlowUpError)
        assert str(out[1]) == f"step {j} (to t={j}) overflowed: non-finite right-hand side"
        want_out, want_seen = self._one_by_one(u0, coef, grow, 2 * block + 1)
        assert want_out[1][0] == j
        for r in (0, 2):
            assert out[r][0].tobytes() == want_out[r][0].tobytes()
            assert out[r][1:] == (2 * block + 1, 2 * block + 1, False)
        assert sorted(seen) == want_seen


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


def _aux_oracle_step(h, v, coeffs, v_b, bc, dt, eps, w):
    """One IMEX step of the auxiliary pair, its documented reactions
    evaluated left to right, u / dt added, each component solved alone."""
    c = coeffs
    rho, s2, mu = c.rho.values, c.sigma2.values, c.mu.values
    s1hu = c.sigma1.values * c.h_u.values
    v_plus, v_minus = v_b + eps * w, v_b - eps * w
    reactions = (-rho * h + s1hu * v, s2 * np.maximum(v_plus - v, 0.0) * h - mu * v_minus * v)
    rows = []
    for u, reaction, d in zip((h, v), reactions, (c.d1, c.d2)):
        x = ShiftedSolve(vh.assemble(d, bc), 1.0 / dt).solve(u / dt + reaction)
        rows.append(np.maximum(x, 0.0))
    return rows


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
        batch = dict(vh.integrate_many(states, coeffs, bcs, cfgs, snapshot_times=[0.5 * min(dts)]))
        for r, (state, co, bc) in enumerate(cases):
            (snap,) = batch[r].snapshots
            assert snap.t == dts[r]
            want = _oracle_step(state, co, bc, dts[r])
            for got, row in zip((snap.h_i, snap.v_u, snap.v_i), want):
                assert np.array_equal(got.values, row)

    @pytest.mark.parametrize("case", range(3), ids=["neumann", "dirichlet", "robin"])
    def test_aux_pair_step(self, case):
        state, coeffs, bc = _oracle_cases()[case]
        v_b = vh.ScalarField(state.mesh, state.v_u.values + state.v_i.values)  # any frozen V_B
        w = default_weight(coeffs, bc)
        flow = vh.integrate_aux_pair(state.h_i, state.v_i, coeffs, v_b, bc,
                                     vh.StepperConfig(dt=1e-3, t_end=1e-3), eps=0.01, weight=w)
        assert flow.steps == 1 and flow.dt == 1e-3
        want = _aux_oracle_step(state.h_i.values, state.v_i.values, coeffs, v_b.values, bc,
                                1e-3, 0.01, w.values)
        for got, row in zip((flow.h, flow.v), want):
            assert np.array_equal(got.values, row)


class TestMultiStepOracle:
    """integrate, past one block of the stepping core and onto a remainder
    step, gives the chain of hand-written steps bit for bit."""

    @pytest.mark.parametrize("case", range(3), ids=["neumann", "dirichlet", "robin"])
    def test_chain_past_a_block(self, case):
        state, coeffs, bc = _oracle_cases()[case]
        dt = vh.stability_dt_max(coeffs, state)
        n_full = _block_steps(3 * state.mesh.n) + 3
        t_end = (n_full + 0.5) * dt
        run = vh.integrate(state, coeffs, bc, vh.StepperConfig(dt=dt, t_end=t_end, steady_tol=1e-300))
        assert (run.steps, run.steady, run.final.t) == (n_full + 1, False, t_end)
        rows = _rows(state)
        for h in [dt] * n_full + [t_end - n_full * dt]:
            rows = np.array(_oracle_step(_state(0.0, rows, state.mesh), coeffs, bc, h))
        assert _rows(run.final).tobytes() == rows.tobytes()


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
        batch = vh.integrate_many([init] * 2, [constants_coeffs(mesh)] * 2, [neumann] * 2, cfgs)
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
        assert (full.steady, full.steps) == (steady, 5)

    def test_window_longer_than_the_grid(self, neumann):
        """A window longer than the run's full steps never closes, and it
        sizes nothing: 10**12 steps run as 11 do."""
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh)
        init = make_state(mesh, 0.1, 0.8, 0.2)
        got = [vh.integrate(init, coeffs, neumann,
                            vh.StepperConfig(dt=0.05, t_end=0.5, steady_tol=1.0, steady_window=w),
                            snapshot_times=[0.25, 0.5])
               for w in (11, 10**12)]
        assert _fields(got[0]) == _fields(got[1])
        assert (got[1].steps, got[1].steady) == (10, False)

    @pytest.mark.parametrize("length, remainder", LENGTHS)
    def test_block_boundaries_match_stepping(self, length, remainder):
        """integrate with a steady window, a reference and snapshots over
        block boundaries: every summary field is that of a vh.step chain,
        bit for bit."""
        state, coeffs, bc = _oracle_cases(n=201)[0]
        dt = vh.stability_dt_max(coeffs, state)
        dts, times = _grid(length, remainder, _block_steps(3 * 201), dt)
        t_end = times[-1]
        rows = _chain(state, coeffs, bc, dts)
        ref = rows[-1] + 0.01
        dist = [np.abs(r - ref).max() for r in rows]
        tol = (dist[len(dts) // 2] + dist[len(dts) // 2 + 1]) / 2
        snaps = [0.0, 0.3 * t_end, 0.5 * t_end, 0.5 * t_end, 7 * dt, t_end, 2 * t_end]
        cfg = vh.StepperConfig(dt=dt, t_end=t_end, steady_tol=1e-300, steady_window=5)
        got = vh.integrate(state, coeffs, bc, cfg, snapshot_times=snaps,
                           reference=tuple(vh.ScalarField(state.mesh, r) for r in ref),
                           reference_tol=tol)
        assert (got.steps, got.steady, got.final.t) == (len(dts), False, times[-1])
        assert _rows(got.final).tobytes() == rows[-1].tobytes()
        due = _due_steps(snaps, times, dt)
        assert len(due) == 6
        assert [(t, r.tobytes()) for t, r in got.snapshot_rows] == [
            (times[k], rows[k].tobytes()) for k in due
        ]
        assert got.snapshot_distances == [dist[k] for k in due]
        assert got.first_time_below == times[next(k for k, d in enumerate(dist) if d < tol)]
        assert got.final_sup_distance == dist[-1]


def _rule_times(dt, t_end):
    """Requested times at the edges of the snapshot rule on a grid of four
    full steps, with s = max(1, dt): below zero, inside and just past the
    1e-12 s band of the initial state, 5e-10 s on either side of step times
    and of t_end, 2e-9 s past t_end, a duplicate and one no grid reaches."""
    s = max(1.0, dt)
    e = 5e-10 * s
    return [-1.0, 5e-13 * s, 2e-12 * s, e, dt - e, 2 * dt - e, 2 * dt + e, 2 * dt + e,
            3 * dt - e, 3 * dt + e, t_end - e, t_end + e, t_end + 2e-9 * s, 1e300]


class TestSnapshotRule:
    """A requested time takes the first state whose time reaches it within
    1e-9 max(1, dt); the initial state takes exactly the times within
    1e-12 max(1, dt) of zero.  Every integrator that records snapshots
    follows it, for dt below and above 1, with and without a remainder
    step."""

    @pytest.mark.parametrize("remainder", [False, True])
    @pytest.mark.parametrize("dt", [0.3, 1.25])
    def test_edges(self, neumann, dt, remainder):
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh, d1=0.05, d2=0.05, rho=0.05, sigma1=0.05, sigma2=0.05,
                                  beta=0.05, mu=0.05, h_u=0.1)
        bump = np.cos(np.pi * mesh.nodes)
        state = make_state(mesh, *(vh.ScalarField(mesh, a + 0.05 * bump) for a in (0.1, 0.4, 0.2)))
        runs = []  # (cfg, step sizes, the time of each state) of a two-dt batch
        for h in (dt, 0.75 * dt):
            t_end = (4 + 0.5 * remainder) * h
            runs.append((vh.StepperConfig(dt=h, t_end=t_end), [h] * 4 + [t_end - 4 * h] * remainder,
                         [k * h for k in range(5)] + [t_end] * remainder))
            last = 4 + remainder
            assert _due_steps(_rule_times(h, t_end), runs[-1][2], h) == [
                0, 0, 1, 1, 1, 2, 2, 2, 3, 3, last, last]
        times = [t for cfg, *_ in runs for t in _rule_times(cfg.dt, cfg.t_end)]
        batch = dict(vh.integrate_many([state] * 2, [coeffs] * 2, [neumann] * 2,
                                       [cfg for cfg, *_ in runs], snapshot_times=times))
        v0 = vh.ScalarField(mesh, state.v_u.values + state.v_i.values)
        for r, (cfg, dts, step_times) in enumerate(runs):
            due = _due_steps(times, step_times, cfg.dt)
            rows = _chain(state, coeffs, neumann, dts)
            want = [(step_times[k], rows[k].tobytes()) for k in due]
            alone = vh.integrate(state, coeffs, neumann, cfg, snapshot_times=times)
            for got in (alone, batch[r]):
                assert [(t, u.tobytes()) for t, u in got.snapshot_rows] == want
            seen = []
            scalar = vh.integrate_scalar_logistic(
                v0, coeffs, neumann, cfg, snapshot_times=times,
                observer=lambda t, values: seen.append((t, values.tobytes())))
            assert [t for t, _ in seen] == step_times
            assert [(t, v.values.tobytes()) for t, v in scalar.snapshots] == [seen[k] for k in due]


class TestScalarLogistic:
    def test_constant_equilibrium_stationary(self, mesh201, neumann):
        coeffs = constants_coeffs(mesh201)
        v0 = vh.field_from_constant(mesh201, 1.0)  # beta/mu
        traj = vh.integrate_scalar_logistic(v0, coeffs, neumann,
                                            vh.StepperConfig(dt=0.05, t_end=2.0))
        assert traj.steps == 40  # a stationary run still reaches t_end
        assert vh.sup_distance(traj.final, v0) < 1e-11

    def test_nodal_logistic_closed_form(self, mesh201, neumann):
        """Spatially constant data reduce to the logistic ODE per node."""
        coeffs = constants_coeffs(mesh201)
        v0 = vh.field_from_constant(mesh201, 0.1)
        dt = 0.05
        traj = vh.integrate_scalar_logistic(v0, coeffs, neumann,
                                            vh.StepperConfig(dt=dt, t_end=10.0),
                                            snapshot_times=np.arange(0.0, 10.5, 0.5))
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
        full = vh.integrate(init, coeffs, neumann, cfg, snapshot_times=times)
        assert (full.steady, full.steps) == (False, 800)  # the run reaches t_end
        v0 = vh.ScalarField(mesh201, init.v_u.values + init.v_i.values)
        scalar = vh.integrate_scalar_logistic(v0, coeffs, neumann, cfg,
                                              snapshot_times=times)
        assert len(full.snapshots) == len(scalar.snapshots)
        for st, (t, vf) in zip(full.snapshots, scalar.snapshots):
            assert abs(st.t - t) < 1e-12
            gap = np.abs(st.v_u.values + st.v_i.values - vf.values).max()
            assert gap <= 1e-8, f"t={t}: V-reduction gap {gap:.2e}"

    @pytest.mark.parametrize("length, remainder", LENGTHS)
    def test_observer_per_step(self, length, remainder):
        """The observer sees the initial data and then every step once, in
        order, over block boundaries, with the values of one-step runs."""
        state, coeffs, bc = _oracle_cases(n=201)[0]
        v = vh.ScalarField(state.mesh, state.v_u.values + state.v_i.values)
        dt = vh.stability_dt_max(coeffs, state)
        dts, times = _grid(length, remainder, _block_steps(201), dt)
        want = [(0.0, v.values.tobytes())]
        for h, t in zip(dts, times[1:]):
            v = vh.integrate_scalar_logistic(v, coeffs, bc, vh.StepperConfig(dt=h, t_end=h)).final
            want.append((t, v.values.tobytes()))
        seen = []
        traj = vh.integrate_scalar_logistic(
            vh.ScalarField(state.mesh, state.v_u.values + state.v_i.values), coeffs, bc,
            vh.StepperConfig(dt=dt, t_end=times[-1]),
            observer=lambda t, values: seen.append((t, values.tobytes())),
        )
        assert seen == want
        assert (traj.steps, traj.final.values.tobytes()) == (len(dts), want[-1][1])

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
            traj = vh.integrate(init, coeffs, neumann, cfg)
            assert not traj.steady  # each run reaches t_end
            finals[dt] = traj.final
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

    @pytest.mark.parametrize("monotone", ["nonincreasing", "nondecreasing"])
    @pytest.mark.parametrize("length, remainder", LENGTHS)
    def test_block_boundaries_match_stepping(self, length, remainder, monotone):
        """A down-flow over block boundaries: its rows and its largest
        wrong-way move, with the first time one exceeds ORDER_TOL, are those
        of a chain of one-step flows, bit for bit."""
        mesh = vh.build_mesh(0, 1, 201)
        bc = vh.BoundarySpec.neumann()
        coeffs = constants_coeffs(mesh)
        log = vh.solve_logistic(coeffs, bc)
        eq = vh.solve_endemic(coeffs, bc, 0.01, logistic=log)
        dts, times = _grid(length, remainder, _block_steps(2 * 201), 0.05)
        kw = dict(eps=0.01, weight=default_weight(coeffs, bc))
        h, v = (vh.ScalarField(mesh, 3 * f.values) for f in (eq.h_i, eq.v_i))
        rows, worst, first = [np.array([h.values, v.values])], 0.0, None
        for dt, t in zip(dts, times[1:]):
            one = vh.integrate_aux_pair(h, v, coeffs, log.v_b, bc,
                                        vh.StepperConfig(dt=dt, t_end=dt), **kw)
            assert one.dt == dt
            h, v = one.h, one.v
            rows.append(np.array([h.values, v.values]))
            move = (rows[-1] - rows[-2] if monotone == "nonincreasing" else rows[-2] - rows[-1]).max()
            worst = max(worst, move)
            if first is None and move > ORDER_TOL:
                first = t
        flow = vh.integrate_aux_pair(vh.ScalarField(mesh, 3 * eq.h_i.values),
                                     vh.ScalarField(mesh, 3 * eq.v_i.values), coeffs, log.v_b, bc,
                                     vh.StepperConfig(dt=0.05, t_end=times[-1], steady_tol=1e-300),
                                     monotone=monotone, **kw)
        assert flow.steps == len(dts)
        assert (flow.h.values.tobytes(), flow.v.values.tobytes()) == (h.values.tobytes(),
                                                                      v.values.tobytes())
        assert (flow.max_violation, flow.first_violation_time) == (worst, first)
        assert flow.monotone_ok == (first is None) == (monotone == "nonincreasing")

    def test_rejects_inputs_the_endemic_problem_rejects(self, mesh201, neumann, dirichlet):
        """And, as integrate does, initial data off zero on Dirichlet walls."""
        coeffs = constants_coeffs(mesh201)
        v_b = vh.field_from_constant(mesh201, 1.0)
        h0 = v0 = vh.field_from_constant(mesh201, 0.1)
        cfg = vh.StepperConfig(dt=0.05, t_end=1.0)
        other = vh.field_from_constant(vh.build_mesh(0, 1, 51), 1.0)
        with pytest.raises(MeshMismatchError):
            vh.integrate_aux_pair(h0, v0, coeffs, other, neumann, cfg)
        with pytest.raises(MeshMismatchError):
            vh.integrate_aux_pair(h0, v0, coeffs, v_b, neumann, cfg, eps=0.1, weight=other)
        with pytest.raises(ValidationError, match=r"V_B - eps\*weight must stay positive"):
            vh.integrate_aux_pair(h0, v0, coeffs, v_b, neumann, cfg, eps=1.0)
        bump = vh.ScalarField(mesh201, np.sin(np.pi * mesh201.nodes))  # sin(pi) residue is snapped
        vh.integrate_aux_pair(bump, bump, coeffs, bump, dirichlet, cfg)
        with pytest.raises(ValidationError, match="zero boundary values in h0"):
            vh.integrate_aux_pair(vh.field_from_constant(mesh201, 0.3), bump, coeffs, bump,
                                  dirichlet, cfg)

    @pytest.mark.parametrize("a, b, n", [(0, 2, 21), (0, 1, 31)])
    @pytest.mark.parametrize("which", ["h0", "v0"])
    def test_rejects_fields_off_the_coefficients_mesh(self, a, b, n, which, monkeypatch):
        """21-node [0, 2] or 31-node [0, 1] fields on 21-node [0, 1]
        coefficients raise before any step."""
        mesh = vh.build_mesh(0, 1, 21)
        coeffs = constants_coeffs(mesh)
        v_b = vh.field_from_constant(mesh, 1.0)
        fields = {"h0": vh.field_from_constant(mesh, 0.1), "v0": vh.field_from_constant(mesh, 0.1)}
        fields[which] = vh.field_from_constant(vh.build_mesh(a, b, n), 0.1)
        monkeypatch.setattr(dynamics, "_march", None)  # stepping would raise TypeError
        with pytest.raises(MeshMismatchError, match="one mesh"):
            vh.integrate_aux_pair(fields["h0"], fields["v0"], coeffs, v_b, vh.BoundarySpec.neumann(),
                                  vh.StepperConfig(dt=0.05, t_end=0.5))


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

    def test_rejects_unordered_start(self, mesh201, neumann, dirichlet):
        """And, as integrate does, states at t != 0 or off zero on Dirichlet
        walls."""
        coeffs = constants_coeffs(mesh201)
        a = make_state(mesh201, 0.3, 0.8, 0.2)
        b = make_state(mesh201, 0.1, 0.8, 0.2)
        cfg = vh.StepperConfig(dt=0.05, t_end=1.0)
        with pytest.raises(ValidationError, match="state_a must be <= state_b"):
            vh.compare_trajectories(a, b, coeffs, neumann, cfg)
        late = make_state(mesh201, 0.1, 0.8, 0.2, t=5.0)
        with pytest.raises(ValidationError, match="t = 0"):
            vh.compare_trajectories(late, late, coeffs, neumann, cfg)
        bump = vh.ScalarField(mesh201, np.sin(np.pi * mesh201.nodes))
        walled = make_state(mesh201, 0.3, bump, bump)
        with pytest.raises(ValidationError, match="zero boundary values in h_i"):
            vh.compare_trajectories(walled, walled, coeffs, dirichlet, cfg)
        ok = make_state(mesh201, bump, bump, bump)
        assert vh.compare_trajectories(ok, ok, coeffs, dirichlet, cfg).ordered

    @pytest.mark.parametrize("length, remainder", LENGTHS)
    def test_first_violation_inside_a_block(self, length, remainder):
        """state_a starts below state_b in (H_i, V_i) but carries more V_u, so
        its V_i overtakes at step 24, inside the first block.  The report is
        that of two vh.step chains, bit for bit."""
        b, coeffs, bc = _oracle_cases(n=101)[0]
        a = vh.State(0.0, b.h_i, vh.ScalarField(b.mesh, b.v_u.values + 0.05),
                     vh.ScalarField(b.mesh, b.v_i.values - 1e-3))
        dt = vh.compare_trajectories(a, b, coeffs, bc, vh.StepperConfig(dt=1.0, t_end=1e-9)).dt
        block = _block_steps(6 * 101)
        dts, times = _grid(length, remainder, block, dt)
        moves = [max((x[0] - y[0]).max(), (x[2] - y[2]).max())
                 for x, y in zip(_chain(a, coeffs, bc, dts), _chain(b, coeffs, bc, dts))][1:]
        first = next(k for k, m in enumerate(moves, 1) if m > ORDER_TOL)
        assert first == 24 and 0 < (first - 1) % block < block - 1
        rep = vh.compare_trajectories(a, b, coeffs, bc, vh.StepperConfig(dt=dt, t_end=times[-1]))
        assert (rep.ordered, rep.dt, rep.t_end) == (False, dt, times[-1])
        assert (rep.first_violation_time, rep.max_violation) == (times[first], max(moves))
