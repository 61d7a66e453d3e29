"""The benchmark's workloads: inputs, the timed calls and their oracles.

Inputs are generated before timing; each call hands the program only
generated objects.

trajectories  ordered pairs from the criterion-9 generator (n=101,
              Neumann) run through compare_trajectories; seed 0 draws
              criterion 9's pairs.  Each pair runs `Sizes.pair_steps` of its
              own order-preserving steps instead of criterion 9's t_end=50:
              over 3,000 seeds the t_end=50 step count has median 2,400,
              p99 54,000 and max 340,000 step-pairs, so a time-bounded run
              over it spreads by half its median from seed to seed, and
              one pair can run for 100 s.
equilibria    criterion 4's panel: the first 50 scenarios with a negative
              scalar eigenvalue for each of Neumann [0,1], Dirichlet [0,5]
              and Robin(1, 0.5) [0,5] at n=101, kinds interleaved, each
              solved by scalar eigen, logistic, system eigen and
              solve_endemic.
sweep         `vectorhost sweep` in-process on the 20-scenario config
              (n=51, t_end=30, steady_tol 1e-7, seed 11).

The equilibria and sweep inputs do not depend on the benchmark seed,
because seeded variants fail operations: scaling each coefficient field of
the criterion-4 panel by a seeded factor within 2% makes the cap-hitting
Robin scenario raise UniquenessViolation, and sweep seeds 4, 15 and 24 of
0..24 raise BlowUpError.  Fresh criterion-4 panels also spread by 19% of
their median in time, since one scenario costs 15 ms (no equilibrium) to
1.3 s (monotone sweep cap).
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

import vectorhost as vh
from vectorhost import cli, config, verify

SLOW_BAND = 1e-3  # criterion 4 skips scenarios with |lambda_system| within this band
STREAM_STRIDE = 1_000_000  # seed s draws stream entries s*STREAM_STRIDE + j

README_CONFIG = {
    "domain": {"a": 0, "b": 1, "n": 201},
    "bc": "neumann",
    "coefficients": {
        "d1": {"const": 1}, "d2": {"const": 1}, "rho": {"const": 1},
        "sigma1": {"const": 1}, "sigma2": {"const": 1}, "beta": {"const": 1},
        "mu": {"const": 1}, "h_u": {"const": 2},
    },
    "initial": {"h_i": {"const": 0.1}, "v_u": {"const": 0.8}, "v_i": {"const": 0.2}},
    "stepper": {"dt": "auto", "t_end": 200},
    "experiment": {"kind": "threshold", "seed": 7},
}


@dataclass(frozen=True)
class Sizes:
    pair_steps: int = 1000  # step-pairs per ordered pair, about 0.3 s at n=101
    pairs: int = 200  # pairs generated per run; calls cycle through them
    panel_per_kind: int = 50  # criterion 4's count per boundary kind
    sweep_count: int = 20
    sweep_t_end: float = 30.0
    setup_repeats: int = 5
    trace_pairs: int = 24  # pairs per traced run; one panel or one sweep otherwise


FULL = Sizes()
TINY = Sizes(pair_steps=20, pairs=3, panel_per_kind=1, sweep_count=2, sweep_t_end=1.0,
             setup_repeats=1, trace_pairs=2)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tridiagonal(op) -> np.ndarray:
    """Dense matrix of -L on active nodes, from the operator's diagonals."""
    return np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)


def dense_scalar_lambda(d2, beta, bc) -> float:
    """Smallest eigenvalue of -L2 - beta, symmetrized by the operator weights."""
    op = vh.assemble(d2, bc)
    a = tridiagonal(op) - np.diag(op.restrict(beta))
    sq = np.sqrt(op.weights)
    s = sq[:, None] * a / sq[None, :]
    return float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])


def dense_system_lambda(coeffs, v_b, bc) -> float:
    """Eigenvalue of smallest real part of the block operator linearized at (0, V_B, 0)."""
    op1, op2 = vh.assemble(coeffs.d1, bc), vh.assemble(coeffs.d2, bc)
    sl = op1.sl
    a12 = -(coeffs.sigma1.values * coeffs.h_u.values)[sl]
    a21 = -(coeffs.sigma2.values * v_b.values)[sl]
    a22 = (coeffs.mu.values * v_b.values)[sl]
    block = np.block([
        [tridiagonal(op1) + np.diag(coeffs.rho.values[sl]), np.diag(a12)],
        [np.diag(a21), tridiagonal(op2) + np.diag(a22)],
    ])
    return float(scipy.linalg.eigvals(block).real.min())


class Workload:
    """A list of calls, cycled in rounds of `round_size` calls."""

    round_size = 1
    items_per_call = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.info: dict = {}

    def trace_rounds(self) -> int:
        """Rounds per traced run, fixed so the traced counters repeat exactly."""
        return 1

    def prepare(self, i: int) -> None:
        """Untimed work before call i."""

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError


class Trajectories(Workload):
    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        mesh = vh.build_mesh(0.0, 1.0, 101)
        self.bc = vh.BoundarySpec.neumann()
        self.pairs = [self.make_pair(mesh, j) for j in range(sizes.pairs)]

    def make_pair(self, mesh, j):
        rng = np.random.default_rng(np.random.SeedSequence([9, self.seed * STREAM_STRIDE + j]))
        coeffs = verify.random_coefficients(mesh, rng)
        big = verify.random_initial(mesh, self.bc, rng)
        small = vh.State(
            0.0,
            vh.ScalarField(mesh, 0.5 * big.h_i.values),
            vh.ScalarField(mesh, big.v_u.values + 0.5 * big.v_i.values),
            vh.ScalarField(mesh, 0.5 * big.v_i.values),
        )
        dt = vh.stability_dt_max(coeffs, big)
        # compare_trajectories caps dt further; one step reports the cap.
        probe = vh.StepperConfig(dt=dt, t_end=1e-3 * dt)
        step = vh.compare_trajectories(small, big, coeffs, self.bc, probe).dt
        cfg = vh.StepperConfig(dt=dt, t_end=self.sizes.pair_steps * step)
        return small, big, coeffs, cfg

    def trace_rounds(self):
        return self.sizes.trace_pairs

    def call(self, i):
        small, big, coeffs, cfg = self.pairs[i % len(self.pairs)]
        return vh.compare_trajectories(small, big, coeffs, self.bc, cfg)

    def check(self, i, out):
        return bool(out.ordered) and out.max_violation <= 1e-10


@dataclass(frozen=True)
class Scenario:
    coeffs: vh.CoefficientSet
    bc: vh.BoundarySpec


def solve_scenario(sc: Scenario):
    """Criterion 4's chain: scalar eigen, logistic, system eigen, endemic solve."""
    eig = vh.principal_eigen_scalar(sc.coeffs.d2, sc.coeffs.beta, sc.bc)
    logistic = vh.solve_logistic(sc.coeffs, sc.bc, scalar_eig=eig)
    sys_eig = vh.principal_eigen_system(sc.coeffs, logistic.v_b, sc.bc)
    result = None
    if abs(sys_eig.lam) > SLOW_BAND:
        result = vh.solve_endemic(
            sc.coeffs, sc.bc, 0.0, logistic=logistic, scalar_eig=eig, eigenpair=sys_eig
        )
    return logistic, sys_eig, result


class Equilibria(Workload):
    SPECS = (
        (vh.BoundarySpec.neumann(), (0.0, 1.0)),
        (vh.BoundarySpec.dirichlet(), (0.0, 5.0)),
        (vh.BoundarySpec.robin(1.0, 0.5), (0.0, 5.0)),
    )

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        by_kind = [
            self.kind_panel(k, bc, vh.build_mesh(a, b, 101))
            for k, (bc, (a, b)) in enumerate(self.SPECS)
        ]
        self.panel = [sc for group in zip(*by_kind) for sc in group]
        self.round_size = len(self.panel)
        self.dense: dict[int, float] = {}

    def kind_panel(self, kind_index, bc, mesh):
        panel, k = [], 0
        while len(panel) < self.sizes.panel_per_kind:
            k += 1
            rng = np.random.default_rng(np.random.SeedSequence([4, kind_index, k]))
            coeffs = verify.random_coefficients(mesh, rng)
            if dense_scalar_lambda(coeffs.d2, coeffs.beta, bc) < 0:
                panel.append(Scenario(coeffs, bc))
        return panel

    def call(self, i):
        return solve_scenario(self.panel[i % len(self.panel)])

    def check(self, i, out):
        logistic, sys_eig, result = out
        j = i % len(self.panel)
        if j not in self.dense:
            sc = self.panel[j]
            self.dense[j] = dense_system_lambda(sc.coeffs, logistic.v_b, sc.bc)
        lam = self.dense[j]
        if abs(sys_eig.lam - lam) > 1e-8:
            return False
        if result is None:
            return abs(lam) <= SLOW_BAND
        if lam >= 0:
            return isinstance(result, vh.EndemicAbsent)
        interior = logistic.v_b.mesh.interior
        return isinstance(result, vh.EndemicEquilibrium) and bool(
            np.all(result.v_i.values[interior] < logistic.v_b.values[interior])
        )


def sweep_config(count: int, t_end: float) -> dict:
    return {
        "domain": {"a": 0, "b": 1, "n": 51},
        "bc": "neumann",
        "stepper": {"dt": "auto", "t_end": t_end, "steady_tol": 1e-7},
        "experiment": {"kind": "sweep", "seed": 11, "count": count},
    }


def expected_attractor(lambda_beta: float, lambda_system) -> str:
    if lambda_beta >= 0:
        return "Extinct"
    return "Endemic" if lambda_system < 0 else "DiseaseFree"


class Sweep(Workload):
    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.items_per_call = sizes.sweep_count
        self.config = workdir / "sweep.json"
        self.config.write_text(json.dumps(sweep_config(sizes.sweep_count, sizes.sweep_t_end)))
        self.out = workdir / "sweep"
        self.info["sweep_sha256"] = []

    def prepare(self, i):
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, i):
        return cli.main(["sweep", "--config", str(self.config), "--out", str(self.out)])

    def check(self, i, out):
        summary = self.out / "report.json"
        if out != 0 or not summary.is_file():
            return False
        digest = sha256(summary)
        if digest not in self.info["sweep_sha256"]:
            self.info["sweep_sha256"].append(digest)
        scenarios = json.loads(summary.read_text())["scenarios"]
        reports = list(self.out.glob("scenario_*/report.json"))
        if len(scenarios) != self.sizes.sweep_count or len(reports) != self.sizes.sweep_count:
            return False
        return all(
            s["predicted"] == expected_attractor(s["lambda_beta"], s["lambda_system"])
            for s in scenarios
        )


WORKLOADS = {"trajectories": Trajectories, "equilibria": Equilibria, "sweep": Sweep}


def readme_threshold(workdir: Path) -> tuple[bool, str]:
    """Run `vectorhost threshold` on the README config and check the closed
    form: lambda_system = 1 - sqrt(2), H* = 1, V_i* = V_u* = 0.5."""
    path = workdir / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    out = workdir / "readme"
    shutil.rmtree(out, ignore_errors=True)
    code = cli.main(["threshold", "--config", str(path), "--out", str(out)])
    if code != 0:
        return False, ""
    report = json.loads((out / "report.json").read_text())
    with (out / "profiles.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    h_star = np.array([float(r["H_i_star"]) for r in rows])
    vi_star = np.array([float(r["V_i_star"]) for r in rows])
    vu_star = np.array([float(r["V_B"]) for r in rows]) - vi_star
    ok = (
        report["predicted"] == "Endemic"
        and abs(report["lambda_system"] - (1.0 - np.sqrt(2.0))) <= 1e-8
        and np.abs(h_star - 1.0).max() <= 1e-8
        and np.abs(vi_star - 0.5).max() <= 1e-8
        and np.abs(vu_star - 0.5).max() <= 1e-8
    )
    return bool(ok), sha256(out / "report.json")


def setup_call(name: str, seed: int, workdir: Path) -> None:
    """What a user pays before the first result: parse a config, build the
    first inputs and make one small call at the workload's entry point."""
    if name == "sweep":
        path = workdir / "setup.json"
        path.write_text(json.dumps(sweep_config(1, 1.0)))
        code = cli.main(["sweep", "--config", str(path), "--out", str(workdir / "setup")])
        if code != 0:
            raise RuntimeError(f"set-up sweep exited {code}")
        return
    config.parse_config(json.dumps(README_CONFIG))
    if name == "trajectories":
        Trajectories(seed, Sizes(pair_steps=10, pairs=1), workdir).call(0)
    else:
        mesh = vh.build_mesh(0.0, 1.0, 101)
        coeffs = vh.CoefficientSet.from_constants(
            mesh, d1=1, d2=1, rho=1, sigma1=1, sigma2=1, beta=1, mu=1, h_u=2
        )
        solve_scenario(Scenario(coeffs, vh.BoundarySpec.neumann()))
