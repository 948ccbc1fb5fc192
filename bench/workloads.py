"""The benchmark's workloads: inputs from a seed, the program calls, the checks.

All three use the acceptance baseline: d = 2, eps = 8h, dt = h^2, IMEX,
projection every step.  ``execute`` makes only program calls and records when
they happen; ``verify`` runs the checks afterwards, so their cost stays out
of the timed figures.  Every call into mpfc goes through a module attribute
(``run.run_simulation``, not a name bound at import), so a tracer that has
rebound those names sees it.

An operation is one time step or one post-run program call.  ``plan`` lists
the operations of a round in the order they run, grouped; an exception marks
its group and every later group failed, a failed check marks the group it
checks.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks as C


@dataclass(frozen=True)
class Size:
    n: int          # grid points per axis
    eps_cells: int  # eps = eps_cells * h
    steps: int
    stride: int     # sampling stride in steps

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def eps(self) -> float:
        return self.eps_cells / self.n


class Ledger:
    """Tracks which operation group is running and which groups failed."""

    def __init__(self, plan: list[tuple[str, int]]):
        self.plan = plan
        self.current = plan[0][0]
        self.failed: set[str] = set()
        self.marks: dict[str, float] = {}

    def enter(self, group: str) -> None:
        self.current = group

    def abort(self) -> None:
        names = [g for g, _ in self.plan]
        self.failed.update(names[names.index(self.current):])

    @property
    def attempted(self) -> int:
        return sum(c for _, c in self.plan)

    @property
    def failed_count(self) -> int:
        return sum(c for g, c in self.plan if g in self.failed)


def _scenario(geometry, kind, n_phases, size: Size):
    from mpfc.dynamics import ModelKind, ModelSpec
    from mpfc.grid import GridSpec
    from mpfc.scenarios import Scenario

    grid = GridSpec(2, size.n)
    dt = grid.h**2
    return Scenario(
        geometry=geometry,
        model=ModelSpec(ModelKind(kind), size.eps, n_phases),
        grid=grid,
        dt=dt,
        t_end=size.steps * dt,
        snapshot_every=size.stride,
        projection="every_step",
        scheme="IMEX",
    )


def _simulate(ledger: Ledger, scenario, **kwargs):
    import mpfc.run

    ledger.marks["run_start"] = time.monotonic()
    record = mpfc.run.run_simulation(scenario, **kwargs)
    ledger.marks["run_end"] = time.monotonic()
    return record


def _disk_geometry(seed: int):
    rng = random.Random(seed)
    r0 = 0.24 + 0.06 * rng.random()
    center = (0.35 + 0.3 * rng.random(), 0.35 + 0.3 * rng.random())
    return center, r0


# --- disk-meanshift-brakke ---------------------------------------------------


def disk_plan(size: Size):
    return [("steps", size.steps)]


def disk_prepare(seed: int, size: Size) -> dict:
    from mpfc.scenarios import Disk
    from mpfc.testfields import bump_field

    center, r0 = _disk_geometry(seed)
    scenario = _scenario(Disk(center, r0), "MeanShift", 2, size)
    return {"scenario": scenario, "r0": r0, "phi": bump_field(scenario.grid, center=center)}


def disk_execute(prep: dict, size: Size, workdir: Path, ledger: Ledger) -> dict:
    phi = prep["phi"]
    rec = _simulate(ledger, prep["scenario"], keep_states=True, brakke_phis={"bump": (phi, None)})
    ledger.marks["last_call_end"] = ledger.marks["run_end"]
    return {
        "size": size, "r0": prep["r0"],
        "times": rec.times,
        "states": [st.values for st in rec.states],
        "energy_program": rec.energy_totals,
        "dissipated_end": float(rec.dissipated[-1]),
        "bump_mu_phi": rec.brakke["bump"].mu_phi,
        "phi": phi.values,
    }


def disk_verify(data: dict) -> list[tuple[str, str, bool, str]]:
    size, states = data["size"], data["states"]
    h, eps = size.h, size.eps
    energies = np.array([C.energy(u, h, eps) for u in states])
    volumes = np.array([C.integral(u[0], h) for u in states])
    mu_phi = np.array([C.integral(data["phi"] * C.energy_density(u, h, eps), h) for u in states])
    results = [
        C.partition_of_unity(states),
        C.energy_matches(data["energy_program"], energies),
        C.energy_nonincreasing(energies),
        C.circle_law(data["times"], energies, data["r0"]),
        C.volume_slope(data["times"], volumes),
        C.energy_balance(energies[0], energies[-1], data["dissipated_end"]),
        C.bump_series(data["bump_mu_phi"], mu_phi),
    ]
    return [("steps",) + r for r in results]


# --- junction-weightedsquare -------------------------------------------------


def junction_plan(size: Size):
    return [("steps", size.steps), ("measure_junction_angles", 1)]


def junction_center(seed: int, n: int):
    """A grid node: off-node centres bias the angle metrology (see README)."""
    rng = random.Random(seed)
    lo, hi = 3 * n // 8, 5 * n // 8
    return (rng.randint(lo, hi) / n, rng.randint(lo, hi) / n)


def junction_prepare(seed: int, size: Size) -> dict:
    from mpfc.scenarios import TripleJunction

    center = junction_center(seed, size.n)
    scenario = _scenario(TripleJunction(center=center), "WeightedSquare", 3, size)
    return {"scenario": scenario, "center": center}


def junction_execute(prep: dict, size: Size, workdir: Path, ledger: Ledger) -> dict:
    import mpfc.diagnostics

    rec = _simulate(ledger, prep["scenario"], keep_states=True)
    ledger.enter("measure_junction_angles")
    angles, _ = mpfc.diagnostics.measure_junction_angles(rec.states[-1], prep["center"])
    ledger.marks["last_call_end"] = time.monotonic()
    return {
        "size": size,
        "states": [st.values for st in rec.states],
        "energy_program": rec.energy_totals,
        "angles": angles,
    }


def junction_verify(data: dict) -> list[tuple[str, str, bool, str]]:
    size, states = data["size"], data["states"]
    energies = np.array([C.energy(u, size.h, size.eps) for u in states])
    return [
        ("steps",) + C.weighted_square_constraint(states),
        ("steps",) + C.energy_matches(data["energy_program"], energies),
        ("steps",) + C.energy_nonincreasing(energies),
        ("measure_junction_angles",) + C.junction_angles(data["angles"]),
    ]


# --- sphere-ll-postcheck -----------------------------------------------------


def sphere_plan(size: Size):
    samples = size.steps // size.stride + 1
    return [
        ("steps", size.steps),
        ("load_run_states", 2),
        ("brakke_residual", 2),
        ("dissipation_rate", samples),
        ("measure_sample", samples),
        ("monotonicity_check", 1),
    ]


def sphere_kernel(center, r0):
    """Kernel centred on the disk, terminal time 1.1 x the circle's extinction time."""
    from mpfc.analysis import KernelSpec

    return KernelSpec(center_y=center, terminal_s=1.1 * r0 * r0 / 2.0)


def sphere_prepare(seed: int, size: Size) -> dict:
    from mpfc.scenarios import Disk

    center, r0 = _disk_geometry(seed)
    scenario = _scenario(Disk(center, r0), "SphereLL", 3, size)
    return {"scenario": scenario, "center": center, "r0": r0}


def sphere_execute(prep: dict, size: Size, workdir: Path, ledger: Ledger) -> dict:
    import mpfc.analysis
    import mpfc.diagnostics
    import mpfc.dynamics
    import mpfc.run
    from mpfc.grid import ScalarField
    from mpfc.testfields import bump_field

    center, r0 = prep["center"], prep["r0"]
    rec = _simulate(ledger, prep["scenario"], keep_states=True, out_dir=workdir)

    # check-brakke --phi bump, then --phi one, each reading the run back.
    ledger.enter("load_run_states")
    states, model = mpfc.run.load_run_states(workdir)
    ledger.enter("brakke_residual")
    phi = bump_field(states[0].spec, center=center)
    res_bump = mpfc.analysis.brakke_residual(states, model.eps, model, phi)
    ledger.enter("load_run_states")
    states, model = mpfc.run.load_run_states(workdir)
    ledger.enter("brakke_residual")
    res_one = mpfc.analysis.brakke_residual(
        states, model.eps, model, ScalarField.constant(states[0].spec, 1.0)
    )
    ledger.enter("dissipation_rate")
    rates = np.array([mpfc.dynamics.dissipation_rate(st, model) for st in states])
    ledger.enter("measure_sample")
    sampled_energy = np.array(
        [mpfc.diagnostics.measure_sample(st, model).energy_total for st in states]
    )
    # check-monotonicity on the states already read back.
    ledger.enter("monotonicity_check")
    trace, verdict = mpfc.analysis.monotonicity_check(
        states, model.eps, sphere_kernel(center, r0), model=model
    )
    ledger.marks["last_call_end"] = time.monotonic()

    times = np.array([st.time for st in states])
    sampled = np.diff(sampled_energy) + 0.5 * np.diff(times) * (rates[:-1] + rates[1:])
    return {
        "size": size, "center": center, "r0": r0,
        "times": rec.times,
        "states": [st.values for st in rec.states],
        "read_back": [(st.time, st.values) for st in states],
        "csv_path": workdir / "timeseries.csv",
        "phi": phi.values,
        "res_bump": res_bump,
        "res_one": res_one,
        "sampled_one": sampled,
        "trace": trace,
        "verdict": verdict,
    }


def sphere_verify(data: dict) -> list[tuple[str, str, bool, str]]:
    size, states, times = data["size"], data["states"], data["times"]
    h, eps = size.h, size.eps
    energies = np.array([C.energy(u, h, eps) for u in states])
    du = [C.sphere_du_dt(u, h, eps) for u in states]
    rates = np.array([eps / C.SIGMA * C.integral(np.sum(d * d, axis=0), h) for d in du])
    phi = data["phi"]
    mu_phi = np.array([C.integral(phi * C.energy_density(u, h, eps), h) for u in states])
    integrands = np.array([C.brakke_integrand(u, d, phi, h, eps) for u, d in zip(states, du)])

    tr = data["trace"]
    kernel = sphere_kernel(data["center"], data["r0"])
    g_indep, bound_indep = [], []
    for u, t in zip(states, times):
        tau = kernel.terminal_s - t
        rho = C.heat_kernel(size.n, data["center"], tau)
        g_indep.append(C.integral(rho * C.energy_density(u, h, eps), h))
        bound_indep.append(C.integral(rho * C.discrepancy_density(u, h, eps), h) / (2.0 * tau))
    return [
        ("steps",) + C.unit_length(states),
        ("steps",) + C.timeseries_energy(data["csv_path"], energies),
        ("load_run_states",) + C.snapshot_roundtrip(states, times, data["read_back"]),
        ("brakke_residual",) + C.brakke_one_balance(
            data["res_one"], energies, rates, times, data["sampled_one"]
        ),
        ("brakke_residual",) + C.brakke_bump_residual(data["res_bump"], mu_phi, integrands, times),
        ("monotonicity_check",) + C.monotonicity(
            data["verdict"], tr.gaussian_density, tr.rhs_bound, tr.fd_tolerance,
            tr.interior_index, times, np.array(g_indep), np.array(bound_indep),
        ),
        ("monotonicity_check",) + C.multiplier_cancellation(
            tr.multiplier_cancellation, tr.multiplier_scale
        ),
    ]


@dataclass(frozen=True)
class Workload:
    """``prepare`` draws the inputs from the seed and builds the test functions;
    ``execute`` runs the program on them and returns what ``verify`` checks."""

    size: Size
    plan: Callable[[Size], list[tuple[str, int]]]
    prepare: Callable[[int, Size], dict]
    execute: Callable[[dict, Size, Path, Ledger], dict]
    verify: Callable[[dict], list[tuple[str, str, bool, str]]]


WORKLOADS = {
    "disk-meanshift-brakke": Workload(
        Size(256, 8, 320, 16), disk_plan, disk_prepare, disk_execute, disk_verify
    ),
    "junction-weightedsquare": Workload(
        Size(128, 8, 96, 32), junction_plan, junction_prepare, junction_execute, junction_verify
    ),
    "sphere-ll-postcheck": Workload(
        Size(256, 8, 128, 4), sphere_plan, sphere_prepare, sphere_execute, sphere_verify
    ),
}
