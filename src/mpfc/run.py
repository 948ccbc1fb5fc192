"""Simulation orchestration: stepping, sampling, accounting, persistence.

``run_simulation`` integrates a scenario to its end time, recording a
``MeasureSample`` and the flow's dissipation rate at every snapshot step.
Alongside the samples it keeps the running dissipation integral

    D(t) = SIGMA^{-1} int_0^t int eps |du/dt|^2 dx dt'

accumulated with a per-step trapezoid of the flow's dissipation rate, so the
discrete energy balance  E(t) - E(0) + D(t) ~ 0  can be checked at any sample
without re-simulation.  Optional phi-weighted balance series stream the same
accumulation for arbitrary nonnegative test functions.  The built-in series
``"one"`` goes through the same accumulator with integrand -rate and
int phi dmu = the sampled total energy, and D(t) is minus its cumulative, so
the phi == 1 balance residual equals the energy balance residual by
construction.  Each step forms one row of integrands, ``"one"`` first, and
each sample keeps one row of int phi dmu and one of cumulative integrals;
the series are the columns of those rows.

Everything recorded is a deterministic function of the scenario: fixed
reduction orders, no threading dependence, no wall-clock input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import grid as g
from .analysis import brakke_rhs_integrand, check_test_function
from .diagnostics import MeasureSample, measure_sample
from .dynamics import PhaseField, advance, flow, max_neighbor_jump
from .errors import BlowUpError, ProjectionError, ScenarioError
from .grid import ScalarField
from .scenarios import Scenario, build_scenario
from .snapshots import emit_timeseries, read_snapshot, write_snapshot

__all__ = ["BrakkeSeries", "RunRecord", "run_simulation", "load_run_states"]


@dataclass
class BrakkeSeries:
    """Streamed phi-weighted energy balance along a run.

    ``mu_phi[j]`` is int phi d(mu) at sample j; ``rhs_cumulative[j]`` is the
    step-trapezoid integral of the balance right-hand side from t=0 to sample
    j.  ``residuals()`` returns the per-sample-interval balance defects.  The
    balance holds exactly for the semi-discrete flow, so these are pure
    time-step error.
    """

    name: str
    mu_phi: np.ndarray
    rhs_cumulative: np.ndarray

    def residuals(self) -> np.ndarray:
        return np.diff(self.mu_phi) - np.diff(self.rhs_cumulative)


@dataclass
class RunRecord:
    """Everything recorded along one simulation."""

    scenario: Scenario
    samples: list[MeasureSample]
    sample_steps: np.ndarray
    dissipated: np.ndarray              # cumulative dissipation integral per sample
    dissipation_rates: np.ndarray       # the flow's rate at each sample, as D(t) integrates it
    brakke: dict[str, BrakkeSeries] = field(default_factory=dict)
    states: list[PhaseField] | None = None
    snapshot_paths: list[tuple[float, Path]] = field(default_factory=list)
    holder: dict | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.samples])

    @property
    def energy_totals(self) -> np.ndarray:
        return np.array([s.energy_total for s in self.samples])

    def energy_balance_residual(self) -> float:
        """|E(T) - E(0) + D(T)| for the whole run."""
        return abs(self.energy_totals[-1] - self.energy_totals[0] + self.dissipated[-1])

    def phase_volume(self, i: int) -> np.ndarray:
        return np.array([s.phase_volumes[i] for s in self.samples])


def run_simulation(
    scenario: Scenario,
    *,
    keep_states: bool = False,
    out_dir: str | os.PathLike | None = None,
    brakke_phis: dict[str, tuple[ScalarField, None]] | None = None,
) -> RunRecord:
    """Integrate a scenario and record diagnostics at every snapshot step.

    ``brakke_phis`` maps series names to (phi, None) pairs: phi is a
    nonnegative test function on the run's grid, fixed in time, so its time
    derivative must be ``None`` (a d_t phi term would integrate the
    derivative of some other phi).  The series named ``"one"`` is always
    present.  With ``out_dir`` set, a snapshot file is written at every
    sample and ``timeseries.csv`` at the end.  When a step fails, by blow-up
    or by a ``ProjectionError``, the last sampled state is persisted as
    ``last_good.mpfc`` and the samples so far as ``timeseries.csv``; then the
    error is re-raised as its own class, naming the failing step and time.
    ``t_end`` is rounded to a whole number of steps.  However it ends, the
    run drops this thread's scratch buffers (``grid.release_scratch``).
    """
    try:
        return _simulate(scenario, keep_states, out_dir, brakke_phis)
    finally:
        g.release_scratch()


def _simulate(scenario: Scenario, keep_states: bool, out_dir, brakke_phis) -> RunRecord:
    phis = brakke_phis or {}
    if "one" in phis:
        raise ValueError('the Brakke series name "one" is reserved')
    for name, (phi, dphi_dt) in phis.items():
        if dphi_dt is not None:
            raise ValueError(f"Brakke series {name!r}: phi is static, so d_t phi must be None")
        check_test_function(phi, scenario.grid)
        phi.forward_differences  # formed before the state: allocation order moves step times
    phi_fields = tuple(phi for phi, _ in phis.values())

    model = scenario.model
    state = first = last = build_scenario(scenario)
    jump = max_neighbor_jump(state)
    if jump > 0.5:
        raise ScenarioError(
            f"initial data has a per-cell jump of {jump:.3f} (> 0.5); raw indicator "
            "functions are not accepted, build profiles through the scenario module"
        )

    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    sample_set = set(range(0, n_steps + 1, scenario.snapshot_every)) | {n_steps}
    project = scenario.projection == "every_step"
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    samples: list[MeasureSample] = []
    states: list[PhaseField] | None = [] if keep_states else None
    snapshot_paths: list[tuple[float, Path]] = []
    # Series columns: "one" (integrand -rate, int phi dmu = the total energy),
    # then one per test function.  ``cum`` is the running trapezoid.
    rates, mu_rows, cum_rows, holder_ratios = [], [], [], []
    cum, prev = [0.0] * (1 + len(phi_fields)), None

    def l1_distance(a: PhaseField, b: PhaseField) -> float:
        return max(
            g.integrate_raw(np.abs(a.values[i] - b.values[i]), a.spec.h, a.spec.d)
            for i in range(a.n_phases)
        )

    step_index = 0
    failure: BlowUpError | ProjectionError | None = None
    try:
        for step_index in range(n_steps + 1):
            fe = flow(state, model)
            row = [-fe.rate] + [brakke_rhs_integrand(state, model, fe, phi) for phi in phi_fields]
            if prev is not None:
                cum = [c + dt * 0.5 * (p + i) for c, p, i in zip(cum, prev, row)]
            prev = row

            if step_index in sample_set:
                sample = measure_sample(state, model, phi_fields)
                samples.append(sample)
                rates.append(fe.rate)
                mu_rows.append([sample.energy_total, *sample.mu_phi])
                cum_rows.append(cum)
                if states is not None:
                    states.append(state)
                if out_path is not None:
                    p = out_path / f"snap_{step_index:08d}.mpfc"
                    write_snapshot(state, model, p)
                    snapshot_paths.append((state.time, p))
                # Hoelder report: L1 drift from the previous sample and from the start.
                if state is not last:
                    holder_ratios.append(l1_distance(state, last) / np.sqrt(state.time - last.time))
                    if last is not first:
                        holder_ratios.append(l1_distance(state, first) / np.sqrt(state.time))
                last = state

            if step_index == n_steps:
                break
            state = advance(state, model, dt, scenario.scheme, fe, project)
            del fe  # free this step's flow arrays before the next flow call allocates
    except (BlowUpError, ProjectionError) as exc:
        failure = exc

    mu_phi, rhs_cum = np.array(mu_rows), np.array(cum_rows)
    record = RunRecord(
        scenario=scenario,
        samples=samples,
        sample_steps=np.asarray(sorted(sample_set)),
        dissipated=-rhs_cum[:, 0],
        dissipation_rates=np.asarray(rates),
        brakke={name: BrakkeSeries(name, mu_phi[:, k], rhs_cum[:, k])
                for k, name in enumerate(["one", *phis])},
        states=states,
        snapshot_paths=snapshot_paths,
        holder={"holder_constant": float(np.max(holder_ratios)), "n_pairs": len(holder_ratios)}
        if holder_ratios else None,
    )
    if out_path is not None:
        emit_timeseries(record, out_path / "timeseries.csv")
    if failure is not None:
        if out_path is not None:
            write_snapshot(last, model, out_path / "last_good.mpfc")
        time = state.time + dt  # the failing step is the advance from ``state``
        raise type(failure)(
            f"step {step_index + 1} (t={time:.6g}): {failure}; "
            f"last good snapshot at t={last.time:.6g}",
            step_index=step_index + 1,
            time=time,
        ) from failure
    return record


def load_run_states(run_dir: str | os.PathLike):
    """Load all snapshots of a run directory, sorted by time.

    Returns (states, model_spec).  Raises ScenarioError when the directory
    holds no snapshots or the snapshots disagree on the model.
    """
    paths = sorted(Path(run_dir).glob("snap_*.mpfc"))
    if not paths:
        raise ScenarioError(f"no snapshots found in {run_dir}")
    states = []
    model = None
    for p in paths:
        st, m = read_snapshot(p)
        if model is None:
            model = m
        elif m != model:
            raise ScenarioError(f"{p}: model spec differs between snapshots")
        states.append(st)
    states.sort(key=lambda s: s.time)
    return states, model
