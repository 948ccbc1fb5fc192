"""Simulation orchestration: stepping, sampling, accounting, persistence.

``run_simulation`` integrates a scenario to its end time, recording a
``MeasureSample`` at every snapshot step.  Alongside the samples it keeps the
running dissipation integral

    D(t) = SIGMA^{-1} int_0^t int eps |du/dt|^2 dx dt'

accumulated with a per-step trapezoid of the flow's dissipation rate, so the
discrete energy balance  E(t) - E(0) + D(t) ~ 0  can be checked at any sample
without re-simulation.  Optional phi-weighted balance series stream the same
accumulation for arbitrary nonnegative test functions.  The built-in series
``"one"`` goes through the same accumulator with integrand -rate and
int phi dmu = the sampled total energy, and D(t) is minus its cumulative, so
the phi == 1 balance residual equals the energy balance residual by
construction.

Everything recorded is a deterministic function of the scenario: fixed
reduction orders, no threading dependence, no wall-clock input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import grid as g
from .analysis import brakke_rhs_integrand, mu_of_phi
from .diagnostics import MeasureSample, measure_sample
from .dynamics import (
    PhaseField,
    advance,
    check_scheme,
    dissipation_rate,
    flow,
    max_neighbor_jump,
)
from .errors import BlowUpError, ScenarioError
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
    brakke_phis: dict[str, tuple[ScalarField, ScalarField | None]] | None = None,
) -> RunRecord:
    """Integrate a scenario and record diagnostics at every snapshot step.

    ``brakke_phis`` maps series names to (phi, dphi_dt) test-function pairs;
    the series named ``"one"`` is always present.  With ``out_dir`` set, a
    snapshot file is written at every sample and ``timeseries.csv`` at the
    end; on blow-up the last good snapshot is persisted before the error
    propagates.  ``t_end`` is rounded to a whole number of steps.
    """
    model = scenario.model
    state = build_scenario(scenario)
    check_scheme(scenario.grid, model, scenario.dt, scenario.scheme)
    jump = max_neighbor_jump(state)
    if jump > 0.5:
        raise ScenarioError(
            f"initial data has a per-cell jump of {jump:.3f} (> 0.5); raw indicator "
            "functions are not accepted, build profiles through the scenario module"
        )

    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    sample_steps = sorted(set(range(0, n_steps + 1, scenario.snapshot_every)) | {n_steps})
    sample_set = set(sample_steps)
    project = scenario.projection == "every_step"

    phis = dict(brakke_phis or {})
    if "one" in phis:
        raise ValueError('the Brakke series name "one" is reserved')
    phi_vals = {name: (p.values, None if dp is None else dp.values) for name, (p, dp) in phis.items()}
    names = ["one", *phi_vals]

    samples: list[MeasureSample] = []
    states: list[PhaseField] = [] if keep_states else None
    snapshot_paths: list[tuple[float, Path]] = []
    mu_phi_at_sample: dict[str, list[float]] = {name: [] for name in names}
    rhs_cum_at_sample: dict[str, list[float]] = {name: [] for name in names}

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    rhs_cum = {name: 0.0 for name in names}
    prev_integrand: dict[str, float] | None = None
    last_snapshot: PhaseField = state

    # L1 drift bookkeeping for the Hoelder-continuity report.
    initial_state = state
    prev_sample_state = state
    holder_pairs: list[tuple[float, float]] = []

    def l1_distance(a: PhaseField, b: PhaseField) -> float:
        return max(
            g.integrate_raw(np.abs(a.values[i] - b.values[i]), a.spec.h, a.spec.d)
            for i in range(a.n_phases)
        )

    step_index = 0
    try:
        for step_index in range(n_steps + 1):
            fe = flow(state, model)
            integrand = {"one": -dissipation_rate(state, model, fe.rhs)}
            for name, (pv, dv) in phi_vals.items():
                integrand[name] = brakke_rhs_integrand(
                    state, model, pv, dv if dv is not None else 0.0, fe.rhs
                )
            if prev_integrand is not None:
                for name in names:
                    rhs_cum[name] += dt * 0.5 * (prev_integrand[name] + integrand[name])
            prev_integrand = integrand

            if step_index in sample_set:
                sample = measure_sample(state, model, fe.rhs)
                samples.append(sample)
                mu_phi_at_sample["one"].append(sample.energy_total)
                for name, (pv, _) in phi_vals.items():
                    mu_phi_at_sample[name].append(mu_of_phi(state, model.eps, pv))
                for name in names:
                    rhs_cum_at_sample[name].append(rhs_cum[name])
                if states is not None:
                    states.append(state)
                if out_path is not None:
                    p = out_path / f"snap_{step_index:08d}.mpfc"
                    write_snapshot(state, model, p)
                    snapshot_paths.append((state.time, p))
                if state is not prev_sample_state:
                    dt_pair = state.time - prev_sample_state.time
                    holder_pairs.append((dt_pair, l1_distance(state, prev_sample_state)))
                    if prev_sample_state is not initial_state:
                        holder_pairs.append(
                            (state.time, l1_distance(state, initial_state))
                        )
                    prev_sample_state = state
                last_snapshot = state

            if step_index == n_steps:
                break
            state = advance(state, model, dt, scenario.scheme, fe, project)
            del fe  # free this step's flow arrays before the next flow call allocates
    except BlowUpError as exc:
        if out_path is not None:
            write_snapshot(last_snapshot, model, out_path / "last_good.mpfc")
        raise BlowUpError(
            f"blow-up at step {step_index} (t={state.time:.6g}); "
            f"last good snapshot at t={last_snapshot.time:.6g}",
            step_index=step_index,
            time=state.time,
        ) from exc

    brakke = {
        name: BrakkeSeries(
            name,
            mu_phi=np.asarray(mu_phi_at_sample[name]),
            rhs_cumulative=np.asarray(rhs_cum_at_sample[name]),
        )
        for name in names
    }
    record = RunRecord(
        scenario=scenario,
        samples=samples,
        sample_steps=np.asarray(sample_steps),
        dissipated=-brakke["one"].rhs_cumulative,
        brakke=brakke,
        states=states,
        snapshot_paths=snapshot_paths,
    )
    if holder_pairs:
        ratios = [dist / np.sqrt(dtp) for dtp, dist in holder_pairs if dtp > 0]
        record.holder = {"holder_constant": float(np.max(ratios)), "n_pairs": len(ratios)}
    if out_path is not None:
        emit_timeseries(record, out_path / "timeseries.csv")
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
