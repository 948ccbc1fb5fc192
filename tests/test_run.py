"""Run orchestration: sampling, accounting, persistence, determinism, studies."""

import numpy as np
import pytest

from mpfc.dynamics import ModelKind, ModelSpec, dissipation_rate
from mpfc.errors import ConfigurationError, ScenarioError
from mpfc.grid import GridSpec
from mpfc.run import load_run_states, run_simulation
from mpfc.scenarios import Disk, Scenario
from mpfc.study import convergence_study


def disk_scenario(n=128, t_end=0.002, kind=ModelKind.MEAN_SHIFT, n_phases=2, **kw):
    spec = GridSpec(2, n)
    eps = 8.0 / n
    model = ModelSpec(kind, eps, n_phases)
    defaults = dict(dt=spec.h**2, snapshot_every=8)
    defaults.update(kw)
    return Scenario(geometry=Disk(radius=0.3), model=model, grid=spec, t_end=t_end, **defaults)


class TestRunSimulation:
    def test_zero_time_returns_initial_sample_only(self):
        rec = run_simulation(disk_scenario(t_end=0.0))
        assert len(rec.samples) == 1
        assert rec.samples[0].time == 0.0

    def test_sample_times_strictly_increasing(self):
        rec = run_simulation(disk_scenario())
        assert np.all(np.diff(rec.times) > 0)

    def test_equilibrium_scenario_is_frozen(self):
        # all-wells constant state: a strip degenerates to pure phases when
        # built with eps narrow; instead verify by running a pure-phase state
        # through the stepping API directly
        from mpfc.dynamics import PhaseField, step

        spec = GridSpec(2, 64)
        model = ModelSpec(ModelKind.WEIGHTED_SUM, 0.05, 2)
        state = PhaseField(spec, np.stack([np.ones(spec.shape), np.zeros(spec.shape)]))
        for _ in range(3):
            out = step(state, model, 1e-5, "IMEX", project=True)
            assert np.max(np.abs(out.state.values - state.values)) < 1e-13
            state = out.state

    def test_mean_shift_total_volume_conserved(self):
        rec = run_simulation(disk_scenario(t_end=0.004, projection="off"))
        totals = np.array([np.sum(s.phase_volumes) for s in rec.samples])
        assert np.max(np.abs(totals - totals[0])) < 1e-12

    def test_energy_monotone_along_samples(self):
        rec = run_simulation(disk_scenario(t_end=0.004))
        e = rec.energy_totals
        assert np.all(np.diff(e) <= 1e-8 * e[0])

    def test_sharp_initial_data_rejected(self):
        scn = disk_scenario(n=128)
        # shrink eps to under a cell so the profile is effectively a jump
        model = ModelSpec(ModelKind.MEAN_SHIFT, 0.25 / 128, 2)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=scn.grid,
            dt=scn.dt, t_end=scn.t_end,
        )
        with pytest.raises(ScenarioError):
            run_simulation(scn)

    def test_explicit_scheme_cfl_guard(self):
        scn = disk_scenario(scheme="ExplicitEuler")  # dt = h^2 > h^2/8
        with pytest.raises(ConfigurationError):
            run_simulation(scn)

    def test_holder_report_present(self):
        rec = run_simulation(disk_scenario(t_end=0.004))
        assert rec.holder is not None and rec.holder["holder_constant"] > 0

    def test_determinism_bitwise(self):
        a = run_simulation(disk_scenario(t_end=0.002))
        b = run_simulation(disk_scenario(t_end=0.002))
        assert np.array_equal(a.energy_totals, b.energy_totals)
        assert np.array_equal(a.dissipated, b.dissipated)

    def test_persistence_and_reload(self, tmp_path):
        out = tmp_path / "run"
        rec = run_simulation(disk_scenario(t_end=0.002), out_dir=out)
        assert (out / "timeseries.csv").exists()
        assert len(rec.snapshot_paths) == len(rec.samples)
        states, model = load_run_states(out)
        assert len(states) == len(rec.samples)
        assert model.kind == ModelKind.MEAN_SHIFT
        assert states[0].time == 0.0

    def test_csv_rate_is_the_integrated_rate(self, tmp_path):
        # The CSV reports the same rate, to the bit, that D(t) integrates.
        n = 128
        scn = disk_scenario(
            n=n, t_end=64 / n**2, kind=ModelKind.SPHERE_LL, n_phases=3, snapshot_every=4
        )
        rec = run_simulation(scn, keep_states=True, out_dir=tmp_path)
        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        col = lines[0].split(",").index("dissipation_rate")
        csv_rates = [float(line.split(",")[col]) for line in lines[1:]]
        assert len(csv_rates) == len(rec.states) == 17
        for rate, state in zip(csv_rates, rec.states):
            assert rate == dissipation_rate(state, scn.model)

    def test_keep_states(self):
        rec = run_simulation(disk_scenario(t_end=0.002), keep_states=True)
        assert rec.states is not None
        assert len(rec.states) == len(rec.samples)
        assert rec.states[-1].time == rec.samples[-1].time


class TestConvergenceStudy:
    def test_h_axis_laplacian_ratios(self):
        base = disk_scenario(n=64, t_end=0.0)
        result = convergence_study(base, "h", 3, residual="laplacian")
        assert all(3.5 <= r <= 4.5 for r in result.ratios)

    def test_dt_axis_dissipation_ratios_small_case(self):
        base = disk_scenario(n=128, t_end=0.004)
        result = convergence_study(base, "dt", 3, residual="dissipation")
        # first-order behaviour; a generous window at this small size
        assert all(1.4 <= r <= 2.8 for r in result.ratios)

    def test_levels_validation(self):
        base = disk_scenario(n=64, t_end=0.0)
        with pytest.raises(ConfigurationError):
            convergence_study(base, "dt", 2)
        with pytest.raises(ConfigurationError):
            convergence_study(base, "x", 3)
        with pytest.raises(ConfigurationError):
            convergence_study(base, "dt", 3, residual="nonsense")
