"""Run orchestration: sampling, accounting, persistence, determinism, studies."""

import csv

import numpy as np
import pytest

import mpfc.grid

from mpfc.dynamics import ModelKind, ModelSpec, PhaseField, advance, dissipation_rate, flow
from mpfc.errors import (
    BlowUpError,
    ConfigurationError,
    InputError,
    ProjectionError,
    ScenarioError,
)
from conftest import written_out_brakke_integrand
from mpfc.analysis import KernelSpec, brakke_residual, brakke_rhs_integrand, monotonicity_check
from mpfc.cli import _RATIO_WINDOWS
from mpfc.grid import GridSpec, ScalarField
from mpfc.run import load_run_states, run_simulation
from mpfc.scenarios import Disk, Scenario
from mpfc.study import convergence_study
from mpfc.testfields import bump_field


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

    @pytest.mark.parametrize("kind, n_phases", [(ModelKind.MEAN_SHIFT, 2), (ModelKind.SPHERE_LL, 3)])
    def test_streamed_brakke_series_equals_the_public_integrand(self, kind, n_phases):
        # The streamed series is the step trapezoid of brakke_rhs_integrand,
        # which matches the written-out integrand, bit for bit.
        scn = disk_scenario(t_end=12 * (1.0 / 128) ** 2, kind=kind, n_phases=n_phases,
                            snapshot_every=1, projection="off")
        phi = bump_field(scn.grid, center=(0.45, 0.5))
        rec = run_simulation(scn, keep_states=True, brakke_phis={"bump": (phi, None)})
        integrand = [brakke_rhs_integrand(st, scn.model, flow(st, scn.model), phi)
                     for st in rec.states]
        assert integrand == [written_out_brakke_integrand(st, scn.model, flow(st, scn.model),
                                                          phi.values) for st in rec.states]
        cumulative = [0.0]
        for p, i in zip(integrand, integrand[1:]):
            cumulative.append(cumulative[-1] + scn.dt * 0.5 * (p + i))
        assert rec.brakke["bump"].rhs_cumulative.tobytes() == np.array(cumulative).tobytes()

    def test_sample_times_strictly_increasing(self):
        rec = run_simulation(disk_scenario())
        assert np.all(np.diff(rec.times) > 0)

    def test_equilibrium_scenario_is_frozen(self):
        # all-wells constant state: a strip degenerates to pure phases when
        # built with eps narrow; instead verify by running a pure-phase state
        # through the stepping API directly
        spec = GridSpec(2, 64)
        model = ModelSpec(ModelKind.WEIGHTED_SUM, 0.05, 2)
        state = PhaseField(spec, np.stack([np.ones(spec.shape), np.zeros(spec.shape)]))
        for _ in range(3):
            out = advance(state, model, 1e-5, "IMEX", flow(state, model), project=True)
            assert np.max(np.abs(out.values - state.values)) < 1e-13
            state = out

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

    def test_holder_report_present(self):
        # max L1 / sqrt(time apart) over consecutive samples and over each
        # later sample against the initial state, from the kept states.
        rec = run_simulation(disk_scenario(t_end=0.004), keep_states=True)
        states = rec.states
        h2 = states[0].spec.h ** 2

        def ratio(a, b):
            l1 = max(np.sum(np.abs(a.values[i] - b.values[i])) * h2 for i in range(a.n_phases))
            return l1 / np.sqrt(b.time - a.time)

        ratios = [ratio(a, b) for a, b in zip(states, states[1:])]
        ratios += [ratio(states[0], b) for b in states[2:]]
        assert len(states) >= 3
        assert rec.holder["n_pairs"] == len(ratios) == 2 * len(states) - 3
        assert rec.holder["holder_constant"] == pytest.approx(max(ratios), rel=1e-12)

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
        assert np.array_equal(rec.dissipation_rates, csv_rates)

    @pytest.mark.parametrize(
        "phis, error",
        [
            (lambda spec: {"one": (bump_field(spec), None)}, ValueError),
            (lambda spec: {"bump": (bump_field(spec), bump_field(spec))}, ValueError),
            (lambda spec: {"phi": (ScalarField.constant(spec, -1.0), None)}, InputError),
            (lambda spec: {"phi": (bump_field(GridSpec(2, 32)), None)}, InputError),
        ],
        ids=["reserved-name", "dphi-dt", "negative", "other-grid"],
    )
    def test_brakke_phis_contract(self, phis, error):
        scn = disk_scenario()
        with pytest.raises(error):
            run_simulation(scn, brakke_phis=phis(scn.grid))

    @pytest.mark.parametrize(
        "projection, error", [("off", BlowUpError), ("every_step", ProjectionError)]
    )
    def test_failed_run_leaves_last_good_snapshot(self, tmp_path, projection, error):
        # dt = 0.05 is far beyond the stable step: the unprojected state goes
        # non-finite at step 8, the projected one strays further from the
        # manifold than the projection accepts at step 6.
        n = 64
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(), model=ModelSpec(ModelKind.MEAN_SHIFT, 4.0 / n, 2), grid=spec,
            dt=0.05, t_end=2.0, snapshot_every=4, projection=projection,
        )
        with pytest.raises(error) as info:
            run_simulation(scn, out_dir=tmp_path)
        snaps = sorted(tmp_path.glob("snap_*.mpfc"))
        assert (tmp_path / "last_good.mpfc").read_bytes() == snaps[-1].read_bytes()
        step = 8 if error is BlowUpError else 6
        assert type(info.value) is error
        assert info.value.step_index == step
        assert info.value.time == pytest.approx(step * 0.05, rel=1e-12)
        assert f"step {step} " in str(info.value)
        # The samples taken before the failure: a header and one row per snapshot.
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert len(rows) == 1 + len(snaps)

    def test_sphere_absent_phase_costs_nothing(self, tmp_path):
        # On a disk the third SphereLL component stays all +0.0, and the N = 3
        # run is the N = 2 run bit for bit: states, samples, CSV columns, the
        # Brakke balance and the monotonicity trace.
        runs = {}
        for n_phases in (2, 3):
            scn = disk_scenario(t_end=24 * (1.0 / 128) ** 2, kind=ModelKind.SPHERE_LL,
                                n_phases=n_phases, snapshot_every=4)
            phi = bump_field(scn.grid, center=(0.45, 0.5))
            rec = run_simulation(scn, keep_states=True, out_dir=tmp_path / str(n_phases),
                                 brakke_phis={"bump": (phi, None)})
            with open(tmp_path / str(n_phases) / "timeseries.csv") as f:
                rows = list(csv.DictReader(f))
            runs[n_phases] = scn.model, rec, rows, phi
        (model2, two, rows2, phi), (model3, three, rows3, _) = runs[2], runs[3]
        for st2, st3 in zip(two.states, three.states, strict=True):
            assert st2.values.tobytes() == st3.values[:2].tobytes()
            assert st3.absent == (False, False, True)
        for s2, s3 in zip(two.samples, three.samples, strict=True):
            assert s2.energy_total == s3.energy_total and s2.mu_phi == s3.mu_phi
            assert s2.energy_per_phase.tobytes() == s3.energy_per_phase[:2].tobytes()
            assert s3.energy_per_phase[2] == 0.0
        for r2, r3 in zip(rows2, rows3, strict=True):
            assert r2 == {key: r3[key] for key in r2}
        for name in ("dissipated", "dissipation_rates"):
            assert getattr(two, name).tobytes() == getattr(three, name).tobytes()
        assert (two.brakke["bump"].rhs_cumulative.tobytes()
                == three.brakke["bump"].rhs_cumulative.tobytes())
        residuals = [brakke_residual(rec.states, m.eps, m, phi).tobytes()
                     for m, rec in ((model2, two), (model3, three))]
        assert residuals[0] == residuals[1]
        kernel = KernelSpec((0.5, 0.5), 0.05)
        traces = [monotonicity_check(rec.states, m.eps, kernel, model=m)[0]
                  for m, rec in ((model2, two), (model3, three))]
        for name in ("gaussian_density", "rhs_bound", "multiplier_cancellation",
                     "multiplier_scale"):
            assert getattr(traces[0], name).tobytes() == getattr(traces[1], name).tobytes()

    def test_scratch_released_after_a_run(self, tmp_path):
        run_simulation(disk_scenario(t_end=4 * (1.0 / 128) ** 2))
        assert mpfc.grid._scratch_local.buffers == {}
        n = 64
        failing = Scenario(
            geometry=Disk(), model=ModelSpec(ModelKind.MEAN_SHIFT, 4.0 / n, 2),
            grid=GridSpec(2, n), dt=0.05, t_end=2.0, projection="off",
        )
        with pytest.raises(BlowUpError):
            run_simulation(failing, out_dir=tmp_path)
        assert mpfc.grid._scratch_local.buffers == {}

    def test_keep_states(self):
        rec = run_simulation(disk_scenario(t_end=0.002), keep_states=True)
        assert rec.states is not None
        assert len(rec.states) == len(rec.samples)
        assert rec.states[-1].time == rec.samples[-1].time


class TestConvergenceStudy:
    def test_h_axis_laplacian_ratios(self):
        base = self.small_disk()
        result = convergence_study(base, "h", 3, residual="laplacian")
        assert all(3.5 <= r <= 4.5 for r in result.ratios)

    def test_dt_axis_dissipation_ratios_small_case(self):
        base = disk_scenario(n=128, t_end=0.004)
        result = convergence_study(base, "dt", 3, residual="dissipation")
        # first-order behaviour; a generous window at this small size
        assert all(1.4 <= r <= 2.8 for r in result.ratios)

    @staticmethod
    def small_disk():
        # eps = 4h and t_end = 32 h^2: three dt levels take well under a second.
        spec = GridSpec(2, 64)
        model = ModelSpec(ModelKind.MEAN_SHIFT, 4 * spec.h, 2)
        return Scenario(geometry=Disk(radius=0.25), model=model, grid=spec, dt=spec.h**2,
                        t_end=32 * spec.h**2, snapshot_every=8)

    def test_dt_axis_brakke_ratios_in_the_cli_window(self):
        result = convergence_study(self.small_disk(), "dt", 3, residual="brakke")
        lo, hi = _RATIO_WINDOWS[("dt", "brakke")]
        assert all(lo <= r <= hi for r in result.ratios)
        assert all(type(lv.residual) is float for lv in result.levels)

    def test_dt_axis_volume_rate_decreases(self):
        # The residual also holds a dt-independent spatial error, so it is
        # only checked to decrease, not for a first-order ratio.
        result = convergence_study(self.small_disk(), "dt", 3, residual="volume_rate")
        assert result.monotone_decreasing()
        assert all(type(lv.residual) is float for lv in result.levels)

    def test_levels_validation(self):
        base = self.small_disk()
        with pytest.raises(ConfigurationError):
            convergence_study(base, "dt", 2)
        with pytest.raises(ConfigurationError):
            convergence_study(base, "x", 3)
        with pytest.raises(ConfigurationError):
            convergence_study(base, "dt", 3, residual="nonsense")
