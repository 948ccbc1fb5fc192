"""Acceptance suite: every headline criterion at its stated tolerance.

Baseline: d = 2, n = 256, eps = 8h = 1/32, dt = h^2, IMEX, projection every
step, shrinking disk of radius 0.3.  Each criterion prints one PASS/FAIL line
(visible with ``pytest -s``/``-rP``) and the collected report is written to
``acceptance_report.txt`` next to this file.

The run horizon is 1280 steps (T = 0.01953125 ~ 0.02), chosen as an exact
multiple of the snapshot stride so sample times match across dt-refinement
levels and balance residuals can be compared interval by interval.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpfc.analysis import KernelSpec, monotonicity_check
from mpfc.diagnostics import first_variation, measure_junction_angles, mu_of_phi
from mpfc.dynamics import ModelKind, ModelSpec, flow
from mpfc.grid import GridSpec, VectorField, gradient_raw, integrate_raw
from mpfc.potential import SIGMA
from mpfc.run import run_simulation
from mpfc.scenarios import Disk, Scenario, TripleJunction
from mpfc.snapshots import read_snapshot, write_snapshot
from mpfc.study import convergence_study
from mpfc.testfields import bump_field, radial_vector_field, random_smooth_vector_field

pytestmark = pytest.mark.acceptance

N = 256
GRID = GridSpec(2, N)
EPS = 8.0 / N
DT0 = GRID.h**2
T_BASE = 1280 * DT0          # 0.01953125
SE = 16                      # snapshot stride in steps
RADIUS = 0.3

_REPORT: list[str] = []


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    _REPORT.append(line)
    print(line)
    assert ok, line


def make_scenario(kind, n_phases, *, dt=DT0, t_end=T_BASE, projection="every_step",
                  snapshot_every=SE, geometry=None, grid=GRID, eps=EPS):
    return Scenario(
        geometry=geometry or Disk(radius=RADIUS),
        model=ModelSpec(kind, eps, n_phases),
        grid=grid,
        dt=dt,
        t_end=t_end,
        snapshot_every=snapshot_every,
        projection=projection,
    )


@pytest.fixture(scope="session")
def baseline_runs():
    """Disk runs for all four models at the baseline configuration."""
    runs = {}
    phi = bump_field(GRID)
    runs["MeanShift"] = run_simulation(
        make_scenario(ModelKind.MEAN_SHIFT, 2),
        keep_states=True,
        brakke_phis={"bump": (phi, None)},
    )
    runs["WeightedSum"] = run_simulation(make_scenario(ModelKind.WEIGHTED_SUM, 2))
    runs["WeightedSquare"] = run_simulation(make_scenario(ModelKind.WEIGHTED_SQUARE, 2))
    runs["SphereLL"] = run_simulation(
        make_scenario(ModelKind.SPHERE_LL, 3, snapshot_every=64), keep_states=True
    )
    return runs


@pytest.fixture(scope="session")
def dt_level_runs(baseline_runs):
    """MeanShift disk at dt0, dt0/2, dt0/4 with the bump balance series."""
    phi = bump_field(GRID)
    levels = [baseline_runs["MeanShift"]]
    for k in (1, 2):
        levels.append(
            run_simulation(
                make_scenario(ModelKind.MEAN_SHIFT, 2, dt=DT0 / 2**k),
                brakke_phis={"bump": (phi, None)},
            )
        )
    return levels


@pytest.fixture(scope="session")
def drift_runs():
    """No-projection runs to T = 640 dt0 for the constraint-drift dt study.

    SphereLL drifts on the two-phase disk; WeightedSquare needs three
    genuinely distinct phases (any two-phase state satisfies
    k(w) + k(1-w) = 1/6 identically, leaving only round-off), so it runs on
    the triple junction.  The sum-constraint models conserve exactly at the
    discrete level and are asserted at round-off.
    """
    t_end = 640 * DT0
    out = {}
    out["SphereLL"] = [
        run_simulation(
            make_scenario(ModelKind.SPHERE_LL, 3, dt=DT0 / 2**k, t_end=t_end,
                          projection="off", snapshot_every=1 << 30)
        )
        for k in range(3)
    ]
    out["WeightedSquare"] = [
        run_simulation(
            make_scenario(ModelKind.WEIGHTED_SQUARE, 3, dt=DT0 / 2**k, t_end=t_end,
                          geometry=TripleJunction(), projection="off",
                          snapshot_every=1 << 30)
        )
        for k in range(3)
    ]
    for kind in (ModelKind.MEAN_SHIFT, ModelKind.WEIGHTED_SUM):
        out[kind.value] = [
            run_simulation(
                make_scenario(kind, 2, t_end=t_end, projection="off",
                              snapshot_every=1 << 30)
            )
        ]
    return out


@pytest.fixture(scope="session")
def long_run():
    """MeanShift disk run through extinction (T = 3584 dt0 ~ 0.0547)."""
    return run_simulation(
        make_scenario(ModelKind.MEAN_SHIFT, 2, t_end=3584 * DT0, snapshot_every=64),
        keep_states=True,
    )


@pytest.fixture(scope="session")
def junction_runs():
    out = {}
    for kind in (ModelKind.MEAN_SHIFT, ModelKind.WEIGHTED_SUM):
        out[kind.value] = run_simulation(
            make_scenario(kind, 3, geometry=TripleJunction(), t_end=640 * DT0,
                          snapshot_every=640),
            keep_states=True,
        )
    return out


def extinction_time(record) -> float:
    for s in record.samples:
        if s.phase_sup[0] < 0.5:
            return s.time
    return np.inf


class TestCriterion1Conservation:
    def test_projected_runs_conserve(self, baseline_runs):
        worst = {
            name: max(s.constraint_drift for s in rec.samples)
            for name, rec in baseline_runs.items()
        }
        ok = all(v <= 1e-10 for v in worst.values())
        detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        report(1, ok, f"projected max constraint violation: {detail} (tol 1e-10)")

    def test_unprojected_drift_halves_with_dt(self, drift_runs):
        lines = []
        ok = True
        for name in ("SphereLL", "WeightedSquare"):
            drifts = [rec.samples[-1].constraint_drift for rec in drift_runs[name]]
            ratios = [drifts[i] / drifts[i + 1] for i in range(2)]
            ok &= all(1.5 <= r <= 2.5 for r in ratios)
            lines.append(f"{name} ratios {ratios[0]:.2f},{ratios[1]:.2f}")
        for name in ("MeanShift", "WeightedSum"):
            drift = drift_runs[name][0].samples[-1].constraint_drift
            ok &= drift <= 1e-12
            lines.append(f"{name} drift {drift:.1e} (discretely exact)")
        report(1, ok, "unprojected drift at t=0.0098: " + "; ".join(lines))


class TestCriterion2EnergyBalance:
    def test_residual_and_dt_ratios(self, dt_level_runs):
        mu0 = dt_level_runs[0].energy_totals[0]
        residuals = [rec.energy_balance_residual() for rec in dt_level_runs]
        rel = residuals[0] / mu0
        ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
        ok = rel <= 0.02 and all(1.6 <= r <= 2.6 for r in ratios)
        report(
            2, ok,
            f"balance residual/mu0 = {rel:.2e} (tol 2e-2), dt ratios "
            f"{ratios[0]:.2f}, {ratios[1]:.2f} (window [1.6, 2.6])",
        )


class TestCriterion3MonotoneEnergy:
    def test_energy_nonincreasing_all_runs(self, baseline_runs, junction_runs, long_run):
        records = dict(baseline_runs)
        records.update({f"junction-{k}": v for k, v in junction_runs.items()})
        records["long"] = long_run
        worst_name, worst_val = None, -np.inf
        for name, rec in records.items():
            e = rec.energy_totals
            steps = np.diff(rec.sample_steps)
            slack = 1e-8 * e[0] * steps
            rise = np.max(np.diff(e) - slack)
            if rise > worst_val:
                worst_name, worst_val = name, rise
        ok = worst_val <= 0.0
        report(
            3, ok,
            f"energy nonincreasing across samples in {len(records)} runs "
            f"(worst excess {worst_val:.2e} in {worst_name}, slack 1e-8 mu0/step)",
        )


class TestCriterion4Equipartition:
    def test_discrepancy_fraction_at_baseline(self, baseline_runs):
        rec = baseline_runs["MeanShift"]
        t_relax = 5 * EPS**2
        fracs = [
            s.discrepancy_abs / s.energy_total
            for s in rec.samples
            if s.time >= t_relax
        ]
        ok = len(fracs) > 0 and max(fracs) <= 0.05
        report(
            4, ok,
            f"discrepancy/energy after t=5eps^2: max {max(fracs):.4f} (tol 0.05)",
        )

    def test_fraction_decreases_with_eps(self):
        n0 = 128
        grid0 = GridSpec(2, n0)
        base = make_scenario(
            ModelKind.MEAN_SHIFT, 2, grid=grid0, eps=16.0 / n0 / 2,  # eps = 1/16
            dt=grid0.h**2, t_end=5 * (1.0 / 16.0) ** 2, snapshot_every=64,
        )
        result = convergence_study(base, "eps", 3, residual="discrepancy")
        vals = [lv.residual for lv in result.levels]
        ok = result.monotone_decreasing()
        report(
            4, ok,
            "discrepancy fraction across eps = 1/16, 1/32, 1/64 (eps/h fixed): "
            + ", ".join(f"{v:.4f}" for v in vals),
        )


class TestCriterion5SharpInterface:
    def test_volume_rate(self, baseline_runs):
        lines = []
        ok = True
        for name in ("MeanShift", "WeightedSum"):
            rec = baseline_runs[name]
            mask = rec.times >= 0.005
            slope = np.polyfit(rec.times[mask], rec.phase_volume(0)[mask], 1)[0]
            ok &= -2 * np.pi * 1.1 <= slope <= -2 * np.pi * 0.9
            lines.append(f"{name} dV/dt = {slope:.4f}")
        report(5, ok, "; ".join(lines) + f" (target -2pi = {-2 * np.pi:.4f}, +-10%)")

    def test_extinction_time(self, long_run):
        t_ext = extinction_time(long_run)
        bound = 1.2 * RADIUS**2 / 2.0
        ok = t_ext <= bound
        report(
            5, ok,
            f"extinction at t = {t_ext:.4f} (exact {RADIUS ** 2 / 2:.4f}, bound {bound:.4f})",
        )


class TestCriterion6MeanCurvature:
    def state_near_radius(self, rec, target=0.25):
        t_target = (RADIUS**2 - target**2) / 2.0
        times = np.array([st.time for st in rec.states])
        return rec.states[int(np.argmin(np.abs(times - t_target)))]

    def test_radial_pairing(self, baseline_runs):
        rec = baseline_runs["MeanShift"]
        state = self.state_near_radius(rec)
        model = rec.scenario.model
        fe = flow(state, model)
        pairing = first_variation(state, model, fe, radial_vector_field(state.spec)).kinetic_form
        # both phases carry the interface: the geometric circumference x
        # curvature count is the per-phase pairing, -pairing/2
        value = -pairing / 2.0
        ok = 2 * np.pi * 0.9 <= value <= 2 * np.pi * 1.1
        report(
            6, ok,
            f"kinetic pairing per phase sheet = {value:.4f} at r~0.25 "
            f"(target 2pi = {2 * np.pi:.4f}, +-10%)",
        )

    def test_cauchy_schwarz_bound(self, baseline_runs):
        rec = baseline_runs["MeanShift"]
        state = self.state_near_radius(rec)
        model = rec.scenario.model
        fe = flow(state, model)
        h = state.spec.h
        worst = -np.inf
        for seed in range(5):
            gfield = random_smooth_vector_field(state.spec, seed=seed)
            norm_mu = mu_of_phi(state, model.eps, np.sum(gfield.values**2, axis=0))
            gv = gfield.values / np.sqrt(norm_mu)
            pairing = first_variation(state, model, fe, VectorField(state.spec, gv)).kinetic_form
            e_g = 0.0
            for i in range(state.n_phases):
                grads = gradient_raw(state.values[i], h)
                e_g += integrate_raw(
                    np.sum(gv * gv, axis=0) * sum(c * c for c in grads), h, 2
                )
            e_g *= model.eps / SIGMA
            margin = pairing**2 - fe.rate * e_g * (1 + 1e-12)
            worst = max(worst, margin)
        ok = worst <= 0.0
        report(
            6, ok,
            f"kinetic bound dominates |pairing|^2 for 5 unit test fields "
            f"(worst margin {worst:.2e})",
        )


class TestCriterion7BrakkeBalance:
    @staticmethod
    def coarse_residuals(rec, series, level):
        res = rec.brakke[series].residuals()
        group = 10 * 2**level  # fine intervals per coarse window of 160 dt0
        assert len(res) % group == 0
        return res.reshape(-1, group).sum(axis=1)

    def test_interval_residuals_halve(self, dt_level_runs):
        ok = True
        details = []
        for series in ("one", "bump"):
            coarse = [
                self.coarse_residuals(rec, series, level)
                for level, rec in enumerate(dt_level_runs)
            ]
            for a, b in ((0, 1), (1, 2)):
                ratios = np.abs(coarse[a]) / np.abs(coarse[b])
                good = np.all((ratios >= 1.4) & (ratios <= 2.6))
                ok &= bool(good)
                details.append(
                    f"{series} L{a}/L{b} ratios in [{ratios.min():.2f}, {ratios.max():.2f}]"
                )
        report(7, ok, "per-interval balance residual halving: " + "; ".join(details))

    def test_constant_phi_matches_energy_balance(self, dt_level_runs):
        rec = dt_level_runs[0]
        one_total = float(np.sum(rec.brakke["one"].residuals()))
        balance = rec.energy_totals[-1] - rec.energy_totals[0] + rec.dissipated[-1]
        diff = abs(one_total - balance)
        ok = diff <= 1e-12 * max(1.0, abs(balance))
        report(
            7, ok,
            f"phi==1 balance equals the energy balance residual (delta {diff:.1e})",
        )


class TestCriterion8Monotonicity:
    def test_gaussian_density_inequality(self, long_run):
        t_ext = extinction_time(long_run)
        s = 1.1 * t_ext
        kernel = KernelSpec(center_y=(0.5, 0.5), terminal_s=s)
        states = [
            st
            for st, sample in zip(long_run.states, long_run.samples)
            if sample.phase_sup[0] >= 0.5 and st.time < s
        ]
        trace, verdict = monotonicity_check(
            states, EPS, kernel, model=long_run.scenario.model
        )
        margin = np.max(
            trace.fd_derivative
            - trace.rhs_bound[trace.interior_index]
            - trace.fd_tolerance
        )
        report(
            8, verdict,
            f"dG/dt <= discrepancy bound + tol at {len(trace.interior_index)} "
            f"interior samples (s = 1.1 t_ext = {s:.4f}, worst margin {margin:.2e})",
        )

    def test_sphere_multiplier_cancellation(self, baseline_runs):
        rec = baseline_runs["SphereLL"]
        states = rec.states
        times = np.array([st.time for st in states])
        if not np.allclose(np.diff(times), times[1] - times[0]):
            states = states[:-1]
        kernel = KernelSpec(center_y=(0.5, 0.5), terminal_s=0.1)
        trace, _ = monotonicity_check(
            states, EPS, kernel, model=rec.scenario.model
        )
        worst = float(np.max(np.abs(trace.multiplier_cancellation)))
        scale = float(np.max(trace.multiplier_scale))
        ok = worst <= 1e-10 * scale
        report(
            8, ok,
            f"sphere multiplier cancellation |sum| <= {worst:.2e} "
            f"(1e-10 x term scale {scale:.2e})",
        )


class TestCriterion9TripleJunction:
    def test_junction_angles(self, junction_runs):
        ok = True
        details = []
        for name, rec in junction_runs.items():
            angles, _ = measure_junction_angles(rec.states[-1], (0.5, 0.5))
            good = np.all(np.abs(angles - 120.0) <= 5.0)
            ok &= bool(good)
            details.append(f"{name}: {np.round(angles, 2)}")
        report(9, ok, "junction angles at t=0.0098 (target 120 +- 5): " + "; ".join(details))


class TestCriterion10Infrastructure:
    def test_snapshot_roundtrip_bitwise(self, baseline_runs, tmp_path):
        rec = baseline_runs["SphereLL"]
        state = rec.states[-1]
        path = tmp_path / "final.mpfc"
        write_snapshot(state, rec.scenario.model, path)
        back, model = read_snapshot(path)
        ok = (
            np.array_equal(back.values, state.values)
            and back.time == state.time
            and model == rec.scenario.model
        )
        report(10, ok, "snapshot round trip is bitwise exact")

    def test_csv_identical_across_thread_counts(self, tmp_path):
        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            "geometry = Disk(0.5, 0.5, 0.3)\nmodel = MeanShift\nn = 64\n"
            "eps = 0.0625\nt_end = 0.0009765625\nsnapshot_every = 4\n"
        )
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"run{threads}"
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS"):
                env[var] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "mpfc.cli", "simulate", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "timeseries.csv").read_bytes())
        ok = outputs[0] == outputs[1]
        report(10, ok, "timeseries.csv identical under 1 and 8 threads")

    def test_operator_accuracy_orders(self):
        # The Laplacian residual reads only n; eps = 4h keeps the disk valid.
        base = make_scenario(ModelKind.MEAN_SHIFT, 2, grid=GridSpec(2, 64),
                             eps=0.0625, dt=(1 / 64) ** 2, t_end=0.0)
        result = convergence_study(base, "h", 3, residual="laplacian")
        ok = all(3.5 <= r <= 4.5 for r in result.ratios)
        report(
            10, ok,
            f"Laplacian h-refinement ratios {['%.2f' % r for r in result.ratios]} "
            "(window [3.5, 4.5])",
        )


def test_zz_write_report():
    path = Path(__file__).with_name("acceptance_report.txt")
    path.write_text("\n".join(_REPORT) + "\n")
    print("\n".join(_REPORT))
    assert _REPORT, "no criteria were exercised"
