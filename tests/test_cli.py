"""Command-line interface: config parsing, subcommands, exit codes."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpfc.cli
from conftest import write_raw_snapshot
from mpfc.cli import main, parse_config
from mpfc.errors import ConfigurationError
from mpfc.scenarios import Disk, Scenario, TripleJunction


BASE_CONFIG = """
# small shrinking disk
geometry = Disk(0.5, 0.5, 0.3)
model = MeanShift
n = 64
eps = 0.0625
t_end = 0.0078125
snapshot_every = 8
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_defaults_and_values(self, tmp_path):
        scn = parse_config(write_config(tmp_path))
        assert scn.grid.n == 64
        assert scn.model.eps == 0.0625
        assert scn.model.n_phases == 2
        assert isinstance(scn.geometry, Disk)
        assert scn.dt == pytest.approx((1 / 64) ** 2)
        assert scn.projection == "every_step"

    def test_unset_schedule_keys_take_the_scenario_defaults(self, tmp_path, monkeypatch):
        # The schedule's defaults live in Scenario alone: a config that does
        # not set a key does not pass it.
        passed = []

        def recording(**kwargs):
            passed.append(kwargs)
            return Scenario(**kwargs)

        monkeypatch.setattr(mpfc.cli, "Scenario", recording)
        scn = parse_config(write_config(tmp_path, "n = 64\neps = 0.0625\n"))
        defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
        for key in ("snapshot_every", "projection", "scheme"):
            assert key not in passed[0]
            assert getattr(scn, key) == defaults[key]

    def test_triple_junction_defaults_three_phases(self, tmp_path):
        path = write_config(tmp_path, "geometry = TripleJunction\nn = 64\neps = 0.03125\n")
        scn = parse_config(path)
        assert isinstance(scn.geometry, TripleJunction)
        assert scn.model.n_phases == 3

    def test_unknown_key_rejected(self, tmp_path):
        for line in ("whatever = 1", "seed = 3"):
            path = write_config(tmp_path, BASE_CONFIG + f"\n{line}\n")
            with pytest.raises(ConfigurationError):
                parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "\nn = 32\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    def test_bad_geometry_rejected(self, tmp_path):
        path = write_config(tmp_path, "geometry = Trapezoid(1,2)\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)

    @pytest.mark.parametrize("geometry", [
        "Disk(0.3)",
        "Disk(0.5,0.5,0.5,0.3)",
        "FlatStrip(0.2)",
        "FlatStrip(0.2,0.7,0.9)",
        "DoubleStrip(0.1,0.3,0.6,0.8,0.95)",
        "TwoDisks(0.3,0.3,0.15,0.7,0.7,0.15,9)",
        "TripleJunction(0,90,180,270)",
    ])
    def test_wrong_geometry_argument_count_rejected(self, tmp_path, geometry):
        path = write_config(tmp_path, f"geometry = {geometry}\nn = 64\neps = 0.0625\n")
        with pytest.raises(ConfigurationError, match="arguments"):
            parse_config(path)

    def test_disk_takes_one_centre_coordinate_per_axis(self, tmp_path):
        path = write_config(tmp_path, "geometry = Disk(0.5,0.5,0.5,0.25)\nd = 3\nn = 32\n"
                                      "eps = 0.0625\n")
        assert parse_config(path).geometry == Disk(center=(0.5, 0.5, 0.5), radius=0.25)
        path = write_config(tmp_path, "geometry = Disk(0.5,0.5,0.25)\nd = 3\nn = 32\n")
        with pytest.raises(ConfigurationError, match="Disk takes 4 arguments"):
            parse_config(path)

    def test_bad_model_rejected(self, tmp_path):
        path = write_config(tmp_path, "model = Fancy\n")
        with pytest.raises(ConfigurationError):
            parse_config(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp)
    out = tmp / "out"
    code = main(["simulate", str(cfg), "--out", str(out)])
    assert code == 0
    return out


class TestSubcommands:
    def test_simulate_outputs(self, run_dir):
        assert (run_dir / "timeseries.csv").exists()
        snaps = sorted(run_dir.glob("snap_*.mpfc"))
        assert len(snaps) >= 3

    @pytest.mark.parametrize("text, message", [
        pytest.param("geometry = TripleJunction\nd = 3\nn = 16\n", "requires d = 2",
                     id="junction-3d"),
        pytest.param("geometry = TripleJunction\nn_phases = 2\nn = 64\neps = 0.03125\n",
                     "needs 3 phases", id="junction-two-phases"),
        pytest.param("geometry = Disk(0.5, 0.5, 0.1)\nn = 64\neps = 0.0625\n",
                     "disk radius 0.1 outside", id="disk-radius"),
        pytest.param("geometry = TwoDisks\nd = 3\nn = 32\neps = 0.02\n",
                     "grid's 3 axes", id="planar-disks-3d"),
    ])
    def test_simulate_geometry_error_exit_2(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (tmp_path / "o").exists()

    def test_simulate_default_ball_in_3d(self, tmp_path):
        cfg = write_config(tmp_path, "d = 3\nn = 64\neps = 0.0625\nt_end = 0\n")
        assert parse_config(cfg).geometry == Disk(center=(0.5, 0.5, 0.5), radius=0.3)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_simulate_disk_without_centre_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "geometry = Disk(0.3)\nn = 32\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "Disk takes 3 arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["t_end", "dt"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_simulate_non_finite_schedule_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, f"n = 32\n{key} = {value}\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_simulate_explicit_euler_scheme_exit_2(self, tmp_path, capsys):
        # IMEX is the one scheme; a former scheme name is a config error even
        # at a dt the old explicit stability policy allowed.
        cfg = write_config(tmp_path, "scheme = ExplicitEuler\nn = 64\neps = 0.0625\n"
                                     "dt = 1e-5\nt_end = 2e-5\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "unknown scheme 'ExplicitEuler'" in err
        assert not (tmp_path / "o").exists()

    def test_simulate_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "\nbogus = 2\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_diagnose_snapshot(self, run_dir, capsys):
        snap = sorted(run_dir.glob("snap_*.mpfc"))[0]
        assert main(["diagnose", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "energy total" in out and "PASS" in out

    def test_diagnose_with_test_field(self, run_dir, capsys, monkeypatch):
        # One flow evaluation serves the printed rate and the variation report.
        import mpfc.dynamics

        original = mpfc.dynamics.flow
        calls = []

        def counted(state, model):
            calls.append(state.time)
            return original(state, model)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mpfc" and getattr(module, "flow", None) is original:
                monkeypatch.setattr(module, "flow", counted)
        snap = sorted(run_dir.glob("snap_*.mpfc"))[-1]
        assert main(["diagnose", str(snap), "--test-field", "radial"]) == 0
        out = capsys.readouterr().out
        assert "kinetic form" in out
        assert "stress form" in out and "discrepancy term" in out
        assert "stress_minus_chemical" in out
        assert len(calls) == 1

    def test_diagnose_invalid_snapshot_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.mpfc"
        write_raw_snapshot(path, eps="2")
        assert main(["diagnose", str(path)]) == 1
        assert "invalid snapshot" in capsys.readouterr().err

    def test_diagnose_unknown_field_exit_2(self, run_dir):
        snap = sorted(run_dir.glob("snap_*.mpfc"))[0]
        assert main(["diagnose", str(snap), "--test-field", "vortex"]) == 2

    def test_check_brakke_one(self, run_dir, capsys):
        assert main(["check-brakke", str(run_dir), "--phi", "one"]) == 0
        out = capsys.readouterr().out
        assert "energy-balance consistency" in out and "PASS" in out

    def test_check_brakke_bump(self, run_dir, capsys):
        assert main(["check-brakke", str(run_dir), "--phi", "bump"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_monotonicity(self, run_dir, capsys):
        code = main([
            "check-monotonicity", str(run_dir), "--center", "0.5,0.5",
            "--terminal", "0.05",
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_monotonicity_drops_an_off_stride_final_snapshot(self, tmp_path, capsys):
        # 82 steps at the default stride of 16 sample steps 0, 16, ..., 80 and
        # the final step 82; the check runs on the uniformly spaced ones.
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, "n = 64\neps = 0.0625\n")),
                     "--out", str(out)]) == 0
        assert len(list(out.glob("snap_*.mpfc"))) == 7
        capsys.readouterr()
        code = main(["check-monotonicity", str(out), "--center", "0.5,0.5", "--terminal", "0.05"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "note: discarding 1 trailing snapshots off the uniform spacing" in printed
        assert "PASS" in printed

    def test_check_monotonicity_bad_center_exit_2(self, run_dir):
        code = main([
            "check-monotonicity", str(run_dir), "--center", "0.5",
            "--terminal", "0.05",
        ])
        assert code == 2

    @pytest.mark.parametrize("center, terminal", [
        ("0.5,0.5", "inf"), ("0.5,0.5", "nan"), ("nan,0.5", "0.05"),
    ])
    def test_check_monotonicity_non_finite_kernel_exit_2(self, run_dir, capsys, center, terminal):
        code = main([
            "check-monotonicity", str(run_dir), "--center", center, "--terminal", terminal,
        ])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_study_h_axis(self, tmp_path, capsys):
        # The Laplacian residual reads only n; eps = 2h keeps the default disk valid.
        cfg = write_config(tmp_path, "n = 32\neps = 0.0625\nt_end = 0.0\n")
        assert main(["study", str(cfg), "--axis", "h", "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_usage_error_exit_2(self):
        assert main(["study", "nonexistent.cfg", "--axis", "q", "--levels", "3"]) == 2

    def test_missing_config_exit_2(self):
        assert main(["simulate", "/nonexistent/path.cfg", "--out", "/tmp/x"]) == 2


def test_import_loads_no_scipy():
    # The runtime depends on numpy alone; scipy serves only as a test oracle.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, mpfc, mpfc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
