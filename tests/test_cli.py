"""Command-line interface: config parsing, subcommands, exit codes."""

import pytest

from conftest import write_raw_snapshot
from mpfc.cli import main, parse_config
from mpfc.errors import ConfigurationError
from mpfc.scenarios import Disk, TripleJunction


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

    def test_simulate_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "\nbogus = 2\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_diagnose_snapshot(self, run_dir, capsys):
        snap = sorted(run_dir.glob("snap_*.mpfc"))[0]
        assert main(["diagnose", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "energy total" in out and "PASS" in out

    def test_diagnose_with_test_field(self, run_dir, capsys):
        snap = sorted(run_dir.glob("snap_*.mpfc"))[-1]
        assert main(["diagnose", str(snap), "--test-field", "radial"]) == 0
        out = capsys.readouterr().out
        assert "kinetic form" in out

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

    def test_check_monotonicity_bad_center_exit_2(self, run_dir):
        code = main([
            "check-monotonicity", str(run_dir), "--center", "0.5",
            "--terminal", "0.05",
        ])
        assert code == 2

    def test_study_h_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "n = 32\neps = 0.125\nt_end = 0.0\n")
        assert main(["study", str(cfg), "--axis", "h", "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_usage_error_exit_2(self):
        assert main(["study", "nonexistent.cfg", "--axis", "q", "--levels", "3"]) == 2

    def test_missing_config_exit_2(self):
        assert main(["simulate", "/nonexistent/path.cfg", "--out", "/tmp/x"]) == 2
