"""Snapshot format round trips and the CSV schema."""

import numpy as np
import pytest

from conftest import disk_state, write_raw_snapshot
from mpfc.dynamics import ModelKind, ModelSpec, PhaseField
from mpfc.errors import SnapshotFormatError
from mpfc.grid import GridSpec
from mpfc.run import run_simulation
from mpfc.scenarios import Disk, Scenario
from mpfc.snapshots import (
    emit_timeseries,
    read_snapshot,
    timeseries_header,
    write_snapshot,
)


def model2(eps=1.0 / 16.0):
    return ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)


class TestSnapshotRoundTrip:
    def test_bitwise_roundtrip(self, tmp_path):
        state = disk_state(128)
        path = tmp_path / "s.mpfc"
        write_snapshot(state, model2(), path)
        back, model = read_snapshot(path)
        assert np.array_equal(back.values, state.values)
        assert back.time == state.time
        assert model.kind == ModelKind.MEAN_SHIFT
        assert model.eps == model2().eps

    def test_d3_axis_order_probe(self, tmp_path):
        # distinct value per (phase, i, j, k) so any axis transposition shows
        spec = GridSpec(3, 8)
        vals = np.arange(4 * 8**3, dtype=np.float64).reshape((4, 8, 8, 8))
        state = PhaseField(spec, vals, time=0.25)
        model = ModelSpec(ModelKind.WEIGHTED_SUM, 0.05, 4)
        path = tmp_path / "probe.mpfc"
        write_snapshot(state, model, path)
        back, mback = read_snapshot(path)
        assert np.array_equal(back.values, vals)
        assert mback.n_phases == 4
        # payload order: phase-major, last axis fastest
        raw = path.read_bytes()
        payload = raw[raw.find(b"\n\n") + 2 :]
        flat = np.frombuffer(payload, dtype="<f8")
        assert flat[0] == vals[0, 0, 0, 0]
        assert flat[1] == vals[0, 0, 0, 1]
        assert flat[8] == vals[0, 0, 1, 0]
        assert flat[8 * 8] == vals[0, 1, 0, 0]
        assert flat[8**3] == vals[1, 0, 0, 0]

    def test_corrupt_magic_rejected(self, tmp_path):
        state = disk_state(128)
        path = tmp_path / "s.mpfc"
        write_snapshot(state, model2(), path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_version_bump_rejected(self, tmp_path):
        state = disk_state(128)
        path = tmp_path / "s.mpfc"
        write_snapshot(state, model2(), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = b"0002"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_short_payload_rejected(self, tmp_path):
        state = disk_state(128)
        path = tmp_path / "s.mpfc"
        write_snapshot(state, model2(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        state = disk_state(128)
        path = tmp_path / "s.mpfc"
        write_snapshot(state, model2(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_unknown_header_key_rejected(self, tmp_path):
        state = disk_state(128)
        path = tmp_path / "s.mpfc"
        write_snapshot(state, model2(), path)
        raw = path.read_bytes()
        head, _, tail = raw.partition(b"\n\n")
        path.write_bytes(head + b"\nextra=1\n\n" + tail)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_hand_written_snapshot_reads(self, tmp_path):
        path = tmp_path / "ok.mpfc"
        write_raw_snapshot(path)
        state, model = read_snapshot(path)
        assert state.values.shape == (2, 16, 16)
        assert model == ModelSpec(ModelKind.MEAN_SHIFT, 0.25, 2)

    @pytest.mark.parametrize(
        "header",
        [{"eps": "2"}, {"n": "4"}, {"N": "1"}, {"d": "1"}],
        ids=["eps=2", "n=4", "N=1", "d=1"],
    )
    def test_header_value_the_types_reject(self, tmp_path, header):
        # The payload size matches the header, so only the grid, model or
        # state constructor can object; that must still be a format error.
        path = tmp_path / "bad.mpfc"
        write_raw_snapshot(path, **header)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_nan_payload_rejected(self, tmp_path):
        values = np.zeros(2 * 16 * 16)
        values[37] = np.nan
        path = tmp_path / "nan.mpfc"
        write_raw_snapshot(path, values)
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)


class TestTimeseries:
    def make_record(self, t_end=0.0):
        n = 128
        eps = 8.0 / n
        model = ModelSpec(ModelKind.MEAN_SHIFT, eps, 2)
        spec = GridSpec(2, n)
        scn = Scenario(
            geometry=Disk(radius=0.3), model=model, grid=spec,
            dt=spec.h**2, t_end=t_end, snapshot_every=8,
        )
        return run_simulation(scn)

    def test_zero_length_run_has_single_sample(self, tmp_path):
        record = self.make_record(t_end=0.0)
        assert len(record.samples) == 1
        path = tmp_path / "ts.csv"
        emit_timeseries(record, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_column_schema(self, tmp_path):
        record = self.make_record(t_end=0.0)
        path = tmp_path / "ts.csv"
        emit_timeseries(record, path)
        header = path.read_text().splitlines()[0].split(",")
        n_phases = 2
        assert header == timeseries_header(n_phases)
        assert len(header) == 6 + 3 * n_phases

    def test_values_roundtrip_exactly(self, tmp_path):
        record = self.make_record(t_end=0.001)
        path = tmp_path / "ts.csv"
        emit_timeseries(record, path)
        lines = path.read_text().strip().splitlines()
        for line, sample in zip(lines[1:], record.samples):
            vals = [float(v) for v in line.split(",")]
            # 17 significant digits reproduce binary64 exactly
            assert vals[0] == sample.time
            assert vals[1] == sample.energy_total
            assert vals[2] == sample.energy_per_phase[0]
            assert vals[-2] == sample.dissipation_rate
            assert vals[-1] == sample.constraint_drift
