"""Bit-exact snapshot files and the time-series CSV.

Snapshot format (self-describing, parseable from any language):

    8 magic bytes  "MPFC0001"
    newline
    textual header, one ``key=value`` line per key d, n, N, eps, time, model
    blank line
    N * n^d IEEE-754 binary64 values, little endian, phase-major,
    row-major within a phase (last grid axis fastest)

Floats in the header are printed with 17 significant digits, so write/read
round-trips are exact.  Readers reject wrong magic, unknown, missing or
repeated header keys, header values the grid, model or state would refuse, a
time that is negative or not finite, non-finite payload values, payload size
mismatches, and trailing bytes, and never return a partial state.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .diagnostics import energy_bv_gap
from .dynamics import ModelKind, ModelSpec, PhaseField
from .errors import SnapshotFormatError
from .grid import GridSpec

__all__ = ["write_snapshot", "read_snapshot", "emit_timeseries", "timeseries_header"]

MAGIC = b"MPFC0001"
_HEADER_KEYS = ("d", "n", "N", "eps", "time", "model")
_HEADER_CHUNK = 4096  # bytes read at a time while looking for the header's end


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_snapshot(state: PhaseField, model: ModelSpec, path: str | os.PathLike) -> None:
    """Write a state (with its model identity) to ``path``."""
    header = (
        f"d={state.spec.d}\n"
        f"n={state.spec.n}\n"
        f"N={state.n_phases}\n"
        f"eps={_fmt(model.eps)}\n"
        f"time={_fmt(state.time)}\n"
        f"model={model.kind.value}\n"
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n" + header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(state.values, dtype="<f8"))


def read_snapshot(path: str | os.PathLike) -> tuple[PhaseField, ModelSpec]:
    """Read a snapshot, returning the state and its model spec; the payload is
    read straight into the state's array once its size matches the header."""
    with open(path, "rb") as fh:
        data = fh.read(_HEADER_CHUNK)
        if len(data) < len(MAGIC) + 1 or data[: len(MAGIC)] != MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic bytes (not an MPFC0001 snapshot)")
        while (sep := data.find(b"\n\n", len(MAGIC))) < 0 and (more := fh.read(_HEADER_CHUNK)):
            data += more
        if sep < 0:
            raise SnapshotFormatError(f"{path}: header not terminated by a blank line")
        header_text = data[len(MAGIC) + 1 : sep].decode("ascii", errors="replace")
        fields: dict[str, str] = {}
        for line in header_text.splitlines():
            if "=" not in line:
                raise SnapshotFormatError(f"{path}: malformed header line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in fields:
                raise SnapshotFormatError(f"{path}: duplicate header key {key!r}")
            fields[key] = value
        if set(fields) != set(_HEADER_KEYS):
            raise SnapshotFormatError(
                f"{path}: header keys {sorted(fields)} != expected {sorted(_HEADER_KEYS)}"
            )
        try:
            d = int(fields["d"])
            n = int(fields["n"])
            n_phases = int(fields["N"])
            eps = float(fields["eps"])
            time = float(fields["time"])
            kind = ModelKind(fields["model"])
        except (ValueError, KeyError) as exc:
            raise SnapshotFormatError(f"{path}: invalid header value ({exc})") from exc
        if not 0.0 <= time < np.inf:
            raise SnapshotFormatError(f"{path}: time must be finite and nonnegative, got {time}")

        expected = n_phases * n**d * 8
        size = os.fstat(fh.fileno()).st_size - (sep + 2)
        if size != expected:
            raise SnapshotFormatError(f"{path}: payload has {size} bytes, expected {expected}")
        values = np.empty(expected // 8, dtype="<f8")
        fh.seek(sep + 2)
        if fh.readinto(values) != expected:
            raise SnapshotFormatError(f"{path}: file changed while its payload was read")
    try:
        spec = GridSpec(d, n)
        state = PhaseField(spec, values.reshape((n_phases,) + spec.shape), time=time)
        return state, ModelSpec(kind, eps, n_phases)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: invalid snapshot ({exc})") from exc


def timeseries_header(n_phases: int) -> list[str]:
    cols = ["t", "energy_total"]
    cols += [f"energy_{i + 1}" for i in range(n_phases)]
    cols += ["discrepancy_abs"]
    cols += [f"discrepancy_{i + 1}" for i in range(n_phases)]
    cols += [f"bv_proxy_{i + 1}" for i in range(n_phases)]
    cols += ["energy_bv_gap", "dissipation_rate", "constraint_drift"]
    return cols


def emit_timeseries(record, path: str | os.PathLike) -> None:
    """Write the per-sample diagnostics of a run as CSV with 17-digit floats."""
    samples = record.samples
    if not samples:
        raise ValueError("cannot emit a time series for an empty record")
    n_phases = len(samples[0].energy_per_phase)
    lines = [",".join(timeseries_header(n_phases))]
    for s, rate in zip(samples, record.dissipation_rates):
        row = [s.time, s.energy_total]
        row += list(s.energy_per_phase)
        row += [s.discrepancy_abs]
        row += list(s.discrepancy_per_phase)
        row += list(s.bv_proxy_per_phase)
        row += [energy_bv_gap(s), rate, s.constraint_drift]
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
