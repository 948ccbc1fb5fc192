"""Bit-exact snapshot files and the time-series CSV.

Snapshot format (self-describing, parseable from any language):

    8 magic bytes  "MPFC0001"
    newline
    textual header, one ``key=value`` line per key d, n, N, eps, time, model
    blank line
    N * n^d IEEE-754 binary64 values, little endian, phase-major,
    row-major within a phase (last grid axis fastest)

Floats in the header are printed with 17 significant digits, so write/read
round-trips are exact.  Readers reject wrong magic, unknown or missing header
keys, header values the grid, model or state would refuse, non-finite
payload values, payload size mismatches, and trailing bytes, and never return
a partial state.
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
    payload = np.ascontiguousarray(state.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n" + header.encode("ascii") + b"\n" + payload)


def read_snapshot(path: str | os.PathLike) -> tuple[PhaseField, ModelSpec]:
    """Read a snapshot, returning the state and its model spec.

    The model's ``denom_floor`` is not stored in the file and comes back at
    its default.
    """
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 1 or data[: len(MAGIC)] != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic bytes (not an MPFC0001 snapshot)")
    sep = data.find(b"\n\n", len(MAGIC))
    if sep < 0:
        raise SnapshotFormatError(f"{path}: header not terminated by a blank line")
    header_text = data[len(MAGIC) + 1 : sep].decode("ascii", errors="replace")
    fields: dict[str, str] = {}
    for line in header_text.splitlines():
        if "=" not in line:
            raise SnapshotFormatError(f"{path}: malformed header line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
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

    expected = n_phases * n**d * 8
    payload = data[sep + 2 :]
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
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
    for s in samples:
        row = [s.time, s.energy_total]
        row += list(s.energy_per_phase)
        row += [s.discrepancy_abs]
        row += list(s.discrepancy_per_phase)
        row += list(s.bv_proxy_per_phase)
        row += [energy_bv_gap(s), s.dissipation_rate, s.constraint_drift]
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
