"""Self-test of the benchmark at n = 64 (a few seconds).

    python3 bench/selftest.py

Runs each workload small, requires every output check to pass on the real
outputs, then breaks one input at a time (a state moved off its constraint
manifold, a wrong circle radius, a flipped bit in a read-back snapshot, ...)
and requires the check that guards it to fail, so no check passes vacuously.
Also checks that the tracer records spans and binds every name back.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import mpfc.grid  # noqa: E402

import checks as C  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Ledger, Size  # noqa: E402

SIZES = {
    "disk-meanshift-brakke": Size(64, 4, 64, 8),
    "junction-weightedsquare": Size(64, 4, 32, 16),
    "sphere-ll-postcheck": Size(64, 4, 32, 4),
}


def _with(data, **changes):
    out = dict(data)
    out.update(changes)
    return out


def _replace_last(states, new):
    return list(states[:-1]) + [new]


def _flip_bit(read_back):
    t, u = read_back[-1]
    bad = u.copy()
    bad.view(np.uint64).flat[0] ^= 1
    return list(read_back[:-1]) + [(t, bad)]


def _csv_scaled(path: Path, factor: float) -> Path:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("energy_total")
    cells = lines[-1].split(",")
    cells[col] = format(float(cells[col]) * factor, ".17g")
    bad = path.with_name("broken.csv")
    bad.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    return bad


def _trace(data, **changes):
    return _with(data, trace=dataclasses.replace(data["trace"], **changes))


BREAKS = {
    "disk-meanshift-brakke": [
        ("partition_of_unity", "last state shifted by 1e-9", lambda d: _with(
            d, states=_replace_last(d["states"], d["states"][-1] + 1e-9))),
        ("energy_matches", "reported energy scaled by 1 + 1e-6", lambda d: _with(
            d, energy_program=d["energy_program"] * (1 + 1e-6))),
        ("energy_nonincreasing", "last state replaced by the first", lambda d: _with(
            d, states=_replace_last(d["states"], d["states"][0]))),
        ("bump_series", "streamed series scaled by 1 + 1e-6", lambda d: _with(
            d, bump_mu_phi=d["bump_mu_phi"] * (1 + 1e-6))),
    ],
    "junction-weightedsquare": [
        ("weighted_square_constraint", "last state shifted by 1e-6", lambda d: _with(
            d, states=_replace_last(d["states"], d["states"][-1] + 1e-6))),
        ("energy_matches", "reported energy scaled by 1 + 1e-6", lambda d: _with(
            d, energy_program=d["energy_program"] * (1 + 1e-6))),
        ("energy_nonincreasing", "last state replaced by the first", lambda d: _with(
            d, states=_replace_last(d["states"], d["states"][0]))),
        ("junction_angles", "angles 130/115/115", lambda d: _with(
            d, angles=np.array([130.0, 115.0, 115.0]))),
    ],
    "sphere-ll-postcheck": [
        ("unit_length", "last state scaled by 1 + 1e-9", lambda d: _with(
            d, states=_replace_last(d["states"], d["states"][-1] * (1 + 1e-9)))),
        ("timeseries_energy", "last CSV energy scaled by 1 + 1e-9", lambda d: _with(
            d, csv_path=_csv_scaled(d["csv_path"], 1 + 1e-9))),
        ("snapshot_roundtrip", "one bit flipped in a read-back snapshot", lambda d: _with(
            d, read_back=_flip_bit(d["read_back"]))),
        ("brakke_one_balance", "phi=1 residual shifted by 1e-9", lambda d: _with(
            d, res_one=d["res_one"] + 1e-9)),
        ("brakke_bump_residual", "bump residual shifted by 1e-8", lambda d: _with(
            d, res_bump=d["res_bump"] + 1e-8)),
        ("monotonicity", "verdict reported False", lambda d: _with(d, verdict=False)),
        ("monotonicity", "tolerance lowered by 1e6", lambda d: _trace(
            d, fd_tolerance=d["trace"].fd_tolerance - 1e6)),
        ("monotonicity", "Gaussian density scaled by 1 + 1e-6", lambda d: _trace(
            d, gaussian_density=d["trace"].gaussian_density * (1 + 1e-6))),
        ("multiplier_cancellation", "cancellation set to 1e-8 x scale", lambda d: _trace(
            d, multiplier_cancellation=1e-8 * d["trace"].multiplier_scale)),
    ],
}


# The sharp-interface laws hold at the benchmark's n = 256 but not to their
# tolerance on an n = 64 grid, where eps is 1/16: there they are shown to pass
# on the exact law and to fail on a broken one.
T = np.linspace(0.0, 0.005, 21)
R0 = 0.27
LAW = 4.0 * np.pi * np.sqrt(R0 * R0 - 2.0 * T)
LAWS = {
    "circle_law": (
        lambda: C.circle_law(T, LAW, R0),
        "circle radius 5% too large", lambda: C.circle_law(T, LAW, 1.05 * R0)),
    "volume_slope": (
        lambda: C.volume_slope(T, 0.2 - 2.0 * np.pi * T),
        "slope 1.2 x -2 pi", lambda: C.volume_slope(T, 0.2 - 2.4 * np.pi * T)),
    "energy_balance": (
        lambda: C.energy_balance(LAW[0], LAW[-1], LAW[0] - LAW[-1]),
        "dissipation doubled", lambda: C.energy_balance(LAW[0], LAW[-1], 2 * (LAW[0] - LAW[-1]))),
}


def main() -> int:
    failures = 0
    for name, wl in WORKLOADS.items():
        size = SIZES[name]
        workdir = HERE / "out" / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        tracer = Tracer()
        with tracer.installed():
            data = wl.execute(wl.prepare(7, size), size, workdir, Ledger(wl.plan(size)))
        layers = tracer.layer_totals()
        traced_ok = (
            not hasattr(mpfc.grid.laplacian_raw, "__wrapped__")
            and layers["grid.laplacian_raw"]["calls"] > 0
            and all(row["self_ms"] <= row["ms"] + 1e-9 for row in layers.values())
        )
        print(f"{name}: tracer {'ok' if traced_ok else 'FAILED'}")
        failures += not traced_ok

        for _, check, ok, detail in wl.verify(data):
            if check in LAWS:
                good, how, broken = LAWS[check]
                print(f"{name}: {check} at n = 64 reads: {detail}")
                ok, caught = good()[1], not broken()[1]
                print(f"{name}: {check} passes on the exact law: {'ok' if ok else 'FAILED'}")
                print(f"{name}: {check} fails on {how}: {'ok' if caught else 'FAILED'}")
                failures += (not ok) + (not caught)
                continue
            print(f"{name}: {check} passes on the real run: {'ok' if ok else 'FAILED'} ({detail})")
            failures += not ok
        for check, how, breaker in BREAKS[name]:
            result = {c: ok for _, c, ok, _ in wl.verify(breaker(data))}
            caught = not result[check]
            print(f"{name}: {check} fails on {how}: {'ok' if caught else 'FAILED'}")
            failures += not caught
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
