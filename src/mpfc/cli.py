"""Command-line interface.

Subcommands:

    simulate <config> --out DIR          integrate a scenario, persist snapshots + CSV
    diagnose <snapshot> [--test-field F] measures and first-variation report of one state
    check-monotonicity <run-dir> --center X,Y --terminal S
    check-brakke <run-dir> --phi {one,bump}
    study --axis {dt,h,eps} --levels K [--residual NAME] <config>

Config files are plain text with one ``key = value`` per line; ``#`` starts a
comment.  Keys match the scenario fields:

    geometry   Disk(cx, cy, r) | FlatStrip[(lo, hi)] | DoubleStrip[(l1,h1,l2,h2)]
               | TwoDisks[(x1,y1,r1,x2,y2,r2)] | TripleJunction[(a1,a2,a3)]
    model      SphereLL | WeightedSum | MeanShift | WeightedSquare
    eps, n_phases, d, n, dt, t_end, snapshot_every,
    projection (off | every_step), scheme (a name in ``dynamics.SCHEMES``)

Unknown keys are errors.  Unset keys take the documented baseline defaults
(d=2, n=256, eps=8/n, dt=h^2, t_end=0.02, MeanShift disk).  Exit codes:
0 on success/PASS, 1 on a failed check or blow-up, 2 on usage/config errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .analysis import KernelSpec, brakke_residual, monotonicity_check, _off_stride
from .diagnostics import energy_bv_gap, energy_measure, first_variation, measure_sample
from .dynamics import ModelKind, ModelSpec, flow
from .errors import BlowUpError, ConfigurationError, InputError, MpfcError
from .grid import GridSpec, ScalarField
from .run import load_run_states, run_simulation
from .scenarios import (
    Disk,
    DoubleStrip,
    FlatStrip,
    Scenario,
    TripleJunction,
    TwoDisks,
)
from .snapshots import read_snapshot
from .study import convergence_study
from .testfields import (
    bump_field,
    constant_vector_field,
    radial_vector_field,
    random_smooth_vector_field,
)

_USAGE_ERROR = 2
_CHECK_FAILED = 1

_SCENARIO_KEYS = {
    "geometry",
    "model",
    "eps",
    "n_phases",
    "d",
    "n",
    "dt",
    "t_end",
    "snapshot_every",
    "projection",
    "scheme",
}

_GEOMETRY_RE = re.compile(r"^\s*([A-Za-z]+)\s*(?:\(([^)]*)\))?\s*$")


def _parse_geometry(text: str, d: int):
    m = _GEOMETRY_RE.match(text)
    if not m:
        raise ConfigurationError(f"cannot parse geometry {text!r}")
    name, argtext = m.group(1), m.group(2)
    v = []
    if argtext is not None and argtext.strip():
        try:
            v = [float(a) for a in argtext.split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"bad geometry arguments in {text!r}") from exc
    arity = {"Disk": d + 1, "FlatStrip": 2, "DoubleStrip": 4, "TwoDisks": 6, "TripleJunction": 3}
    if name not in arity:
        raise ConfigurationError(f"unknown geometry {name!r}")
    if v and len(v) != arity[name]:
        raise ConfigurationError(f"{name} takes {arity[name]} arguments, got {len(v)} in {text!r}")
    if name == "Disk":
        return Disk(center=tuple(v[:-1]), radius=v[-1]) if v else Disk(center=(0.5,) * d)
    if name == "FlatStrip":
        return FlatStrip(*v)
    if name == "DoubleStrip":
        return DoubleStrip(bands=((v[0], v[1]), (v[2], v[3]))) if v else DoubleStrip()
    if name == "TwoDisks":
        return TwoDisks(centers=((v[0], v[1]), (v[3], v[4])), radii=(v[2], v[5])) if v else TwoDisks()
    return TripleJunction(angles=tuple(v)) if v else TripleJunction()


def parse_config(path: str | Path) -> Scenario:
    """Parse a key=value scenario file with baseline defaults."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    try:
        d = int(raw.get("d", "2"))
        n = int(raw.get("n", "256"))
        grid = GridSpec(d, n)
        geometry = _parse_geometry(raw.get("geometry", "Disk"), d)
        kind = ModelKind(raw.get("model", "MeanShift"))
        n_phases = int(raw.get("n_phases", str(geometry.n_regions)))
        eps = float(raw.get("eps", str(8.0 / n)))
        model = ModelSpec(kind, eps, n_phases)
        h2 = grid.h * grid.h
        # Keys with a ``Scenario`` field default are passed only when set.
        schedule = {key: cast(raw[key]) for key, cast in
                    (("snapshot_every", int), ("projection", str), ("scheme", str)) if key in raw}
        scenario = Scenario(
            geometry=geometry,
            model=model,
            grid=grid,
            dt=float(raw.get("dt", repr(h2))),
            t_end=float(raw.get("t_end", "0.02")),
            **schedule,
        )
    except (ValueError, MpfcError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"{path}: {exc}") from exc
    return scenario


def _cmd_simulate(args) -> int:
    scenario = parse_config(args.config)
    try:
        record = run_simulation(scenario, out_dir=args.out)
    except BlowUpError as exc:
        print(f"FAIL blow-up: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    final = record.samples[-1]
    print(f"steps           : {record.sample_steps[-1]}")
    print(f"final time      : {final.time:.8g}")
    print(f"energy          : {record.samples[0].energy_total:.8g} -> {final.energy_total:.8g}")
    print(f"balance residual: {record.energy_balance_residual():.3e}")
    print(f"constraint drift: {final.constraint_drift:.3e}")
    if record.holder:
        print(f"holder constant : {record.holder['holder_constant']:.4g} (reported, not asserted)")
    print(f"outputs in      : {args.out}")
    return 0


def _build_test_field(name: str, spec: GridSpec):
    if name == "e1":
        direction = np.zeros(spec.d)
        direction[0] = 1.0
        return constant_vector_field(spec, direction)
    if name == "radial":
        return radial_vector_field(spec)
    m = re.match(r"^random(\d+)$", name)
    if m:
        return random_smooth_vector_field(spec, seed=int(m.group(1)))
    raise ConfigurationError(
        f"unknown test field {name!r} (use e1, radial, or randomNNN)"
    )


def _cmd_diagnose(args) -> int:
    state, model = read_snapshot(args.snapshot)
    sample = measure_sample(state, model)
    fe = flow(state, model)
    print(f"time             : {sample.time:.8g}")
    print(f"energy per phase : {np.array2string(sample.energy_per_phase, precision=6)}")
    print(f"energy total     : {sample.energy_total:.8g}")
    print(f"discrepancy (abs): {sample.discrepancy_abs:.6g}")
    print(f"bv proxy         : {np.array2string(sample.bv_proxy_per_phase, precision=6)}")
    print(f"energy-bv gap    : {energy_bv_gap(sample):.6g}")
    print(f"dissipation rate : {fe.rate:.6g}")
    print(f"constraint drift : {sample.constraint_drift:.3e}")
    print(f"overshoot        : {sample.overshoot:.3e}")

    ok = True
    for i in range(len(sample.energy_per_phase)):
        if abs(sample.discrepancy_per_phase[i]) > sample.energy_per_phase[i] + 1e-12:
            print(f"FAIL domination: |discrepancy_{i+1}| > energy_{i+1}")
            ok = False
        if sample.bv_proxy_per_phase[i] > sample.energy_per_phase[i] + 1e-12:
            print(f"FAIL domination: bv_proxy_{i+1} > energy_{i+1}")
            ok = False
    if energy_bv_gap(sample) < -1e-12:
        print("FAIL energy-bv gap is negative")
        ok = False

    if args.test_field:
        gfield = _build_test_field(args.test_field, state.spec)
        report = first_variation(state, model, fe, gfield)
        print(f"first variation  : {report.first_variation:.8g}")
        print(f"stress form      : {report.stress_form:.8g}")
        print(f"discrepancy term : {report.discrepancy_term:.8g}")
        print(f"chemical form    : {report.chemical_form:.8g}")
        print(f"kinetic form     : {report.kinetic_form:.8g}")
        for key, value in report.residuals.items():
            print(f"  {key}: {value:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else _CHECK_FAILED


def _cmd_check_monotonicity(args) -> int:
    states, model = load_run_states(args.run_dir)
    try:
        center = tuple(float(c) for c in args.center.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad --center {args.center!r}") from exc
    if len(center) != states[0].spec.d:
        raise ConfigurationError("--center dimension does not match the run")
    try:
        kernel = KernelSpec(center_y=center, terminal_s=args.terminal)
    except InputError as exc:  # a non-finite --center or --terminal
        raise ConfigurationError(str(exc)) from exc
    usable = [st for st in states if st.time < args.terminal]
    if len(usable) < len(states):
        print(f"note: discarding {len(states) - len(usable)} snapshots at t >= terminal")
    # A run always samples its last step, which may fall off the stride.
    times = [st.time for st in usable]
    kept = len(usable)
    while kept > 2 and times[1] > times[0] and _off_stride(np.diff(times[:kept]))[-1]:
        kept -= 1
    if kept < len(usable):
        print(f"note: discarding {len(usable) - kept} trailing snapshots off the uniform spacing")
        usable = usable[:kept]
    trace, verdict = monotonicity_check(usable, model.eps, kernel, model=model)
    print("   t         density      d/dt        bound       tol")
    for j, k in enumerate(trace.interior_index):
        print(
            f"  {trace.times[k]:<9.6g} {trace.gaussian_density[k]:<12.6g} "
            f"{trace.fd_derivative[j]:<11.4g} {trace.rhs_bound[k]:<11.4g} "
            f"{trace.fd_tolerance[j]:<10.3g}"
        )
    if trace.multiplier_cancellation is not None:
        worst = np.max(np.abs(trace.multiplier_cancellation))
        scale = max(np.max(trace.multiplier_scale), 1e-300)
        print(f"multiplier cancellation: max |sum| = {worst:.3e} (scale {scale:.3e})")
    print("PASS" if verdict else "FAIL")
    return 0 if verdict else _CHECK_FAILED


def _cmd_check_brakke(args) -> int:
    states, model = load_run_states(args.run_dir)
    spec = states[0].spec
    if args.phi == "one":
        phi = ScalarField.constant(spec, 1.0)
    elif args.phi == "bump":
        phi = bump_field(spec)
    else:
        raise ConfigurationError(f"unknown --phi {args.phi!r} (use one or bump)")
    residuals = brakke_residual(states, model.eps, model, phi)
    times = [st.time for st in states]
    print("  interval              residual")
    for k, r in enumerate(residuals):
        print(f"  [{times[k]:.6g}, {times[k+1]:.6g}]   {r: .6e}")
    total = float(np.sum(np.abs(residuals)))
    print(f"sum |residual| = {total:.6e}")

    ok = bool(np.isfinite(residuals).all())
    if args.phi == "one":
        # phi == 1 must reproduce the energy balance: same snapshots, same rule.
        rates = np.array([flow(st, model).rate for st in states])
        dts = np.diff(np.array(times))
        energies = np.array([float(np.sum(energy_measure(st, model.eps))) for st in states])
        expected = np.diff(energies) + 0.5 * dts * (rates[:-1] + rates[1:])
        mismatch = float(np.max(np.abs(residuals - expected)))
        print(f"energy-balance consistency: max |delta| = {mismatch:.3e}")
        ok = ok and mismatch <= 1e-12 * max(1.0, float(np.max(np.abs(energies))))
    print("PASS" if ok else "FAIL")
    return 0 if ok else _CHECK_FAILED


_RATIO_WINDOWS = {
    ("dt", "dissipation"): (1.6, 2.6),
    ("dt", "brakke"): (1.4, 2.6),
    ("h", "laplacian"): (3.5, 4.5),
}


def _cmd_study(args) -> int:
    base = parse_config(args.config)
    result = convergence_study(base, args.axis, args.levels, residual=args.residual)
    print(f"axis={result.axis} residual={result.residual_name}")
    print("  level   n      dt            eps        t_end      residual")
    for lv in result.levels:
        print(
            f"  {lv.level:<5d} {lv.n:<6d} {lv.dt:<13.6g} {lv.eps:<10.6g} "
            f"{lv.t_end:<10.6g} {lv.residual:.6e}"
        )
    print(f"ratios: {['%.3f' % r for r in result.ratios]}")

    window = _RATIO_WINDOWS.get((result.axis, result.residual_name))
    if window is not None:
        ok = all(window[0] <= r <= window[1] for r in result.ratios)
        print(f"target ratio window {window}: {'PASS' if ok else 'FAIL'}")
    elif result.axis == "eps":
        ok = result.monotone_decreasing()
        print(f"monotone decrease: {'PASS' if ok else 'FAIL'}")
    else:
        ok = all(np.isfinite(r) for r in result.ratios)
    return 0 if ok else _CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpfc",
        description="Multi-phase curvature flow simulator and diagnostic suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and persist outputs")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory (created if missing)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("diagnose", help="measures and variation report of a snapshot")
    p.add_argument("snapshot")
    p.add_argument("--test-field", default=None, help="e1 | radial | randomNNN")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("check-monotonicity", help="Gaussian density monotonicity check")
    p.add_argument("run_dir")
    p.add_argument("--center", required=True, help="kernel center, e.g. 0.5,0.5")
    p.add_argument("--terminal", required=True, type=float, help="kernel terminal time")
    p.set_defaults(fn=_cmd_check_monotonicity)

    p = sub.add_parser("check-brakke", help="phi-weighted energy balance residuals")
    p.add_argument("run_dir")
    p.add_argument("--phi", required=True, help="one | bump")
    p.set_defaults(fn=_cmd_check_brakke)

    p = sub.add_parser("study", help="refinement study with residual ratios")
    p.add_argument("config")
    p.add_argument("--axis", required=True, choices=("dt", "h", "eps"))
    p.add_argument("--levels", required=True, type=int)
    p.add_argument("--residual", default=None)
    p.set_defaults(fn=_cmd_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other codes
        return _USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ConfigurationError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except MpfcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
