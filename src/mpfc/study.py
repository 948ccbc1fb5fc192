"""Refinement studies: rerun a scenario while halving dt, h, or eps.

The study automates the truncation-order oracles used across the test suite:

    dt axis    : dt -> dt/2 per level, grid and eps fixed
    h axis     : n -> 2n per level, dt -> dt/4 (keeps dt proportional to h^2),
                 eps fixed
    eps axis   : eps -> eps/2 with n -> 2n (eps/h fixed) and the end time
                 scaled by (eps_l/eps_0)^2 so the measurement happens at the
                 same relaxation depth

Residuals: "dissipation" (energy balance defect over the run), "brakke"
(summed per-interval phi-weighted balance defects for a fixed bump),
"discrepancy" (absolute discrepancy over energy at the final sample),
"volume_rate" (relative error of the phase-0 volume slope against the exact
shrinking-circle rate -2 pi), and "laplacian" (operator error on a trig
eigenfunction; needs no simulation).

On the dt axis "volume_rate" carries a part that does not depend on dt: the
diffuse slope differs from -2 pi by an amount set by eps and h, of either
sign, which dt refinement leaves in place.  Its ratios there are therefore
not a time-step order.  It measures what it was meant to on an eps ladder at
a fixed end time, which this module does not build yet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InputError
from .grid import GridSpec, laplacian_raw
from .run import run_simulation
from .scenarios import Scenario
from .testfields import bump_field

__all__ = ["StudyLevel", "StudyResult", "convergence_study", "DEFAULT_RESIDUALS"]

DEFAULT_RESIDUALS = {"dt": "dissipation", "h": "laplacian", "eps": "discrepancy"}

_KNOWN_RESIDUALS = ("dissipation", "brakke", "discrepancy", "volume_rate", "laplacian")


@dataclass(frozen=True)
class StudyLevel:
    level: int
    n: int
    dt: float
    eps: float
    t_end: float
    residual: float


@dataclass(frozen=True)
class StudyResult:
    axis: str
    residual_name: str
    levels: list[StudyLevel]
    ratios: list[float]

    def monotone_decreasing(self) -> bool:
        vals = [lv.residual for lv in self.levels]
        return all(b < a for a, b in zip(vals, vals[1:]))


def _laplacian_error(n: int) -> float:
    spec = GridSpec(2, n)
    f = np.cos(2.0 * np.pi * spec.meshgrid()[0])
    lap = laplacian_raw(f, spec.h)
    return float(np.max(np.abs(lap + (2.0 * np.pi) ** 2 * f)))


def _volume_rate_error(record) -> float:
    times = record.times
    window = times >= times[-1] / 4.0
    if np.count_nonzero(window) < 3:
        raise InputError("too few samples in the volume-rate fit window")
    t = times[window]
    v = record.phase_volume(0)[window]
    slope = np.polyfit(t, v, 1)[0]
    return float(abs(slope + 2.0 * np.pi) / (2.0 * np.pi))


def _level_scenario(base: Scenario, axis: str, level: int) -> Scenario:
    """``base`` refined ``level`` times along ``axis``, which ``convergence_study`` checked."""
    if axis == "dt":
        return replace(base, dt=base.dt / 2**level)
    grid = GridSpec(base.grid.d, base.grid.n * 2**level)
    if axis == "h":
        return replace(base, grid=grid, dt=base.dt / 4**level)
    return replace(base, grid=grid, model=replace(base.model, eps=base.model.eps / 2**level),
                   dt=base.dt / 4**level, t_end=base.t_end / 4**level)


def _residual_for(scenario: Scenario, name: str) -> float:
    if name == "laplacian":
        return _laplacian_error(scenario.grid.n)
    if name == "brakke":
        phi = bump_field(scenario.grid)
        record = run_simulation(scenario, brakke_phis={"bump": (phi, None)})
        return float(np.sum(np.abs(record.brakke["bump"].residuals())))
    record = run_simulation(scenario)
    if name == "dissipation":
        return record.energy_balance_residual()
    if name == "discrepancy":
        final = record.samples[-1]
        return final.discrepancy_abs / final.energy_total
    return _volume_rate_error(record)  # "volume_rate": ``convergence_study`` checked the name


def convergence_study(
    base: Scenario, axis: str, levels: int, residual: str | None = None
) -> StudyResult:
    """Rerun ``base`` across refinement levels and tabulate residual ratios."""
    if levels < 3:
        raise ConfigurationError("a convergence study needs at least 3 levels")
    if axis not in DEFAULT_RESIDUALS:
        raise ConfigurationError(f"unknown study axis {axis!r}")
    name = residual or DEFAULT_RESIDUALS[axis]
    if name not in _KNOWN_RESIDUALS:
        raise ConfigurationError(f"unknown residual {name!r}")

    rows: list[StudyLevel] = []
    for level in range(levels):
        scn = _level_scenario(base, axis, level)
        value = _residual_for(scn, name)
        rows.append(
            StudyLevel(
                level=level,
                n=scn.grid.n,
                dt=scn.dt,
                eps=scn.model.eps,
                t_end=scn.t_end,
                residual=value,
            )
        )
    ratios = [
        rows[i].residual / rows[i + 1].residual if rows[i + 1].residual != 0 else np.inf
        for i in range(len(rows) - 1)
    ]
    return StudyResult(axis=axis, residual_name=name, levels=rows, ratios=ratios)
