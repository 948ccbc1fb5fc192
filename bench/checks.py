"""Output checks, computed apart from mpfc.

Every discrete quantity a check needs (energy, multipliers, du/dt, the
backward heat kernel, the Brakke cross term) is written out again here with
plain numpy from its definition in the README, so a check compares the
program against a second implementation or against a property the method
must have, never against a stored copy of an earlier output.  Each check
returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import numpy as np

SIGMA = 1.0 / 6.0  # int_0^1 sqrt(2 W), W(s) = s^2 (1 - s)^2 / 2


def _fwd(a: np.ndarray, axis: int) -> np.ndarray:
    return np.roll(a, -1, axis=axis) - a


def grad_sq(u: np.ndarray, h: float) -> np.ndarray:
    """Node average of the squared forward differences on the 2d edges at a node."""
    out = np.zeros(u.shape)
    for ax in range(u.ndim):
        p = _fwd(u, ax) ** 2
        out += 0.5 * (p + np.roll(p, 1, axis=ax))
    return out / (h * h)


def well(s):
    return 0.5 * s * s * (1.0 - s) ** 2


def energy_density(u: np.ndarray, h: float, eps: float) -> np.ndarray:
    return sum(0.5 * eps * grad_sq(ui, h) + well(ui) / eps for ui in u) / SIGMA


def discrepancy_density(u: np.ndarray, h: float, eps: float) -> np.ndarray:
    return sum(0.5 * eps * grad_sq(ui, h) - well(ui) / eps for ui in u) / SIGMA


def integral(a: np.ndarray, h: float) -> float:
    return float(np.sum(a)) * h**a.ndim


def energy(u: np.ndarray, h: float, eps: float) -> float:
    return integral(energy_density(u, h, eps), h)


def k_primitive(s):
    """k(s) = int_0^s |y (1 - y)| dy."""
    inner = s * s / 2.0 - s**3 / 3.0
    return np.where(s < 0.0, -inner, np.where(s > 1.0, 1.0 / 3.0 - inner, inner))


def sphere_du_dt(u: np.ndarray, h: float, eps: float) -> np.ndarray:
    """du/dt = (lam u - mu) / eps with mu = -eps Lap_h u + W'(u)/eps, lam = sum u mu."""
    d = u.ndim - 1
    lap = sum(np.roll(u, s, axis=ax) for ax in range(1, d + 1) for s in (1, -1))
    lap = (lap - 2 * d * u) / (h * h)
    mu = -eps * lap + u * (1.0 - u) * (1.0 - 2.0 * u) / eps
    lam = np.sum(u * mu, axis=0)
    return (lam[None] * u - mu) / eps


def brakke_integrand(u: np.ndarray, du: np.ndarray, phi: np.ndarray, h: float, eps: float) -> float:
    """-SIGMA^{-1} eps int ( phi |du|^2 + sum_i du_i X_i ), X_i = sum_a (D+phi D+u_i + D-phi D-u_i)/2."""
    cross = np.zeros(phi.shape)
    for ui, dui in zip(u, du):
        x = np.zeros(phi.shape)
        for ax in range(phi.ndim):
            p = _fwd(phi, ax) * _fwd(ui, ax)
            x += 0.5 * (p + np.roll(p, 1, axis=ax))
        cross += dui * x / (h * h)
    return -eps / SIGMA * integral(phi * np.sum(du * du, axis=0) + cross, h)


def heat_kernel(n: int, center, tau: float) -> np.ndarray:
    """Periodized backward heat kernel (4 pi tau)^{-(d-1)/2} exp(-|x - y|^2 / (4 tau))."""
    x = np.arange(n) / n
    images = np.arange(-8, 9)
    rho = np.array((4.0 * np.pi * tau) ** (-(len(center) - 1) / 2.0))
    for a, y in enumerate(center):
        delta = (x - y) - np.round(x - y)
        z = delta[:, None] + images[None, :]
        shape = [1] * len(center)
        shape[a] = n
        rho = rho * np.exp(-z * z / (4.0 * tau)).sum(axis=1).reshape(shape)
    return rho


def _rel(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


# ---------------------------------------------------------------------------
# Checks


def partition_of_unity(states, tol=1e-12):
    worst = max(float(np.max(np.abs(np.sum(u, axis=0) - 1.0))) for u in states)
    return "partition_of_unity", worst <= tol, f"max |sum u - 1| = {worst:.2e} (tol {tol:.0e})"


def unit_length(states, tol=1e-12):
    worst = max(float(np.max(np.abs(np.sqrt(np.sum(u * u, axis=0)) - 1.0))) for u in states)
    return "unit_length", worst <= tol, f"max ||u| - 1| = {worst:.2e} (tol {tol:.0e})"


def weighted_square_constraint(states, tol=1e-10):
    worst = max(float(np.max(np.abs(np.sum(k_primitive(u), axis=0) - 1.0 / 6.0))) for u in states)
    return "weighted_square_constraint", worst <= tol, f"max |sum k(u) - 1/6| = {worst:.2e} (tol {tol:.0e})"


def energy_matches(program, independent, tol=1e-10):
    err = _rel(program, independent)
    return "energy_matches", err <= tol, f"max |E_program - E| / max(1, E) = {err:.2e} (tol {tol:.0e})"


def energy_nonincreasing(energies, tol=1e-12):
    rise = float(np.max(np.diff(energies))) / energies[0]
    return "energy_nonincreasing", rise <= tol, f"max (E[k+1] - E[k]) / E0 = {rise:.2e} (tol {tol:.0e})"


def circle_law(times, energies, r0, tol=0.01):
    law = 4.0 * np.pi * np.sqrt(r0 * r0 - 2.0 * np.asarray(times))
    err = float(np.max(np.abs(np.asarray(energies) / law - 1.0)))
    return "circle_law", err <= tol, f"max |E / 4 pi sqrt(r0^2 - 2t) - 1| = {err:.2e} (tol {tol})"


def volume_slope(times, volumes, tol=0.05):
    slope = float(np.polyfit(times, volumes, 1)[0])
    ok = abs(slope / (-2.0 * np.pi) - 1.0) <= tol
    return "volume_slope", ok, f"dV0/dt = {slope:.4f} (target -2 pi, +-{tol:.0%})"


def energy_balance(e0, e_end, dissipated, tol=1e-3):
    rel = abs(e_end - e0 + dissipated) / e0
    return "energy_balance", rel <= tol, f"|E(T) - E(0) + D(T)| / E(0) = {rel:.2e} (tol {tol:.0e})"


def junction_angles(angles, tol=5.0):
    angles = np.asarray(angles)
    ok = len(angles) == 3 and bool(np.all(np.abs(angles - 120.0) <= tol))
    ok = ok and abs(float(np.sum(angles)) - 360.0) <= 1e-9
    return "junction_angles", ok, f"sector angles {np.round(angles, 2).tolist()} (120 +- {tol})"


def snapshot_roundtrip(states, times, read_back):
    """read_back: (time, values) pairs; equal means the same bits, not the same value."""
    ok = len(read_back) == len(states)
    ok = ok and all(
        t == rt and u.shape == ru.shape and np.array_equal(u.view(np.uint64), ru.view(np.uint64))
        for u, t, (rt, ru) in zip(states, times, read_back)
    )
    return "snapshot_roundtrip", ok, f"{len(read_back)} snapshots read back, bitwise equal: {ok}"


def timeseries_energy(csv_path, energies, tol=1e-12):
    with open(csv_path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(rows) != len(energies):
        return "timeseries_energy", False, f"{len(rows)} CSV rows for {len(energies)} samples"
    err = _rel(rows[:, header.index("energy_total")], energies)
    return "timeseries_energy", err <= tol, f"CSV energy_total vs E: {err:.2e} (tol {tol:.0e})"


def brakke_one_balance(residual, energies, rates, times, sampled, tol=1e-12):
    """phi = 1 residual against E[k+1] - E[k] + trapezoid of the dissipation rate.

    ``sampled`` is the same balance from the program's own measure_sample and
    dissipation_rate, as ``mpfc check-brakke --phi one`` forms it.
    """
    dts = np.diff(times)
    expected = np.diff(energies) + 0.5 * dts * (rates[:-1] + rates[1:])
    scale = max(1.0, float(np.max(np.abs(energies))))
    err = float(np.max(np.abs(residual - expected))) / scale
    err_sampled = float(np.max(np.abs(residual - sampled))) / scale
    ok = max(err, err_sampled) <= tol
    return "brakke_one_balance", ok, (
        f"phi=1 residual vs energy balance {err:.2e}, vs sampled balance {err_sampled:.2e} (tol {tol:.0e})"
    )


def brakke_bump_residual(residual, mu_phi, integrands, times, tol=1e-10):
    expected = np.diff(mu_phi) - 0.5 * np.diff(times) * (integrands[:-1] + integrands[1:])
    err = float(np.max(np.abs(residual - expected))) / max(1.0, float(np.max(np.abs(mu_phi))))
    return "brakke_bump_residual", err <= tol, f"bump residual vs independent balance {err:.2e} (tol {tol:.0e})"


def bump_series(mu_phi_program, mu_phi, tol=1e-10):
    err = _rel(mu_phi_program, mu_phi)
    return "bump_series", err <= tol, f"streamed int phi dmu vs independent {err:.2e} (tol {tol:.0e})"


def monotonicity(verdict, density, bound, tolerance, interior, times, g_indep, bound_indep, tol=1e-10):
    """The verdict holds, and dG/dt <= bound + tol on an independent G and bound."""
    dt = times[1] - times[0]
    fd = (g_indep[interior + 1] - g_indep[interior - 1]) / (2.0 * dt)
    holds = bool(np.all(fd <= bound_indep[interior] + tolerance))
    match = max(_rel(density, g_indep), _rel(bound, bound_indep))
    ok = bool(verdict) and holds and match <= tol
    margin = float(np.max(fd - bound_indep[interior] - tolerance))
    return "monotonicity", ok, (
        f"verdict {verdict}, independent worst margin {margin:.3e}, G/bound mismatch {match:.2e}"
    )


def multiplier_cancellation(cancellation, scale, tol=1e-10):
    worst = float(np.max(np.abs(cancellation)))
    top = float(np.max(scale))
    return "multiplier_cancellation", worst <= tol * top, (
        f"|sum of multiplier terms| <= {worst:.2e} ({tol:.0e} x term scale {top:.2e})"
    )
