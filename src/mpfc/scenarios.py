"""Well-prepared initial data and run schedules.

Initial states compose the optimal transition profile with exact signed
distances to the phase regions, so the data starts essentially
equipartitioned with energy close to twice the sharp interface length (each
interface is counted by both adjacent phases).  The supported geometries are
strips, disks, and wedge partitions around a triple junction; distances are
evaluated in closed form (no distance-transform pass).

Strips superpose rising and falling fronts over the periodic image lattice,
sum_k [q(x - lo + k) - q(x - hi + k)], which agrees with q(signed distance)
up to exp(-separation/eps) and, unlike distance compositions, is C-infinity
on the torus (no derivative kink at the wrap or the slab midline).  Disks
use the exact torus distance to the center; the cone point at the center and
the cut locus leave exp(-distance/eps)-sized derivative kinks in the far
tails, which relax away within a few steps.  Wedges use exact point-to-
convex-polygon distances of the sector clipped to the periodic fundamental
square, minimized over the 3x3 image lattice; the signed distance to region
i is dist(x, union of other regions) - dist(x, region i), which is immune to
the fake boundary pieces a region has along the periodic seam.

After profile composition the state is projected exactly onto the model's
constraint manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelKind, ModelSpec, PhaseField, project_constraint
from .diagnostics import energy_measure
from .errors import ScenarioError
from .grid import GridSpec, torus_delta
from .potential import optimal_profile

__all__ = [
    "FlatStrip",
    "DoubleStrip",
    "Disk",
    "TwoDisks",
    "TripleJunction",
    "Scenario",
    "build_scenario",
]


def _periodic_slab(x: np.ndarray, lo: float, hi: float, eps: float) -> np.ndarray:
    """Image-summed slab profile: 1 on [lo, hi], 0 outside, C-infinity periodic."""
    u = np.zeros_like(x)
    for k in range(-2, 3):
        u += optimal_profile(x - lo + k, eps) - optimal_profile(x - hi + k, eps)
    return u


@dataclass(frozen=True)
class FlatStrip:
    """Phase 0 is the slab lo <= x_axis <= hi; two flat interfaces."""

    lo: float = 0.25
    hi: float = 0.75
    axis: int = 0

    n_regions = 2

    def validate(self, eps: float) -> None:
        width = self.hi - self.lo
        if not 0.0 < self.lo < self.hi < 1.0:
            raise ScenarioError(f"strip [{self.lo}, {self.hi}] must sit inside (0, 1)")
        if width < 6 * eps or (1.0 - width) < 6 * eps:
            raise ScenarioError("strip interfaces closer than 6 eps")

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        x = spec.meshgrid()[self.axis]
        return _periodic_slab(x, self.lo, self.hi, eps)

    def interface_length(self) -> float:
        return 2.0


@dataclass(frozen=True)
class DoubleStrip:
    """Phase 0 is the union of two parallel slabs; four flat interfaces."""

    bands: tuple[tuple[float, float], tuple[float, float]] = ((0.125, 0.375), (0.625, 0.875))
    axis: int = 0

    n_regions = 2

    def validate(self, eps: float) -> None:
        edges = []
        for lo, hi in self.bands:
            if not 0.0 <= lo < hi <= 1.0:
                raise ScenarioError(f"band [{lo}, {hi}] must sit inside [0, 1]")
            edges += [lo, hi]
        edges = np.sort(np.asarray(edges))
        gaps = np.diff(np.concatenate([edges, [edges[0] + 1.0]]))
        if np.min(gaps) < 6 * eps:
            raise ScenarioError("double-strip interfaces closer than 6 eps")

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        x = spec.meshgrid()[self.axis]
        u = np.zeros(spec.shape)
        for lo, hi in self.bands:
            u += _periodic_slab(x, lo, hi, eps)
        return u

    def interface_length(self) -> float:
        return 4.0


@dataclass(frozen=True)
class Disk:
    """Phase 0 is the ball of given radius (any d >= 2)."""

    center: tuple[float, ...] = (0.5, 0.5)
    radius: float = 0.3

    n_regions = 2

    def validate(self, eps: float) -> None:
        if not 3 * eps < self.radius < 0.5 - 3 * eps:
            raise ScenarioError(
                f"disk radius {self.radius} outside (3 eps, 0.5 - 3 eps) = "
                f"({3 * eps}, {0.5 - 3 * eps})"
            )

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        axes = spec.meshgrid()
        if len(self.center) != spec.d:
            raise ScenarioError("disk center dimension does not match the grid")
        rho = np.sqrt(sum(torus_delta(axes[a], self.center[a]) ** 2 for a in range(spec.d)))
        return optimal_profile(self.radius - rho, eps)

    def interface_length(self) -> float:
        return 2.0 * np.pi * self.radius  # d = 2 circumference


@dataclass(frozen=True)
class TwoDisks:
    """Phase 0 is the union of two disjoint balls."""

    centers: tuple[tuple[float, ...], tuple[float, ...]] = ((0.3, 0.3), (0.7, 0.7))
    radii: tuple[float, float] = (0.15, 0.15)

    n_regions = 2

    def validate(self, eps: float) -> None:
        for r in self.radii:
            if not 3 * eps < r < 0.5 - 3 * eps:
                raise ScenarioError(f"disk radius {r} outside (3 eps, 0.5 - 3 eps)")
        delta = torus_delta(np.asarray(self.centers[0]), np.asarray(self.centers[1]))
        gap = float(np.linalg.norm(delta)) - self.radii[0] - self.radii[1]
        if gap < 6 * eps:
            raise ScenarioError(f"two-disk interface gap {gap:.4f} is below 6 eps")

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        axes = spec.meshgrid()
        u = np.zeros(spec.shape)
        for c, r in zip(self.centers, self.radii):
            rho = np.sqrt(sum(torus_delta(axes[a], c[a]) ** 2 for a in range(spec.d)))
            u += optimal_profile(r - rho, eps)
        return u

    def interface_length(self) -> float:
        return 2.0 * np.pi * (self.radii[0] + self.radii[1])


def _clip_convex(poly: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by {p : normal . p >= 0}."""
    out = []
    m = len(poly)
    vals = poly @ normal
    for i in range(m):
        j = (i + 1) % m
        vi, vj = vals[i], vals[j]
        if vi >= 0:
            out.append(poly[i])
        if (vi >= 0) != (vj >= 0):
            t = vi / (vi - vj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out)


def _polygon_distance(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from points (..., 2) to a convex CCW polygon (0 inside)."""
    p = points.reshape(-1, 2)
    m = len(poly)
    inside = np.ones(len(p), dtype=bool)
    best = np.full(len(p), np.inf)
    for i in range(m):
        a = poly[i]
        b = poly[(i + 1) % m]
        e = b - a
        rel = p - a
        cross = e[0] * rel[:, 1] - e[1] * rel[:, 0]
        inside &= cross >= 0
        t = np.clip((rel @ e) / (e @ e), 0.0, 1.0)
        diff = rel - t[:, None] * e
        best = np.minimum(best, np.sqrt(np.sum(diff * diff, axis=1)))
    dist = np.where(inside, 0.0, best)
    return dist.reshape(points.shape[:-1])


@dataclass(frozen=True)
class TripleJunction:
    """Three wedge phases around a junction; equal tensions relax to 120 degrees.

    ``angles`` are the boundary ray directions in degrees, counterclockwise.
    Each sector must span less than 180 degrees so it is convex.  On the torus
    the rays continue into a periodic interface network with further junctions
    near the fundamental-cell seam; that is the genuine periodic geometry, not
    an artifact.
    """

    angles: tuple[float, float, float] = (90.0, 210.0, 330.0)
    center: tuple[float, float] = (0.5, 0.5)

    n_regions = 3

    def validate(self, eps: float) -> None:
        a = np.sort(np.mod(np.asarray(self.angles, dtype=float), 360.0))
        widths = np.diff(np.concatenate([a, [a[0] + 360.0]]))
        if np.any(widths <= 0) or np.any(widths >= 180.0):
            raise ScenarioError("each wedge must span a positive angle below 180 degrees")

    def _polygons(self) -> list[np.ndarray]:
        a = np.sort(np.mod(np.asarray(self.angles, dtype=float), 360.0))
        square = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
        polys = []
        for i in range(3):
            alpha = np.radians(a[i])
            beta = np.radians(a[(i + 1) % 3] + (360.0 if i == 2 else 0.0))
            va = np.array([np.cos(alpha), np.sin(alpha)])
            vb = np.array([np.cos(beta), np.sin(beta)])
            # sector = {cross(va, p) >= 0} & {cross(vb, p) <= 0}
            poly = _clip_convex(square, np.array([-va[1], va[0]]))
            poly = _clip_convex(poly, np.array([vb[1], -vb[0]]))
            if len(poly) < 3:
                raise ScenarioError("degenerate wedge sector")
            polys.append(poly)
        return polys

    def region_distances(self, spec: GridSpec) -> np.ndarray:
        """Signed torus distance to each wedge region, positive inside."""
        if spec.d != 2:
            raise ScenarioError("triple junction geometry requires d = 2")
        axes = spec.meshgrid()
        p = np.stack(
            [torus_delta(axes[0], self.center[0]), torus_delta(axes[1], self.center[1])],
            axis=-1,
        )
        polys = self._polygons()
        dist = np.empty((3,) + spec.shape)
        offsets = [
            np.array([i, j], dtype=float) for i in (-1, 0, 1) for j in (-1, 0, 1)
        ]
        for i, poly in enumerate(polys):
            d = np.full(spec.shape, np.inf)
            for k in offsets:
                d = np.minimum(d, _polygon_distance(p - k, poly))
            dist[i] = d
        signed = np.empty_like(dist)
        for i in range(3):
            other = np.min(np.delete(dist, i, axis=0), axis=0)
            signed[i] = other - dist[i]
        return signed

    def profiles(self, spec: GridSpec, eps: float) -> np.ndarray:
        return optimal_profile(self.region_distances(spec), eps)

    def interface_length(self) -> None:
        return None  # seam network length is geometry dependent; not asserted


Geometry = FlatStrip | DoubleStrip | Disk | TwoDisks | TripleJunction


@dataclass(frozen=True)
class Scenario:
    """Initial-data recipe plus run schedule."""

    geometry: Geometry
    model: ModelSpec
    grid: GridSpec
    dt: float
    t_end: float
    snapshot_every: int = 16
    projection: str = "every_step"
    scheme: str = "IMEX"

    def __post_init__(self):
        if self.dt <= 0:
            raise ScenarioError("dt must be positive")
        if self.t_end < 0:
            raise ScenarioError("t_end must be nonnegative")
        if self.snapshot_every < 1:
            raise ScenarioError("snapshot_every must be >= 1")
        if self.projection not in ("off", "every_step"):
            raise ScenarioError(f"unknown projection policy {self.projection!r}")
        if self.scheme not in ("IMEX", "ExplicitEuler"):
            raise ScenarioError(f"unknown scheme {self.scheme!r}")


def build_scenario(scenario: Scenario) -> PhaseField:
    """Construct the projected initial state of a scenario.

    Profiles fill the geometry's regions; when the model carries more phases
    than the geometry has regions the extra phases start at zero.  The exact
    constraint projection runs last, so the returned state satisfies the
    model's conservation law to projection accuracy.  For the two-region
    geometries with a sum-type constraint the initial energy is verified to
    be within 10% of twice the sharp interface length; the sphere model has a
    different (smaller) layer energy and is not held to that count.
    """
    geom = scenario.geometry
    model = scenario.model
    spec = scenario.grid
    eps = model.eps
    geom.validate(eps)
    if model.n_phases < geom.n_regions:
        raise ScenarioError(
            f"geometry needs {geom.n_regions} phases but the model has {model.n_phases}"
        )

    if isinstance(geom, TripleJunction):
        regions = geom.profiles(spec, eps)
    else:
        inside = geom.inside_profile(spec, eps)
        regions = np.stack([inside, 1.0 - inside])

    u = np.zeros((model.n_phases,) + spec.shape)
    u[: regions.shape[0]] = regions
    state = PhaseField(spec, u, time=0.0)
    state = project_constraint(state, model, max_violation=np.inf)

    target = geom.interface_length()
    if target is not None and model.kind != ModelKind.SPHERE_LL:
        total = float(np.sum(energy_measure(state, eps)))
        expected = 2.0 * target
        if abs(total - expected) > 0.1 * expected:
            raise ScenarioError(
                f"initial energy {total:.4f} deviates more than 10% from the "
                f"sharp-interface count {expected:.4f}; interfaces are not well prepared"
            )
    return state
