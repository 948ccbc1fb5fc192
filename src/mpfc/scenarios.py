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
the fake boundary pieces a region has along the periodic seam.  The kernel
takes any number of convex regions.

After profile composition the state is projected exactly onto the model's
constraint manifold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .dynamics import SCHEMES, ModelKind, ModelSpec, PhaseField, project_constraint
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


def _sphere_area(radius: float, d: int) -> float:
    """Area of the (d-1)-sphere of the given radius, 2 pi^{d/2} r^{d-1} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2) * radius ** (d - 1) / math.gamma(d / 2)


def _periodic_slab(x: np.ndarray, lo: float, hi: float, eps: float) -> np.ndarray:
    """Image-summed slab profile: 1 on [lo, hi], 0 outside, C-infinity periodic."""
    u = np.zeros_like(x)
    for k in range(-2, 3):
        u += optimal_profile(x - lo + k, eps) - optimal_profile(x - hi + k, eps)
    return u


@dataclass(frozen=True)
class FlatStrip:
    """Phase 0 is the slab lo <= x_0 <= hi; two flat interfaces."""

    lo: float = 0.25
    hi: float = 0.75

    n_regions = 2

    def validate(self, eps: float, d: int) -> None:
        width = self.hi - self.lo
        if not 0.0 < self.lo < self.hi < 1.0:
            raise ScenarioError(f"strip [{self.lo}, {self.hi}] must sit inside (0, 1)")
        if width < 6 * eps or (1.0 - width) < 6 * eps:
            raise ScenarioError("strip interfaces closer than 6 eps")

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        x = spec.meshgrid()[0]
        return _periodic_slab(x, self.lo, self.hi, eps)

    def interface_length(self, d: int) -> float:
        return 2.0


@dataclass(frozen=True)
class DoubleStrip:
    """Phase 0 is the union of two slabs across axis 0; four flat interfaces."""

    bands: tuple[tuple[float, float], tuple[float, float]] = ((0.125, 0.375), (0.625, 0.875))

    n_regions = 2

    def validate(self, eps: float, d: int) -> None:
        edges = []
        for lo, hi in sorted(self.bands):
            if not 0.0 <= lo < hi <= 1.0:
                raise ScenarioError(f"band [{lo}, {hi}] must sit inside [0, 1]")
            edges += [lo, hi]
        # Overlapping bands leave the edges out of order: a negative gap.
        gaps = np.diff(np.concatenate([edges, [edges[0] + 1.0]]))
        if np.min(gaps) < 6 * eps:
            raise ScenarioError("double-strip bands overlap or their interfaces are closer than 6 eps")

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        x = spec.meshgrid()[0]
        u = np.zeros(spec.shape)
        for lo, hi in self.bands:
            u += _periodic_slab(x, lo, hi, eps)
        return u

    def interface_length(self, d: int) -> float:
        return 4.0


@dataclass(frozen=True)
class Disk:
    """Phase 0 is the ball of given radius (any d >= 2)."""

    center: tuple[float, ...] = (0.5, 0.5)
    radius: float = 0.3

    n_regions = 2

    def validate(self, eps: float, d: int) -> None:
        if len(self.center) != d:
            raise ScenarioError(f"disk center {self.center} does not have the grid's {d} axes")
        if not 3 * eps < self.radius < 0.5 - 3 * eps:
            raise ScenarioError(
                f"disk radius {self.radius} outside (3 eps, 0.5 - 3 eps) = "
                f"({3 * eps}, {0.5 - 3 * eps})"
            )

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        axes = spec.meshgrid()
        rho = np.sqrt(sum(torus_delta(axes[a], self.center[a]) ** 2 for a in range(spec.d)))
        return optimal_profile(self.radius - rho, eps)

    def interface_length(self, d: int) -> float:
        return _sphere_area(self.radius, d)


@dataclass(frozen=True)
class TwoDisks:
    """Phase 0 is the union of two disjoint balls."""

    centers: tuple[tuple[float, ...], tuple[float, ...]] = ((0.3, 0.3), (0.7, 0.7))
    radii: tuple[float, float] = (0.15, 0.15)

    n_regions = 2

    def validate(self, eps: float, d: int) -> None:
        for c, r in zip(self.centers, self.radii):
            Disk(c, r).validate(eps, d)
        delta = torus_delta(np.asarray(self.centers[0]), np.asarray(self.centers[1]))
        gap = float(np.linalg.norm(delta)) - self.radii[0] - self.radii[1]
        if gap < 6 * eps:
            raise ScenarioError(f"two-disk interface gap {gap:.4f} is below 6 eps")

    def inside_profile(self, spec: GridSpec, eps: float) -> np.ndarray:
        return sum(Disk(c, r).inside_profile(spec, eps) for c, r in zip(self.centers, self.radii))

    def interface_length(self, d: int) -> float:
        return _sphere_area(self.radii[0], d) + _sphere_area(self.radii[1], d)


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
    # A cut through a vertex can repeat it; a zero-length edge has no direction.
    return np.asarray([p for k, p in enumerate(out) if not np.array_equal(p, out[k - 1])])


def _signed_region_distances(qx, qy, polys) -> np.ndarray:
    """Signed torus distance to each convex CCW polygon region, positive inside.

    ``qx`` (n, 1) and ``qy`` (1, n) are the grid's minimum-image offsets from
    the reference point, an open mesh: edge offsets are n-vectors and only
    their products fill the grid.  A region's squared distance is the running
    minimum over the 3x3 image lattice and the polygon's edges, 0 where every
    edge's cross product is >= 0.  One sqrt per region is then bitwise the
    minimum of the roots (sqrt is correctly rounded and monotone).
    dist(others) is each cell's smallest or second smallest region distance,
    so N regions cost O(N).
    """
    dist = np.full((len(polys), qx.shape[0], qy.shape[1]), np.inf)
    cross_min, d2_min, t, w = (np.empty(dist.shape[1:]) for _ in range(4))
    for kx, ky, (poly, best) in product((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), zip(polys, dist)):
        cross_min.fill(np.inf)
        d2_min.fill(np.inf)
        for a, b in zip(poly, np.roll(poly, -1, axis=0)):
            e = b - a
            relx, rely = qx - kx - a[0], qy - ky - a[1]
            np.subtract(e[0] * rely, e[1] * relx, out=w)
            np.minimum(cross_min, w, out=cross_min)
            np.add(relx * e[0], rely * e[1], out=t)  # t = clip(rel . e / e . e, 0, 1)
            t /= e @ e
            np.clip(t, 0.0, 1.0, out=t)
            np.subtract(relx, np.multiply(t, e[0], out=w), out=w)
            w *= w
            np.subtract(rely, np.multiply(t, e[1], out=t), out=t)
            t *= t
            w += t
            np.minimum(d2_min, w, out=d2_min)
        d2_min *= cross_min < 0.0  # 0 inside
        np.minimum(best, d2_min, out=best)
    np.sqrt(dist, out=dist)
    lo, lo2 = cross_min, d2_min
    lo.fill(np.inf)
    lo2.fill(np.inf)
    for d in dist:
        np.minimum(lo2, np.maximum(lo, d, out=t), out=lo2)
        np.minimum(lo, d, out=lo)
    for d in dist:
        np.subtract(np.where(d == lo, lo2, lo), d, out=d)
    return dist


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

    def validate(self, eps: float, d: int) -> None:
        if d != 2:
            raise ScenarioError("triple junction geometry requires d = 2")
        if len(self.angles) != 3:
            raise ScenarioError(f"a triple junction needs 3 ray angles, got {len(self.angles)}")
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
        """Signed torus distance to each wedge region, positive inside (d = 2)."""
        ax = np.arange(spec.n) * spec.h  # the axis of spec.meshgrid()
        qx, qy = torus_delta(ax, self.center[0]), torus_delta(ax, self.center[1])
        return _signed_region_distances(qx[:, None], qy[None, :], self._polygons())

    def profiles(self, spec: GridSpec, eps: float) -> np.ndarray:
        return optimal_profile(self.region_distances(spec), eps)

    def interface_length(self, d: int) -> None:
        return None  # seam network length is geometry dependent; not asserted


Geometry = FlatStrip | DoubleStrip | Disk | TwoDisks | TripleJunction


@dataclass(frozen=True)
class Scenario:
    """Initial-data recipe plus run schedule, checked once, here: the schedule,
    the scheme, the geometry against the grid and eps, and the phase count."""

    geometry: Geometry
    model: ModelSpec
    grid: GridSpec
    dt: float
    t_end: float
    snapshot_every: int = 16
    projection: str = "every_step"
    scheme: str = "IMEX"

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ScenarioError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < np.inf:
            raise ScenarioError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if type(self.snapshot_every) is not int or self.snapshot_every < 1:
            raise ScenarioError(f"snapshot_every must be an int >= 1, got {self.snapshot_every!r}")
        if self.projection not in ("off", "every_step"):
            raise ScenarioError(f"unknown projection policy {self.projection!r}")
        if self.scheme not in SCHEMES:
            raise ScenarioError(f"unknown scheme {self.scheme!r}")
        self.geometry.validate(self.model.eps, self.grid.d)
        if self.model.n_phases < self.geometry.n_regions:
            raise ScenarioError(
                f"geometry needs {self.geometry.n_regions} phases but the model has "
                f"{self.model.n_phases}"
            )


def build_scenario(scenario: Scenario) -> PhaseField:
    """Construct the projected initial state of a scenario.

    Profiles fill the geometry's regions; when the model carries more phases
    than the geometry has regions the extra phases start at zero.  SphereLL
    keeps them at exactly +0.0 (its coupling lam u_i and the radial
    projection map +0 to +0), so they are absent and cost the step and the
    diagnostics nothing (see ``dynamics``).  The exact
    constraint projection runs last, so the returned state satisfies the
    model's conservation law to projection accuracy.  For the two-region
    geometries with a sum-type constraint the initial energy is verified to
    be within 10% of twice the sharp interface length; the sphere model has a
    slightly larger layer energy (a relaxed 2.006 per unit length against 2)
    and is not held to that count.
    """
    geom = scenario.geometry
    model = scenario.model
    spec = scenario.grid
    eps = model.eps
    if isinstance(geom, TripleJunction):
        regions = geom.profiles(spec, eps)
    else:
        inside = geom.inside_profile(spec, eps)
        regions = np.stack([inside, 1.0 - inside])

    u = np.zeros((model.n_phases,) + spec.shape)
    u[: regions.shape[0]] = regions
    state = PhaseField(spec, u, time=0.0)
    state = project_constraint(state, model, max_violation=np.inf)

    target = geom.interface_length(spec.d)
    if target is not None and model.kind != ModelKind.SPHERE_LL:
        total = float(np.sum(energy_measure(state, eps)))
        expected = 2.0 * target
        if abs(total - expected) > 0.1 * expected:
            raise ScenarioError(
                f"initial energy {total:.4f} deviates more than 10% from the "
                f"sharp-interface count {expected:.4f}; interfaces are not well prepared"
            )
    return state
