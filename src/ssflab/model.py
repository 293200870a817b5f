"""Lattice geometry, alloy-type potentials and finite-difference Hamiltonians.

The ambient space is a regular grid in dimension 1, 2 or 3 with spacing h and
Dirichlet boundary conditions outside the grid.  The free operator is the
standard 2*nu-point discrete Laplacian (diagonal 2*nu/h^2, nearest-neighbour
couplings -1/h^2), so with zero potential the whole spectrum lies in
[0, 4*nu/h^2].  Potentials are sums of translated single-site profiles with
per-anchor coupling strengths; cutoffs come in two flavours:

* sharp      -- multiply the fully assembled potential by the indicator of a
                site box (chi_Lambda * V),
* lattice_sum -- keep only the profile terms anchored inside an integer box
                of the anchor sublattice (V_Lambda).

Site indexing is row-major with axis 0 slowest everywhere; this convention is
load-bearing for reproducibility of persisted matrices and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ModelError(ValueError):
    """Raised on invalid geometry or assembly input."""


# ---------------------------------------------------------------------------
# integer boxes and grids


@dataclass(frozen=True)
class IntBox:
    """Closed integer box [lo_i, hi_i] in Z^d (anchor/site coordinate space)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ModelError("IntBox lo/hi dimension mismatch")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ModelError(f"IntBox has empty axis: lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "lo", tuple(int(a) for a in self.lo))
        object.__setattr__(self, "hi", tuple(int(b) for b in self.hi))

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def extents(self) -> tuple:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def count(self) -> int:
        return int(np.prod(self.extents))

    @property
    def boundary_site_count(self) -> int:
        # sites with at least one of the 2*nu neighbours outside the box:
        # total minus the interior block (each axis shrunk by 2)
        interior = 1
        for n in self.extents:
            interior *= max(n - 2, 0)
        return self.count - interior

    def shifted(self, k) -> "IntBox":
        k = tuple(int(v) for v in k)
        if len(k) != self.dim:
            raise ModelError("shift dimension mismatch")
        return IntBox(tuple(a + v for a, v in zip(self.lo, k)),
                      tuple(b + v for b, v in zip(self.hi, k)))

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an (m, dim) int array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.int64))
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def coords(self) -> np.ndarray:
        """All points of the box as an (count, dim) array, row-major order."""
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class Grid:
    """Finite lattice with spacing h; sites indexed row-major, axis 0 slowest."""

    dimension: int
    spacing: float
    extents: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ModelError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if not (self.spacing > 0.0 and math.isfinite(self.spacing)):
            raise ModelError(f"spacing must be positive, got {self.spacing}")
        ext = tuple(int(n) for n in self.extents)
        if len(ext) != self.dimension:
            raise ModelError("extents length must equal dimension")
        if any(n < 1 for n in ext):
            raise ModelError(f"all extents must be >= 1, got {ext}")
        object.__setattr__(self, "extents", ext)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.extents))

    @property
    def strides(self) -> tuple:
        s = []
        acc = 1
        for n in reversed(self.extents):
            s.append(acc)
            acc *= n
        return tuple(reversed(s))

    def index_of(self, coords) -> int:
        coords = tuple(int(c) for c in coords)
        for c, n in zip(coords, self.extents):
            if not (0 <= c < n):
                raise ModelError(f"coordinate {coords} outside grid {self.extents}")
        return int(np.ravel_multi_index(coords, self.extents))

    def coords_of(self, index: int) -> tuple:
        return tuple(int(c) for c in np.unravel_index(int(index), self.extents))

    def full_box(self) -> "SiteBox":
        return SiteBox(self, (0,) * self.dimension,
                       tuple(n - 1 for n in self.extents))


def build_grid(dimension: int, spacing: float, extents) -> Grid:
    """Construct and validate a grid (canonical row-major site indexing)."""
    if np.isscalar(extents):
        extents = (extents,) * dimension
    return Grid(dimension, float(spacing), tuple(extents))


@dataclass(frozen=True)
class SiteBox:
    """Rectangular sub-box of a grid, closed integer ranges per axis.

    meas(Lambda) = site_count * h^nu; the surface measure counts the sites of
    the box that have a lattice neighbour outside the box, times h^(nu-1).
    """

    grid: Grid
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(int(a) for a in self.lo)
        hi = tuple(int(b) for b in self.hi)
        if len(lo) != self.grid.dimension or len(hi) != self.grid.dimension:
            raise ModelError("box dimension mismatch with grid")
        if any(a > b for a, b in zip(lo, hi)):
            raise ModelError(f"empty box: lo={lo} hi={hi}")
        if any(a < 0 or b >= n for a, b, n in zip(lo, hi, self.grid.extents)):
            raise ModelError(f"box [{lo},{hi}] not inside grid {self.grid.extents}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def bounds(self) -> IntBox:
        return IntBox(self.lo, self.hi)

    @property
    def extents(self) -> tuple:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def site_count(self) -> int:
        return int(np.prod(self.extents))

    @property
    def measure(self) -> float:
        return self.site_count * self.grid.spacing ** self.grid.dimension

    @property
    def boundary_site_count(self) -> int:
        return self.bounds.boundary_site_count

    @property
    def surface_measure(self) -> float:
        return self.boundary_site_count * self.grid.spacing ** (self.grid.dimension - 1)

    def indices(self) -> np.ndarray:
        """Grid indices of the box sites, ascending (= row-major subgrid order)."""
        return np.ravel_multi_index(self.bounds.coords().T, self.grid.extents)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.grid.n_sites, dtype=bool)
        m[self.indices()] = True
        return m

    @classmethod
    def centered(cls, grid: Grid, extents) -> "SiteBox":
        if np.isscalar(extents):
            extents = (extents,) * grid.dimension
        lo, hi = [], []
        for n, e in zip(grid.extents, extents):
            a = (n - int(e)) // 2
            lo.append(a)
            hi.append(a + int(e) - 1)
        return cls(grid, tuple(lo), tuple(hi))


def interface_measure(box1: SiteBox, box2: SiteBox) -> float:
    """meas_{nu-1} of the common surface: nearest-neighbour pairs across
    the two (disjoint) boxes, times h^(nu-1)."""
    if box1.grid != box2.grid:
        raise ModelError("boxes live on different grids")
    g = box1.grid
    pairs = 0
    for ax in range(g.dimension):
        abut = (box1.hi[ax] + 1 == box2.lo[ax]) or (box2.hi[ax] + 1 == box1.lo[ax])
        if not abut:
            continue
        cross = 1
        for a in range(g.dimension):
            if a == ax:
                continue
            lo = max(box1.lo[a], box2.lo[a])
            hi = min(box1.hi[a], box2.hi[a])
            cross *= max(hi - lo + 1, 0)
        pairs += cross
    return pairs * g.spacing ** (g.dimension - 1)


# ---------------------------------------------------------------------------
# single-site profiles


_TAIL_TRUNCATION = 1e-14  # relative cutoff for lattice-sum tails


@dataclass(frozen=True)
class SingleSiteProfile:
    """Values of the single-site potential f on a patch of lattice offsets.

    ``values[k]`` is the contribution at anchor + offset + k (multi-index),
    i.e. ``offset`` locates the patch origin relative to the anchor site.
    Tailed profiles carry their decay rate so experiments can reason about
    truncation; compact profiles have ``decay_rate is None``.
    """

    values: np.ndarray
    offset: tuple
    decay_rate: float | None = None
    name: str = "profile"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ModelError("profile values must be finite")
        if v.ndim != len(self.offset):
            raise ModelError("profile offset rank must match values rank")
        if self.decay_rate is not None and not self.decay_rate > 0:
            raise ModelError("tailed profiles must declare decay_rate > 0")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "offset", tuple(int(o) for o in self.offset))

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def is_compact(self) -> bool:
        return self.decay_rate is None

    @classmethod
    def point(cls, amplitude: float, dim: int, name: str = "point") -> "SingleSiteProfile":
        return cls(np.full((1,) * dim, float(amplitude)), (0,) * dim, None, name)

    @classmethod
    def patch(cls, values, name: str = "patch") -> "SingleSiteProfile":
        v = np.asarray(values, dtype=float)
        off = tuple(-(n // 2) for n in v.shape)
        return cls(v, off, None, name)

    @classmethod
    def exponential(cls, amplitude: float, decay: float, dim: int,
                    spacing: float = 1.0, name: str = "exp") -> "SingleSiteProfile":
        """f(r) = amplitude * exp(-decay * |r|), truncated where
        |f| < 1e-14 * |amplitude| (bounded patch, negligible error)."""
        if not decay > 0:
            raise ModelError("decay must be positive")
        radius = int(math.ceil(-math.log(_TAIL_TRUNCATION) / (decay * spacing)))
        box = IntBox((-radius,) * dim, (radius,) * dim)
        pts = box.coords().reshape(box.extents + (dim,))
        dist = np.sqrt(np.sum((pts * spacing) ** 2.0, axis=-1))
        vals = amplitude * np.exp(-decay * dist)
        vals[np.abs(vals) < _TAIL_TRUNCATION * abs(amplitude)] = 0.0
        return cls(vals, (-radius,) * dim, decay, name)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Provenance:
    profile_id: str
    coupling_id: str
    cutoff: str


@dataclass(frozen=True)
class PotentialField:
    """Per-site potential values over a grid, with assembly provenance."""

    grid: Grid
    values: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_sites,):
            raise ModelError("potential length must equal grid site count")
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, grid: Grid) -> "PotentialField":
        return cls(grid, np.zeros(grid.n_sites), Provenance("zero", "none", "none"))


def assemble_potential(grid: Grid, profile: SingleSiteProfile, couplings,
                       cutoff_mode: str = "none", cutoff_box=None,
                       transverse: tuple = (), origin: tuple | None = None) -> PotentialField:
    """Sum coupling-weighted translated profiles over the anchor sublattice.

    ``couplings`` is a CouplingField (see randomfield); its window gives the
    anchor coordinates in the *absolute* anchor lattice.  ``origin`` places
    absolute anchor 0 at that grid coordinate (per anchor axis), so the same
    field produces identical potentials inside differently sized ambient
    grids.  Full-lattice fields have window dimension nu; hyperplane fields
    have window dimension nu_1 < nu and are embedded at the fixed
    ``transverse`` grid coordinates (appended axes).  Profile patches are
    clipped at the grid edges.

    cutoff_mode:
      * "none"        -- the full sum,
      * "sharp"       -- multiply by the indicator of ``cutoff_box`` (SiteBox),
      * "lattice_sum" -- only anchors inside ``cutoff_box`` (IntBox in absolute
                         anchor coordinates; a SiteBox also works when the
                         anchor lattice is the full site lattice and origin=0).
    """
    transverse = tuple(int(t) for t in transverse)
    window = couplings.window
    nu1 = window.dim
    if nu1 + len(transverse) != grid.dimension:
        raise ModelError("anchor window dim + transverse dim must equal grid dimension")
    if profile.dim != grid.dimension:
        raise ModelError("profile dimension must match grid dimension")
    if origin is None:
        origin = (0,) * nu1
    origin = tuple(int(o) for o in origin)
    if len(origin) != nu1:
        raise ModelError("origin length must match anchor window dimension")

    anchors1 = window.coords()                       # (A, nu1) absolute coords
    placed = anchors1 + np.asarray(origin, dtype=np.int64)
    if transverse:
        emb = np.concatenate(
            [placed, np.tile(np.asarray(transverse, dtype=np.int64),
                             (anchors1.shape[0], 1))], axis=1)
    else:
        emb = placed
    for ax in range(grid.dimension):
        if emb[:, ax].min() < 0 or emb[:, ax].max() >= grid.extents[ax]:
            raise ModelError("anchor sublattice extends outside the grid")

    alpha = couplings.values_flat()

    if cutoff_mode == "lattice_sum":
        if cutoff_box is None:
            raise ModelError("lattice_sum cutoff requires a box")
        b = cutoff_box.bounds if isinstance(cutoff_box, SiteBox) else cutoff_box
        if b.dim != nu1:
            raise ModelError("lattice_sum box dimension must match anchor sublattice")
        keep = b.contains_points(anchors1)
        emb = emb[keep]
        alpha = alpha[keep]
    elif cutoff_mode == "sharp":
        if not isinstance(cutoff_box, SiteBox) or cutoff_box.grid != grid:
            raise ModelError("sharp cutoff requires a SiteBox on the same grid")
    elif cutoff_mode != "none":
        raise ModelError(f"unknown cutoff mode {cutoff_mode!r}")

    values = np.zeros(grid.n_sites)
    pvals = profile.values
    ext = np.asarray(grid.extents, dtype=np.int64)
    nonzero = np.argwhere(pvals != 0.0)
    for off_idx in nonzero:
        f = pvals[tuple(off_idx)]
        pos = emb + (np.asarray(profile.offset, dtype=np.int64) + off_idx)
        ok = np.all((pos >= 0) & (pos < ext), axis=1)     # clip at grid edges
        if not np.any(ok):
            continue
        flat = np.ravel_multi_index(pos[ok].T, grid.extents)
        np.add.at(values, flat, alpha[ok] * f)

    cutoff_desc = "none"
    if cutoff_mode == "sharp":
        values = values * cutoff_box.mask()
        cutoff_desc = f"sharp[{cutoff_box.lo}..{cutoff_box.hi}]"
    elif cutoff_mode == "lattice_sum":
        b = cutoff_box.bounds if isinstance(cutoff_box, SiteBox) else cutoff_box
        cutoff_desc = f"lattice_sum[{b.lo}..{b.hi}]"

    return PotentialField(grid, values,
                          Provenance(profile.name, couplings.field_id(), cutoff_desc))


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass(frozen=True)
class Hamiltonian:
    """H = H0 + V as a symmetric banded matrix on a grid.

    Diagonal 2*nu/h^2 + V(x); off-diagonal -1/h^2 between nearest neighbours;
    Dirichlet outside the grid.  The matrix is never stored densely unless
    asked for; the band structure is implied by the grid strides.
    """

    grid: Grid
    diag: np.ndarray
    free: bool = False
    potential_id: str = "none"

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        if d.shape != (self.grid.n_sites,):
            raise ModelError("diagonal length mismatch")
        object.__setattr__(self, "diag", d)

    @property
    def n(self) -> int:
        return self.grid.n_sites

    @property
    def offdiag(self) -> float:
        return -1.0 / self.grid.spacing ** 2

    @property
    def bandwidth(self) -> int:
        # unit axes have no neighbour pairs, so their strides never reach the band
        return max((s for s, n in zip(self.grid.strides, self.grid.extents) if n > 1),
                   default=0)

    def potential_values(self) -> np.ndarray:
        return self.diag - 2.0 * self.grid.dimension / self.grid.spacing ** 2

    def _neighbour_pairs(self):
        """Per-axis (i, j) index arrays with j = i + stride inside the grid."""
        idx = np.arange(self.n, dtype=np.int64).reshape(self.grid.extents)
        out = []
        for ax in range(self.grid.dimension):
            if self.grid.extents[ax] < 2:
                continue
            sl_lo = [slice(None)] * self.grid.dimension
            sl_hi = [slice(None)] * self.grid.dimension
            sl_lo[ax] = slice(0, -1)
            sl_hi[ax] = slice(1, None)
            out.append((idx[tuple(sl_lo)].ravel(), idx[tuple(sl_hi)].ravel()))
        return out

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[np.arange(self.n), np.arange(self.n)] = self.diag
        for i, j in self._neighbour_pairs():
            a[i, j] = self.offdiag
            a[j, i] = self.offdiag
        return a

    def band_lower(self) -> np.ndarray:
        """LAPACK lower-band storage: band[k, j] = A[j+k, j], k = 0..bandwidth."""
        w = self.bandwidth
        band = np.zeros((w + 1, self.n))
        band[0] = self.diag
        for i, j in self._neighbour_pairs():
            # j - i equals the axis stride for every pair of this axis
            band[j[0] - i[0], i] = self.offdiag
        return band


def assemble_hamiltonian(grid: Grid, potential: PotentialField) -> Hamiltonian:
    """H = H0 + V with the standard finite-difference stencil."""
    if potential.grid != grid:
        raise ModelError("potential was assembled on a different grid")
    v = potential.values
    diag = 2.0 * grid.dimension / grid.spacing ** 2 + v
    return Hamiltonian(grid, diag, free=bool(np.all(v == 0.0)),
                       potential_id=potential.provenance.profile_id
                       + "/" + potential.provenance.cutoff)


def free_hamiltonian(grid: Grid) -> Hamiltonian:
    return assemble_hamiltonian(grid, PotentialField.zero(grid))


def dirichlet_restriction(h: Hamiltonian, box: SiteBox) -> Hamiltonian:
    """Principal submatrix of H on the sites of the box, reindexed canonically.

    This is the discrete H_Lambda^D: the operator with Dirichlet conditions on
    the box boundary (equivalently H + infinity outside the box).
    """
    if box.grid != h.grid:
        raise ModelError("box lives on a different grid")
    sub = Grid(h.grid.dimension, h.grid.spacing, box.extents)
    return Hamiltonian(sub, h.diag[box.indices()], free=h.free,
                       potential_id=h.potential_id + f"|D[{box.lo}..{box.hi}]")
