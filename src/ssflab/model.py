"""Lattice geometry, alloy-type potentials and finite-difference Hamiltonians.

The ambient space is a regular grid in dimension 1, 2 or 3 with spacing h and
Dirichlet boundary conditions outside the grid.  The free operator is the
standard 2*nu-point discrete Laplacian (diagonal 2*nu/h^2, nearest-neighbour
couplings -1/h^2), so with zero potential the whole spectrum lies in
[0, 4*nu/h^2].  Potentials are sums of translated single-site profiles with
per-anchor coupling strengths; cutoffs come in two flavours:

* sharp      -- multiply the fully assembled potential by the indicator of a
                box (chi_Lambda * V),
* lattice_sum -- keep only the profile terms anchored inside a box of the
                anchor sublattice (V_Lambda).

Every box is an ``IntBox`` in absolute lattice coordinates, the coordinates
the counter-based couplings are keyed by; a grid records the absolute
coordinate of its site 0.  Site indexing is row-major with axis 0 slowest
everywhere; this convention is load-bearing for reproducibility of persisted
matrices and seeds.
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
    """Closed integer box [lo_i, hi_i] in Z^d, in absolute lattice coordinates."""

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
        return math.prod(self.extents)

    def shifted(self, k) -> "IntBox":
        k = tuple(int(v) for v in k)
        if len(k) != self.dim:
            raise ModelError("shift dimension mismatch")
        return IntBox(tuple(a + v for a, v in zip(self.lo, k)),
                      tuple(b + v for b, v in zip(self.hi, k)))

    def coords(self) -> np.ndarray:
        """All points of the box as an (count, dim) array, row-major order."""
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def padded(self, margin: int) -> "IntBox":
        return IntBox(tuple(a - margin for a in self.lo),
                      tuple(b + margin for b in self.hi))

    def measure(self, h: float) -> float:
        """meas(Lambda) = count * h^nu."""
        return self.count * h ** self.dim

    def surface_measure(self, h: float) -> float:
        """Sites with one of their 2*nu neighbours outside the box (all but
        the interior block, each axis shrunk by 2), times h^(nu-1)."""
        interior = math.prod(max(n - 2, 0) for n in self.extents)
        return (self.count - interior) * h ** (self.dim - 1)

    @classmethod
    def centered(cls, extents) -> "IntBox":
        """Box of the given extents around the origin: lo = -(e // 2) per axis."""
        lo = tuple(-(int(e) // 2) for e in extents)
        return cls(lo, tuple(a + int(e) - 1 for a, e in zip(lo, extents)))


@dataclass(frozen=True)
class Grid:
    """Finite lattice with spacing h; sites indexed row-major, axis 0 slowest.

    ``lo`` is the absolute lattice coordinate of site 0 (zeros by default), so
    the grid covers the absolute box ``box`` and every other box is given in
    the same absolute coordinates.
    """

    dimension: int
    spacing: float
    extents: tuple
    lo: tuple | None = None

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
        lo = (0,) * self.dimension if self.lo is None else tuple(int(a) for a in self.lo)
        if len(lo) != self.dimension:
            raise ModelError("lo length must equal dimension")
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "lo", lo)

    @property
    def n_sites(self) -> int:
        return math.prod(self.extents)

    @property
    def box(self) -> IntBox:
        return IntBox(self.lo, tuple(a + n - 1 for a, n in zip(self.lo, self.extents)))

    def indices(self, box: IntBox) -> np.ndarray:
        """Site indices of an absolute box, ascending (= row-major box order)."""
        if box.dim != self.dimension or any(
                a < g or b > g + n - 1
                for a, b, g, n in zip(box.lo, box.hi, self.lo, self.extents)):
            raise ModelError(f"box [{box.lo},{box.hi}] not inside grid {self.box}")
        return np.ravel_multi_index((box.coords() - np.asarray(self.lo)).T, self.extents)

    def mask(self, box: IntBox) -> np.ndarray:
        m = np.zeros(self.n_sites, dtype=bool)
        m[self.indices(box)] = True
        return m


def build_grid(dimension: int, spacing: float, extents) -> Grid:
    """Construct and validate a grid (canonical row-major site indexing)."""
    if np.isscalar(extents):
        extents = (extents,) * dimension
    return Grid(dimension, float(spacing), tuple(extents))


def interface_measure(box1: IntBox, box2: IntBox, h: float) -> float:
    """meas_{nu-1} of the common surface: nearest-neighbour pairs across
    the two (disjoint) boxes, times h^(nu-1)."""
    if box1.dim != box2.dim:
        raise ModelError("interface boxes differ in dimension")
    pairs = 0
    for ax in range(box1.dim):
        abut = (box1.hi[ax] + 1 == box2.lo[ax]) or (box2.hi[ax] + 1 == box1.lo[ax])
        if not abut:
            continue
        cross = 1
        for a in range(box1.dim):
            if a == ax:
                continue
            lo = max(box1.lo[a], box2.lo[a])
            hi = min(box1.hi[a], box2.hi[a])
            cross *= max(hi - lo + 1, 0)
        pairs += cross
    return pairs * h ** (box1.dim - 1)


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
    def point(cls, amplitude: float, dim: int) -> "SingleSiteProfile":
        return cls(np.full((1,) * dim, float(amplitude)), (0,) * dim)

    @classmethod
    def patch(cls, values) -> "SingleSiteProfile":
        v = np.asarray(values, dtype=float)
        return cls(v, tuple(-(n // 2) for n in v.shape))

    @classmethod
    def exponential(cls, amplitude: float, decay: float, dim: int,
                    spacing: float = 1.0) -> "SingleSiteProfile":
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
        return cls(vals, (-radius,) * dim, decay)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PotentialField:
    """Per-site potential values over a grid: shape (n,), or (k, n) for a
    stack of k potentials on one grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.grid.n_sites:
            raise ModelError("potential length must equal grid site count")
        object.__setattr__(self, "values", v)

    @classmethod
    def zero(cls, grid: Grid) -> "PotentialField":
        return cls(grid, np.zeros(grid.n_sites))


def assemble_potential(grid: Grid, profile: SingleSiteProfile, couplings,
                       cutoff_mode: str = "none",
                       cutoff_box: IntBox | None = None) -> PotentialField:
    """Sum coupling-weighted translated profiles over the anchor sublattice.

    ``couplings`` is a CouplingField (see randomfield), or a list of fields
    on one window, which gives a stack (values (k, n), row j from field j).
    The window gives the anchor coordinates in the absolute lattice, the one
    ``grid.lo`` places the grid in, so the same field produces identical
    potentials inside differently sized ambient grids.  Full-lattice fields
    have window dimension nu; hyperplane fields have window dimension
    nu_1 < nu and sit at absolute coordinate 0 of the remaining axes.
    Profile patches are clipped at the grid edges.

    cutoff_mode:
      * "none"        -- the full sum,
      * "sharp"       -- multiply by the indicator of ``cutoff_box`` (sites),
      * "lattice_sum" -- only anchors inside ``cutoff_box`` (anchor axes);
                         only their couplings are computed.
    Both cutoff boxes are IntBoxes in absolute coordinates.
    """
    from .randomfield import stack_values  # randomfield builds on IntBox

    stacked = isinstance(couplings, (list, tuple))
    fields = list(couplings) if stacked else [couplings]
    window = fields[0].window
    if any(f.window != window for f in fields):
        raise ModelError("stacked coupling fields must share one window")
    nu1 = window.dim
    if nu1 > grid.dimension:
        raise ModelError("anchor window has more axes than the grid")
    if profile.dim != grid.dimension:
        raise ModelError("profile dimension must match grid dimension")
    pad = (0,) * (grid.dimension - nu1)  # hyperplane anchors sit at coordinate 0
    if not all(g <= a and b <= G for a, b, g, G in
               zip(window.lo + pad, window.hi + pad, grid.box.lo, grid.box.hi)):
        raise ModelError("anchor sublattice extends outside the grid")

    anchors = window
    if cutoff_mode == "lattice_sum":
        if cutoff_box is None:
            raise ModelError("lattice_sum cutoff requires a box")
        if cutoff_box.dim != nu1:
            raise ModelError("lattice_sum box dimension must match anchor sublattice")
        lo = tuple(map(max, window.lo, cutoff_box.lo))
        hi = tuple(map(min, window.hi, cutoff_box.hi))
        anchors = IntBox(lo, hi) if all(a <= b for a, b in zip(lo, hi)) else None
    elif cutoff_mode == "sharp":
        if cutoff_box is None:
            raise ModelError("sharp cutoff requires a box")
        mask = grid.mask(cutoff_box)
    elif cutoff_mode != "none":
        raise ModelError(f"unknown cutoff mode {cutoff_mode!r}")

    values = np.zeros((len(fields), grid.n_sites))
    if anchors is not None:
        pts = anchors.coords()                           # (A, nu1) absolute coords
        alpha = stack_values(fields, pts)                # (k, A)
        emb = np.zeros((pts.shape[0], grid.dimension), dtype=np.int64)
        emb[:, :nu1] = pts
        emb -= np.asarray(grid.lo, dtype=np.int64)       # grid coordinates
        ext = np.asarray(grid.extents, dtype=np.int64)
        for off_idx in np.argwhere(profile.values != 0.0):
            f = profile.values[tuple(off_idx)]
            pos = emb + (np.asarray(profile.offset, dtype=np.int64) + off_idx)
            ok = np.all((pos >= 0) & (pos < ext), axis=1)     # clip at grid edges
            if not np.any(ok):
                continue
            # distinct anchors hit distinct sites, so a plain fancy add is exact
            values[:, np.ravel_multi_index(pos[ok].T, grid.extents)] += alpha[:, ok] * f

    if cutoff_mode == "sharp":
        values = values * mask
    return PotentialField(grid, values if stacked else values[0])


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass(frozen=True)
class Hamiltonian:
    """H = H0 + V as a symmetric banded matrix on a grid.

    Diagonal 2*nu/h^2 + V(x); off-diagonal -1/h^2 between nearest neighbours;
    Dirichlet outside the grid.  The matrix is never stored densely unless
    asked for; the band structure is implied by the grid strides.  A diag of
    shape (k, n) makes a stack of k operators on one grid, which counting
    takes as one operand; ``free`` then holds when every one is free.
    """

    grid: Grid
    diag: np.ndarray
    free: bool = False

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        if d.ndim not in (1, 2) or d.shape[-1] != self.grid.n_sites:
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
        # the stride of the slowest axis with neighbour pairs (unit axes have none)
        ext = self.grid.extents
        return max((math.prod(ext[a + 1:]) for a, n in enumerate(ext) if n > 1), default=0)

    def potential_values(self) -> np.ndarray:
        return self.diag - 2.0 * self.grid.dimension / self.grid.spacing ** 2

    def to_dense(self) -> np.ndarray:
        if self.diag.ndim > 1:
            raise ModelError("a stack of operators has no one dense matrix")
        a = np.zeros((self.n, self.n))
        for k, b in enumerate(grid_band(self.diag.reshape(self.grid.extents), self.offdiag)):
            j = np.arange(self.n - k)
            a[j + k, j] = a[j, j + k] = b[:self.n - k]
        return a


def grid_band(d: np.ndarray, coupling: float, root2: bool = False) -> np.ndarray:
    """LAPACK lower-band storage, band[k, j] = A[j+k, j], of the operator with
    diagonal d (shaped like its grid) and nearest-neighbour bonds `coupling`;
    root2 scales the bonds of rows 0, 1 of the trailing axis by sqrt(2)."""
    axes = [(a, math.prod(d.shape[a + 1:])) for a, n in enumerate(d.shape) if n > 1]
    band = np.zeros((max((s for _, s in axes), default=0) + 1, d.size))
    band[0] = d.ravel()
    for ax, s in axes:  # the bonds along axis ax sit at offset s, its stride
        bond = np.full(d.shape, coupling)
        bond[(slice(None),) * ax + (-1,)] = 0.0  # no neighbour past the last row
        if root2 and ax == d.ndim - 1:
            bond[..., 0] *= math.sqrt(2.0)
        band[s] = bond.ravel()
    return band


def assemble_hamiltonian(grid: Grid, potential: PotentialField) -> Hamiltonian:
    """H = H0 + V with the standard finite-difference stencil (a stack of
    operators from a stack of potentials)."""
    if potential.grid != grid:
        raise ModelError("potential was assembled on a different grid")
    v = potential.values
    diag = 2.0 * grid.dimension / grid.spacing ** 2 + v
    return Hamiltonian(grid, diag, free=not np.any(v))


def free_hamiltonian(grid: Grid) -> Hamiltonian:
    return assemble_hamiltonian(grid, PotentialField.zero(grid))


def dirichlet_restriction(h: Hamiltonian, box: IntBox) -> Hamiltonian:
    """Principal submatrix of H on the sites of the box, reindexed canonically.

    This is the discrete H_Lambda^D: the operator with Dirichlet conditions on
    the box boundary (equivalently H + infinity outside the box).  The
    restricted grid covers the box in the same absolute coordinates.  A
    stack restricts operator by operator.
    """
    sub = Grid(h.grid.dimension, h.grid.spacing, box.extents, box.lo)
    return Hamiltonian(sub, h.diag[..., h.grid.indices(box)], free=h.free)
