"""Spectral shift function as a counting difference, and its exact integrals.

For a finite pair (H, H0) the spectral shift function is

    xi(lam) = N(lam; H0) - N(lam; H),

an integer step function whose jumps sit exactly at the eigenvalues of the
two operators.  All integrals against xi (the finite-dimensional
Birman-Krein identity, the Laplace-transform functional) are therefore
evaluated exactly as step-function sums over the merged spectra -- never by
generic quadrature -- which removes quadrature error from every tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import FUNCTION_FAMILY


class OnSpectrumError(ValueError):
    """An energy grid point sits (numerically) on one of the spectra."""


# ---------------------------------------------------------------------------
# energy grids


@dataclass(frozen=True)
class EnergyGrid:
    """Strictly increasing energies, optionally with recorded distances to the
    spectra of a declared operator pair (positive distances = 'exact' grid)."""

    values: np.ndarray
    distances: np.ndarray | None = None
    pair_id: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("energy grid must be a nonempty 1D sequence")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("energy grid must be strictly increasing")
        object.__setattr__(self, "values", v)
        if self.distances is not None:
            d = np.asarray(self.distances, dtype=float)
            if d.shape != v.shape:
                raise ValueError("distances shape mismatch")
            object.__setattr__(self, "distances", d)

    def __len__(self) -> int:
        return int(self.values.shape[0])


def midpoint_energy_grid(spectra, lo: float, hi: float, max_points: int = 200) -> EnergyGrid:
    """Off-spectrum grid by construction: midpoints of the gaps of the merged
    spectra inside [lo, hi], thinned to at most max_points."""
    merged = np.sort(np.concatenate([np.asarray(s, dtype=float) for s in spectra]))
    merged = merged[(merged >= lo) & (merged <= hi)]
    pts = [lo] if (merged.size == 0 or merged[0] > lo) else []
    if merged.size:
        mids = 0.5 * (merged[:-1] + merged[1:])
        gaps = np.diff(merged) > 1e-9
        pts.extend(mids[gaps].tolist())
        if merged[-1] < hi:
            pts.append(hi)
    vals = np.unique(np.asarray(pts, dtype=float))
    if vals.size > max_points:
        take = np.linspace(0, vals.size - 1, max_points).round().astype(int)
        vals = vals[np.unique(take)]
    dists = np.array([np.min(np.abs(merged - v)) if merged.size else np.inf
                      for v in vals])
    return EnergyGrid(vals, dists)


# ---------------------------------------------------------------------------
# samples


@dataclass(frozen=True)
class SSFSample:
    """xi on an energy grid for an operator pair; ``xi_raw`` holds the
    integer counting differences."""

    grid: EnergyGrid
    xi_raw: np.ndarray
    pair_id: str

    def __post_init__(self):
        xi = np.asarray(self.xi_raw)
        if xi.shape != self.grid.values.shape:
            raise ValueError("xi shape mismatch with grid")
        object.__setattr__(self, "xi_raw", xi.astype(np.int64))


def ssf_counting(h, h0, grid: EnergyGrid, require_exact: bool = True,
                 scale: float = 1.0) -> SSFSample:
    """xi(lam) = N(lam; H0) - N(lam; H) at every grid energy."""
    if require_exact and grid.distances is not None:
        bad = grid.values[grid.distances <= 1e-10 * max(scale, 1.0)]
        if bad.size:
            raise OnSpectrumError(f"grid energies on spectrum: {bad.tolist()}")
    xi = np.array([spectral.count_below(h0, lam) - spectral.count_below(h, lam)
                   for lam in grid.values], dtype=np.int64)
    return SSFSample(grid, xi, grid.pair_id or "pair")


# ---------------------------------------------------------------------------
# exact step-function machinery


def xi_step_function(eigs_h: np.ndarray, eigs_h0: np.ndarray):
    """Breakpoints and interval values of xi = N0 - N as a step function.

    Returns (x, xi_k) with xi constant = xi_k[k] on (x[k], x[k+1]); xi
    vanishes outside [x[0], x[-1]].  Pure integer arithmetic on the merged
    spectra.
    """
    eigs_h = np.sort(np.asarray(eigs_h, dtype=float))
    eigs_h0 = np.sort(np.asarray(eigs_h0, dtype=float))
    x = np.unique(np.concatenate([eigs_h, eigs_h0]))
    if x.size < 2:
        return x, np.zeros(0, dtype=np.int64)
    n0 = np.searchsorted(eigs_h0, x[:-1], side="right")
    n = np.searchsorted(eigs_h, x[:-1], side="right")
    return x, (n0 - n).astype(np.int64)


def step_integral_against(g, x: np.ndarray, xi_k: np.ndarray) -> float:
    """Exact integral of g'(lam) * xi(lam): sum xi_k (g(x_{k+1}) - g(x_k))."""
    if xi_k.size == 0:
        return 0.0
    gv = g.value(x)
    return float(np.sum(xi_k * (gv[1:] - gv[:-1])))


def exp_step_integral(t: float, x: np.ndarray, xi_k: np.ndarray) -> float:
    """Exact integral of exp(-lam t) * xi(lam) over the line."""
    if xi_k.size == 0:
        return 0.0
    ex = np.exp(-t * x)
    return float(np.sum(xi_k * (ex[:-1] - ex[1:])) / t)


# ---------------------------------------------------------------------------
# identities


def birman_krein_residual(h, h0, g, dense_limit: int = spectral.DENSE_LIMIT,
                          oracles: tuple | None = None) -> float:
    """Residual between the two exact evaluations of tr[g(H) - g(H0)].

    Path A sums g over both spectra; path B integrates g' against the xi
    step function (piecewise-exact, jumps at the merged eigenvalues).  In
    exact arithmetic the two coincide; the residual is pure rounding and the
    contract bounds it by 1e-8 * n * max|g'|.
    """
    if not isinstance(g, FUNCTION_FAMILY):
        raise ValueError("g must be from the built-in family")
    if oracles is None:
        orc_h = spectral.eig_all(h, dense_limit=dense_limit)
        orc_h0 = spectral.eig_all(h0, dense_limit=dense_limit)
    else:
        orc_h, orc_h0 = oracles
    path_a = float(np.sum(g.value(orc_h.eigenvalues))
                   - np.sum(g.value(orc_h0.eigenvalues)))
    x, xi_k = xi_step_function(orc_h.eigenvalues, orc_h0.eigenvalues)
    path_b = step_integral_against(g, x, xi_k)
    return path_a - path_b


def laplace_functional(h, h0, t: float, dense_limit: int = spectral.DENSE_LIMIT) -> float:
    """F(t) = tr(exp(-tH) - exp(-tH0))."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    return (spectral.heat_trace(h, t, dense_limit=dense_limit)
            - spectral.heat_trace(h0, t, dense_limit=dense_limit))


def laplace_via_xi(h, h0, t: float, dense_limit: int = spectral.DENSE_LIMIT,
                   oracles: tuple | None = None) -> float:
    """The same functional through -t * integral exp(-lam t) xi(lam) dlam,
    evaluated with the exact step integral (independent path)."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    if oracles is None:
        orc_h = spectral.eig_all(h, dense_limit=dense_limit)
        orc_h0 = spectral.eig_all(h0, dense_limit=dense_limit)
    else:
        orc_h, orc_h0 = oracles
    x, xi_k = xi_step_function(orc_h.eigenvalues, orc_h0.eigenvalues)
    return -t * exp_step_integral(t, x, xi_k)


def invariance_residual(h, h0, t: float, lam: float) -> int:
    """Counting form of the invariance principle:
    xi(lam; H, H0) + xi(exp(-t lam); exp(-tH), exp(-tH0)) must vanish
    at off-spectrum lam.  Returns the integer defect."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    xi_direct = spectral.count_below(h0, lam) - spectral.count_below(h, lam)
    eh = spectral.heat_semigroup(h, t)
    eh0 = spectral.heat_semigroup(h0, t)
    s = float(np.exp(-t * lam))
    xi_heat = spectral.count_below(eh0, s) - spectral.count_below(eh, s)
    return int(xi_direct + xi_heat)
