"""Eigenvalue counting, spectra, heat semigroups, matrix functions and norms.

Counting never diagonalises: chain Hamiltonians (1D, or one axis longer
than one site) use the Sturm/LDLT sign recurrence on the tridiagonal, other
grid Hamiltonians use a no-pivot banded LDLT (Sylvester inertia of
H - lambda), and plain symmetric matrices go through the LAPACK
symmetric-indefinite factorization.  Any near-breakdown (pivot below
1e-12 * |H|) falls back to an eigenvalue-based count rather than silently
approximating.

The dense oracle (``eig_all``) backs every trace and matrix-function
operation and sits behind a configurable size limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .model import Hamiltonian

DENSE_LIMIT = 4000
_BREAKDOWN_REL = 1e-12


class SizeLimitError(RuntimeError):
    """Operation requires dense work beyond the configured size limit."""


class CountingError(RuntimeError):
    """Counting could not be completed exactly (all fallbacks exhausted)."""


# ---------------------------------------------------------------------------
# structure detection


def _as_structure(h):
    """Classify the operand: ('tridiag', d, e) | ('banded', H) | ('dense', A)."""
    if isinstance(h, Hamiltonian):
        if h.bandwidth <= 1:
            return ("tridiag", h.diag.copy(), np.full(max(h.n - 1, 0), h.offdiag))
        return ("banded", h)
    a = np.asarray(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix or Hamiltonian")
    n = a.shape[0]
    if n >= 2 and np.count_nonzero(np.triu(a, 2)) == 0 and np.count_nonzero(np.tril(a, -2)) == 0:
        return ("tridiag", np.diag(a).copy(), np.diag(a, -1).copy())
    return ("dense", a)


def _scale_of(h) -> float:
    if isinstance(h, Hamiltonian):
        return float(np.max(np.abs(h.diag)) + 2.0 * h.grid.dimension / h.grid.spacing ** 2)
    a = np.asarray(h, dtype=float)
    return float(np.max(np.abs(a))) * a.shape[0] if a.size else 1.0


def _gershgorin_interval(h) -> tuple:
    if isinstance(h, Hamiltonian):
        r = 2.0 * h.grid.dimension / h.grid.spacing ** 2
        return float(h.diag.min() - r), float(h.diag.max() + r)
    a = np.asarray(h, dtype=float)
    r = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    d = np.diag(a)
    return float(np.min(d - r)), float(np.max(d + r))


# ---------------------------------------------------------------------------
# counting


def _sturm_count(d: np.ndarray, e: np.ndarray, lam: float, scale: float) -> int:
    """Negative pivots of the LDLT of (T - lam) for a tridiagonal T.

    Exact zero pivots are replaced by +pivmin: an eigenvalue sitting exactly
    at lam is then not counted, which realises the strictly-below convention.
    """
    pivmin = max(scale, 1.0) * 2.3e-308
    count = 0
    q = d[0] - lam
    if q == 0.0:
        q = pivmin
    if q < 0.0:
        count += 1
    for i in range(1, d.shape[0]):
        q = (d[i] - lam) - e[i - 1] * e[i - 1] / q
        if q == 0.0:
            q = pivmin
        if q < 0.0:
            count += 1
    return count


def _banded_ldlt_count(band: np.ndarray, scale: float):
    """Negative pivots of a no-pivot LDLT on a lower band; None on breakdown."""
    w, n = band.shape[0] - 1, band.shape[1]
    band = band.copy()
    tol = _BREAKDOWN_REL * max(scale, 1.0)
    neg = 0
    for j in range(n):
        dpi = band[0, j]
        if abs(dpi) < tol:
            return None
        if dpi < 0.0:
            neg += 1
        m = min(w, n - 1 - j)
        if m == 0:
            continue
        col = band[1:m + 1, j] / dpi
        # rank-1 update of the trailing band block
        for i in range(m):
            band[0:m - i, j + 1 + i] -= col[i:] * (col[i] * dpi)
    return neg


def _dense_ldl_count(a: np.ndarray, lam: float, scale: float):
    """Inertia of (A - lam) via the LAPACK symmetric-indefinite factorization."""
    shifted = a - lam * np.eye(a.shape[0])
    try:
        _, dmat, _ = sla.ldl(shifted, lower=True)
    except Exception:
        return None
    tol = _BREAKDOWN_REL * max(scale, 1.0)
    n = a.shape[0]
    neg = 0
    i = 0
    while i < n:
        if i + 1 < n and dmat[i + 1, i] != 0.0:
            blk = dmat[i:i + 2, i:i + 2]
            tr, det = blk[0, 0] + blk[1, 1], blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
            disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
            for ev in ((tr - disc) / 2.0, (tr + disc) / 2.0):
                if abs(ev) < tol:
                    return None
                if ev < 0.0:
                    neg += 1
            i += 2
        else:
            piv = dmat[i, i]
            if abs(piv) < tol:
                return None
            if piv < 0.0:
                neg += 1
            i += 1
    return neg


def count_below(h, lam: float) -> int:
    """Number of eigenvalues of H strictly below lam, without diagonalising.

    Exact whenever lam keeps a relative distance ~1e-10 from the spectrum;
    tests and experiments choose off-spectrum lam.  On factorization
    breakdown the count falls back to an eigenvalue-range count and finally
    raises CountingError instead of approximating.
    """
    if not np.isfinite(lam):
        raise ValueError("lam must be finite")
    scale = _scale_of(h)
    kind, *payload = _as_structure(h)
    if kind == "tridiag":
        d, e = payload
        return _sturm_count(d, e, lam, scale)
    if kind == "banded":
        ham: Hamiltonian = payload[0]
        band = ham.band_lower()
        band[0] = band[0] - lam
        res = _banded_ldlt_count(band, scale)
        if res is not None:
            return res
        lo, _ = _gershgorin_interval(ham)
        try:
            vals = sla.eigvals_banded(ham.band_lower(), lower=True,
                                      select="v", select_range=(lo - 1.0, lam))
            return int(np.searchsorted(np.sort(vals), lam, side="left"))
        except Exception as exc:  # pragma: no cover - defensive
            raise CountingError(f"banded count failed at lam={lam}") from exc
    a = payload[0]
    res = _dense_ldl_count(a, lam, scale)
    if res is not None:
        return res
    try:
        vals = sla.eigvalsh(a)
    except Exception as exc:  # pragma: no cover - defensive
        raise CountingError(f"dense count failed at lam={lam}") from exc
    return int(np.searchsorted(vals, lam, side="left"))


# ---------------------------------------------------------------------------
# full spectra


@dataclass(frozen=True)
class SpectrumOracle:
    """Full sorted spectrum, optionally with eigenvectors (columns)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray | None = None


def _free_spectrum(h: Hamiltonian) -> np.ndarray:
    """Analytic Dirichlet spectrum of the free discrete Laplacian."""
    parts = []
    for n_a in h.grid.extents:
        k = np.arange(1, n_a + 1)
        parts.append((2.0 - 2.0 * np.cos(k * np.pi / (n_a + 1))) / h.grid.spacing ** 2)
    total = parts[0]
    for p in parts[1:]:
        total = np.add.outer(total, p).ravel()
    return np.sort(total)


def eig_all(h, need_vectors: bool = False, dense_limit: int = DENSE_LIMIT) -> SpectrumOracle:
    """Full spectrum of H, sorted ascending.

    Free Hamiltonians use the closed-form Dirichlet spectrum; 1D uses the
    tridiagonal solver; wide banded matrices without vector requests use the
    banded solver; everything else is a dense eigensolve.
    """
    kind, *payload = _as_structure(h)
    n = payload[0].shape[0] if kind == "tridiag" else (
        payload[0].n if kind == "banded" else payload[0].shape[0])
    if n > dense_limit:
        raise SizeLimitError(f"n={n} exceeds dense limit {dense_limit}")
    if isinstance(h, Hamiltonian) and h.free and not need_vectors:
        return SpectrumOracle(_free_spectrum(h))
    if kind == "tridiag":
        d, e = payload
        if d.shape[0] == 1:
            vals = d.copy()
            return SpectrumOracle(vals, np.ones((1, 1)) if need_vectors else None)
        if need_vectors:
            vals, vecs = sla.eigh_tridiagonal(d, e)
            return SpectrumOracle(vals, vecs)
        return SpectrumOracle(sla.eigh_tridiagonal(d, e, eigvals_only=True))
    if kind == "banded":
        ham: Hamiltonian = payload[0]
        if not need_vectors and ham.n > 512:
            return SpectrumOracle(sla.eigvals_banded(ham.band_lower(), lower=True))
        a = ham.to_dense()
    else:
        a = payload[0]
    if need_vectors:
        vals, vecs = sla.eigh(a)
        return SpectrumOracle(vals, vecs)
    return SpectrumOracle(sla.eigvalsh(a))


# ---------------------------------------------------------------------------
# heat semigroup, traces, norms


def heat_trace(h, t: float, dense_limit: int = DENSE_LIMIT) -> float:
    """tr exp(-tH) summed over the full spectrum."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    w = eig_all(h, dense_limit=dense_limit).eigenvalues
    return float(np.sum(np.exp(-t * w)))


def heat_semigroup(h, t: float, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """Dense matrix exp(-tH), symmetric positive definite."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    orc = eig_all(h, need_vectors=True, dense_limit=dense_limit)
    u, w = orc.vectors, orc.eigenvalues
    m = (u * np.exp(-t * w)) @ u.T
    return 0.5 * (m + m.T)


def trace_norm(m: np.ndarray, dense_limit: int = DENSE_LIMIT) -> float:
    """Sum of singular values (for symmetric input: sum of |eigenvalues|)."""
    m = np.asarray(m, dtype=float)
    if m.shape[0] > dense_limit:
        raise SizeLimitError(f"n={m.shape[0]} exceeds dense limit {dense_limit}")
    if np.array_equal(m, m.T):
        return float(np.sum(np.abs(sla.eigvalsh(m))))
    return float(np.sum(sla.svdvals(m)))


# ---------------------------------------------------------------------------
# built-in smooth test functions


@dataclass(frozen=True)
class BumpFunction:
    """C^2 bump g(x) = ((x-a)(b-x))^3 / ((b-a)/2)^6 on [a, b], zero outside.

    The cubic vanishing at both endpoints makes g, g' and g'' continuous, and
    g' has the closed form needed by the exact step-function quadratures.
    """

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("bump needs a < b")

    @property
    def _norm(self) -> float:
        return ((self.b - self.a) / 2.0) ** 6

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.a) * (self.b - x)
        out = np.where((x > self.a) & (x < self.b), u ** 3 / self._norm, 0.0)
        return out if out.ndim else float(out)

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.a) * (self.b - x)
        out = np.where((x > self.a) & (x < self.b),
                       3.0 * u ** 2 * (self.a + self.b - 2.0 * x) / self._norm, 0.0)
        return out if out.ndim else float(out)

    def max_abs_derivative(self) -> float:
        xs = np.linspace(self.a, self.b, 4097)
        return float(np.max(np.abs(self.derivative(xs))))

    @property
    def support(self) -> tuple:
        return (self.a, self.b)


@dataclass(frozen=True)
class ExpWeight:
    """g(x) = exp(-t x), the Laplace-transform test function."""

    t: float

    def __post_init__(self):
        if not self.t > 0.0:
            raise ValueError("t must be positive")

    def value(self, x):
        return np.exp(-self.t * np.asarray(x, dtype=float))

    def derivative(self, x):
        return -self.t * np.exp(-self.t * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ConstantFunction:
    """g identically constant (g' = 0); the degenerate end of the family."""

    c: float = 1.0

    def value(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


FUNCTION_FAMILY = (BumpFunction, ExpWeight, ConstantFunction)


def diag_of_function(h, g, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """Diagonal of g(H) without forming the full matrix."""
    if not isinstance(g, FUNCTION_FAMILY):
        raise ValueError("g must come from the built-in function family")
    orc = eig_all(h, need_vectors=True, dense_limit=dense_limit)
    return (orc.vectors ** 2) @ g.value(orc.eigenvalues)
