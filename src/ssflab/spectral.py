"""Eigenvalue counting, spectra, matrix functions and norms.

Counting never diagonalises H; one kernel per operand kind runs all energies
of a call, and for a stack of operators on one grid (a Hamiltonian with diag
(k, n)) all operators at once, each (operator, energy) lane bitwise as if
counted alone.  Chains (1D, or one axis longer than one site) run one Sturm
walk over all lanes at once, which takes a long constant run only to its
fixed point; other grid Hamiltonians a block-Schur elimination over slices
with one batched ``eigh`` per slice over all lanes; plain symmetric matrices
the LAPACK symmetric-indefinite factorization.  A near-breakdown (pivot
below 1e-12 * |H|, per operator) falls back to an eigenvalue-based count
(``eigvals_banded`` over a range on that operator's band) rather than
silently approximating.  A grid H (every operator of a stack) that commutes
with the mirror of an odd trailing axis is counted and banded-diagonalised
per mirror sector (even and odd), at about half the sites and half the
bandwidth each.

``eig_all`` returns the sorted spectrum and, on request, the eigenvectors as
a (values, vectors) pair, or only the pairs inside a window (lo, hi): one
reduction to tridiagonal form, every eigenvalue of T, inverse iteration for
the window's vectors, back-transformed by the reduction's reflectors.  Every
g(H), g from ``FUNCTION_FAMILY``, comes from one pair: ``matrix_function``
forms the dense U g(lambda) U^T as a signed rank-k update (``dsyrk``) of
U sqrt|g(lambda)|, mirrored to exact symmetry, and ``diag_of_function``
its diagonal, from the pairs inside a bump's support alone; free operators
use the per-axis sine modes.  These take one operator, never a stack.  The
paths that form an n x n array are capped at DENSE_LIMIT sites.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from .model import Grid, Hamiltonian, grid_band

DENSE_LIMIT = 4000
_BREAKDOWN_REL = 1e-12
_RUN = 32  # shortest constant Sturm run that is walked only to its fixed point
_MIRROR = 64  # columns per block when a lower triangle is mirrored


class SizeLimitError(RuntimeError):
    """Operation requires dense work beyond DENSE_LIMIT sites."""


class CountingError(RuntimeError):
    """Counting could not be completed exactly (all fallbacks exhausted)."""


# ---------------------------------------------------------------------------
# structure detection


def _as_structure(h):
    """Classify the operand: ('tridiag', d, e) | ('banded', H) | ('dense', A)."""
    if isinstance(h, Hamiltonian):
        if h.bandwidth <= 1:
            return ("tridiag", h.diag, np.full(max(h.n - 1, 0), h.offdiag))
        return ("banded", h)
    a = np.asarray(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix or Hamiltonian")
    n = a.shape[0]
    if n >= 2 and np.count_nonzero(np.triu(a, 2)) == 0 and np.count_nonzero(np.tril(a, -2)) == 0:
        return ("tridiag", np.diag(a).copy(), np.diag(a, -1).copy())
    return ("dense", a)


def _scale_of(h):
    """Gershgorin-type scale |H|; per operator, shape (k,), for a stack."""
    if isinstance(h, Hamiltonian):
        return np.max(np.abs(h.diag), axis=-1) + 2.0 * h.grid.dimension / h.grid.spacing ** 2
    a = np.asarray(h, dtype=float)
    return float(np.max(np.abs(a))) * a.shape[0] if a.size else 1.0


def _single(h) -> None:
    if isinstance(h, Hamiltonian) and h.diag.ndim > 1:
        raise ValueError("a stack of operators is only counted; take one operator")


# ---------------------------------------------------------------------------
# counting


def _sturm_counts(d: np.ndarray, e: np.ndarray, lams: np.ndarray, scale) -> np.ndarray:
    """Negative pivots of the LDLT of (T_j - lam), (k, n_lam) counts, for the
    tridiagonal T_j with diagonal d[j] (d is (k, n)) and off-diagonal e.
    Every (operator, energy) lane runs the same float operations, all lanes
    at once in one (k, n_lam) array, walked in blocks of sites.  Exact zero
    pivots are replaced by +pivmin of T_j (a block that meets one is walked
    again): an eigenvalue sitting exactly at lam is then not counted
    (strictly below).  A run of at least _RUN sites with constant
    (d_ji, e_i^2) for every j ends after the first block whose last two
    pivots agree in every lane: a lane at its fixed point repeats bitwise."""
    rest, e2s = d[:, 1:], e * e
    change = np.any(rest[:, 1:] != rest[:, :-1], axis=0) | (e2s[1:] != e2s[:-1])
    edges = np.flatnonzero(np.concatenate(([True], change, [True])))
    runs = np.flatnonzero(np.diff(edges) >= _RUN)
    cuts = [0, *np.stack([edges[runs], edges[runs + 1]], 1).ravel().tolist(), rest.shape[1]]
    piv = np.broadcast_to(np.maximum(scale, 1.0)[:, None] * 2.3e-308, (d.shape[0], lams.size))
    q = d[:, :1] - lams
    np.copyto(q, piv, where=q == 0.0)
    count = (q < 0.0).astype(np.int64)
    block = max(_RUN, 2 ** 16 // q.size)
    # spans alternate: sites walked one by one, a long run
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        step = _RUN // 2 if i % 2 else block
        for at in range(lo, hi, step):
            end = min(at + step, hi)
            dl = np.broadcast_to(rest[:, lo, None] - lams, (end - at,) + q.shape) \
                if i % 2 else rest[:, at:end].T[:, :, None] - lams
            qs = np.empty(dl.shape)
            for fix in (False, True):  # a block that meets a zero pivot is walked again
                p = q
                with np.errstate(divide="ignore", invalid="ignore"):
                    for dli, e2, out in zip(dl, e2s[at:end], qs):
                        p = np.subtract(dli, e2 / p, out=out)
                        if fix:
                            np.copyto(p, piv, where=p == 0.0)
                if qs.all():
                    break
            count += np.count_nonzero(qs < 0.0, axis=0)
            q = qs[-1]
            if i % 2 and end < hi and (q == qs[-2]).all():
                count += (hi - end) * (q < 0.0)
                break
    return count


# grid_band(d[j], coupling, root2) for each j; d is shaped (k,) + grid extents
_Banded = namedtuple("_Banded", "d coupling root2")


def _sectors(h: Hamiltonian, split: bool = True) -> list:
    """Operands whose spectra make up that of a banded grid H (or of each
    operator of a stack): H as a _Banded, or if split and every diagonal is
    bitwise mirror-symmetric about the middle row k of an odd trailing axis,
    the even sector (rows k.., the bond of rows k, k+1 times sqrt(2)) and the
    odd sector (the Hamiltonian on rows k+1.., not split)."""
    d = h.diag.reshape((-1,) + h.grid.extents)
    k, odd_extent = divmod(d.shape[-1], 2)
    if not split or k == 0 or not odd_extent or not np.array_equal(d, d[..., ::-1]):
        return [_Banded(d, h.offdiag, False)]
    g = Grid(h.grid.dimension, h.grid.spacing, d.shape[1:-1] + (k,))
    odd = d[..., k + 1:].reshape(h.diag.shape[:-1] + (-1,))
    return [_Banded(d[..., k:], h.offdiag, True),
            Hamiltonian(g, odd, free=bool(np.all(odd == 2.0 * g.dimension / g.spacing ** 2)))]


def _schur_counts(op: _Banded, lams: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Negative eigenvalues of (A_j - lam), (k, n_lam) counts, for each operand
    A_j of a stack, by elimination over slices along the slowest non-unit
    axis.  Slices couple through c * I, so the Schur complements are
    S_s = T_s - lam - c^2 S_{s-1}^{-1}, and #neg(A - lam) = sum_s #neg(S_s)
    (Haynsworth).  One batched ``eigh`` per slice over all (operator, energy)
    lanes gives the inertia and the inverse of S_s; a lane whose S_s is
    within 1e-12 * |A_j| of singular is counted by ``eigvals_banded`` on the
    band of A_j."""
    k, ext = op.d.shape[0], op.d.shape[1:]
    lead = next(a for a, n in enumerate(ext) if n > 1)
    m = math.prod(ext[lead + 1:])
    # bonds within a slice: those of one slice as a grid of its own
    band = grid_band(np.zeros(ext[lead + 1:]), op.coupling, op.root2)
    lower = sum(np.diag(b[:m - j], -j) for j, b in enumerate(band[1:], 1))
    inner, eye = lower + lower.T, np.eye(m)
    shift = lams[:, None, None] * eye
    tol = np.repeat(_BREAKDOWN_REL * np.maximum(scale, 1.0), lams.size)
    lanes = k * lams.size
    counts = np.zeros(lanes, dtype=np.int64)
    live = np.arange(lanes)
    sinv = 0.0
    for dk in np.moveaxis(op.d.reshape(k, -1, m), 1, 0):
        a = ((inner + dk[:, :, None] * eye)[:, None] - shift).reshape(lanes, m, m)
        w, v = np.linalg.eigh((a if live.size == lanes else a[live]) - op.coupling ** 2 * sinv)
        ok = np.all(np.abs(w) >= tol[live, None], axis=1)
        if not ok.all():
            live, w, v = live[ok], w[ok], v[ok]
        counts[live] += np.count_nonzero(w < 0.0, axis=1)
        sinv = (v / w[:, None, :]) @ v.transpose(0, 2, 1)
    for i in np.setdiff1d(np.arange(lanes), live):
        j, lam = i // lams.size, lams[i % lams.size]
        try:  # the spectrum lies inside [-scale, scale] (Gershgorin)
            vals = sla.eigvals_banded(grid_band(op.d[j], op.coupling, op.root2),
                                      lower=True, select="v",
                                      select_range=(-scale[j] - 1.0, lam))
        except (sla.LinAlgError, ValueError) as exc:  # pragma: no cover - defensive
            raise CountingError(f"banded count failed at lam={lam}") from exc
        counts[i] = np.searchsorted(np.sort(vals), lam, side="left")
    return counts.reshape(k, lams.size)


def _dense_ldl_count(a: np.ndarray, lam: float, scale: float):
    """Inertia of (A - lam) via the LAPACK symmetric-indefinite factorization.

    D is block diagonal with 1x1 and 2x2 blocks, so the eigenvalues of the
    tridiagonal matrix made of its diagonal and subdiagonal are those of its
    blocks."""
    shifted = a - lam * np.eye(a.shape[0])
    try:
        _, dmat, _ = sla.ldl(shifted, lower=True)
        ev = sla.eigvalsh_tridiagonal(np.diag(dmat), np.diag(dmat, -1))
    except (sla.LinAlgError, ValueError):
        return None
    if np.any(np.abs(ev) < _BREAKDOWN_REL * max(scale, 1.0)):
        return None
    return int(np.count_nonzero(ev < 0.0))


def _dense_count(a: np.ndarray, lam: float, scale: float) -> int:
    res = _dense_ldl_count(a, lam, scale)
    if res is not None:
        return res
    try:
        vals = sla.eigvalsh(a)
    except (sla.LinAlgError, ValueError) as exc:  # pragma: no cover - defensive
        raise CountingError(f"dense count failed at lam={lam}") from exc
    return int(np.searchsorted(vals, lam, side="left"))


def count_below(h, lam):
    """Number of eigenvalues of H strictly below lam, without diagonalising.

    lam is a scalar (the count is an int) or a 1D array of energies (the
    counts are an int64 array); a stack of k operators (diag (k, n)) adds a
    leading axis of length k.  The operand is classified once per call and
    one kernel counts every operator at every energy.  Exact whenever lam
    keeps a relative distance ~1e-10 from the spectrum; tests and experiments
    choose off-spectrum lam.  On factorization breakdown a count falls back
    to an eigenvalue-range count and finally raises CountingError instead of
    approximating.
    """
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError("lam must be a scalar or a 1D array")
    if not np.all(np.isfinite(lams)):
        raise ValueError("lam must be finite")
    shape = lams.shape
    if isinstance(h, Hamiltonian):  # one operator is a stack of one
        shape = h.diag.shape[:-1] + shape
        h = Hamiltonian(h.grid, h.diag.reshape(-1, h.n), h.free)
    counts = _counts(h, lams.ravel(), _scale_of(h)).reshape(shape)
    return int(counts) if counts.ndim == 0 else counts


def _counts(h, xs: np.ndarray, scale, split: bool = True) -> np.ndarray:
    """count_below of a stack (or a matrix, a stack of one) on an array of
    energies, (k, n_lam); mirror sectors add their counts.  A free odd
    sector is the same strip for every operator; it is counted once per
    distinct scale (which sets the breakdown tolerance), so each lane stays
    bitwise as if counted alone."""
    kind, *payload = _as_structure(h)
    if kind == "banded":
        first, *odd = _sectors(h, split)
        counts = _schur_counts(first, xs, scale)
        for o in odd:
            at = slice(None)
            if o.free:
                scale, at = np.unique(scale, return_inverse=True)
                o = Hamiltonian(o.grid, o.diag[:scale.size], True)
            counts += _counts(o, xs, scale, False)[at]
        return counts
    if kind == "tridiag":
        d, e = payload
        return _sturm_counts(d.reshape(-1, d.shape[-1]), e, xs, np.reshape(scale, -1))
    return np.array([[_dense_count(payload[0], x, scale) for x in xs]], dtype=np.int64)


# ---------------------------------------------------------------------------
# full spectra


def _axis_modes(h: Hamiltonian, need_vectors: bool = True) -> list:
    """Per-axis Dirichlet pairs (mu_a, Psi_a) of the chains whose Kronecker sum
    is H0: Psi_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)), jk reduced mod 2(n+1)."""
    modes = []
    for n_a in h.grid.extents:
        k = np.arange(1, n_a + 1)
        mu = (2.0 - 2.0 * np.cos(k * np.pi / (n_a + 1))) / h.grid.spacing ** 2
        psi = None
        if need_vectors:
            _check_dense(n_a)
            jk = np.outer(k, k) % (2 * n_a + 2)
            psi = math.sqrt(2.0 / (n_a + 1)) * np.sin(jk * np.pi / (n_a + 1))
        modes.append((mu, psi))
    return modes


def _check_dense(n: int) -> None:
    if n > DENSE_LIMIT:
        raise SizeLimitError(f"n={n} exceeds dense limit {DENSE_LIMIT}")


def eig_all(h, need_vectors: bool = False, support=None) -> tuple:
    """(values, vectors) of H: the full spectrum sorted ascending, and the
    eigenvectors as columns when need_vectors (else None).

    Free Hamiltonians use the closed-form Dirichlet spectrum; 1D uses the
    tridiagonal solver; wide banded matrices without vector requests use the
    banded solver, once per mirror sector when H has them; everything else
    is a dense eigensolve.  support=(lo, hi) with need_vectors says that only
    the pairs with lo < lambda < hi are needed: eig_all then returns just
    those, ascending, from one reduction to tridiagonal form T (none in 1D),
    every eigenvalue of T and inverse iteration for the window's vectors,
    which the reduction's reflectors take back to H's basis; if inverse
    iteration does not converge, it returns every pair.  Only the paths that
    form an n x n array (eigenvectors, dense eigensolve) are capped at
    DENSE_LIMIT sites.
    """
    _single(h)
    if not need_vectors:
        return _values(h), None
    kind, *payload = _as_structure(h)
    _check_dense(h.n if kind == "banded" else payload[0].shape[0])
    # overwrite only a matrix built here (symmetric: a.T = a)
    own = kind == "banded"
    if support is not None:
        pairs = _tridiagonal_window(*payload, *support) if kind == "tridiag" else \
            _window_pairs(h.to_dense().T if own else payload[0], own, *support)
        if pairs is not None:
            return pairs
    if kind == "tridiag":
        return sla.eigh_tridiagonal(*payload)
    # divide and conquer
    return sla.eigh(h.to_dense().T if own else payload[0], overwrite_a=own, driver="evd")


def _tridiagonal_window(d: np.ndarray, e: np.ndarray, lo: float, hi: float):
    """The pairs of the tridiagonal T (diagonal d, off-diagonal e) with
    lo < lambda < hi, ascending, or None if LAPACK does not converge.  T
    splits where e_i^2 < |d_i d_(i+1)| ulp^2 + tiny (LAPACK's dstebz rule);
    ``dsterf`` takes every eigenvalue of each block, and inverse iteration
    (``dstein``) the vectors of the window's, block by block."""
    n = d.size
    tiny, ulp = np.finfo(float).tiny, np.finfo(float).eps
    ends = np.append(np.flatnonzero(e * e < np.abs(d[1:] * d[:-1]) * ulp ** 2 + tiny) + 1, n)
    ws, block = [], []
    for b, (s, t) in enumerate(zip([0, *ends[:-1]], ends), 1):
        vals, info = lapack.dsterf(d[s:t], e[s:t - 1]) if t - s > 1 else (d[s:t], 0)
        if info:
            return None
        ws.append(vals[(vals > lo) & (vals < hi)])
        block += [b] * ws[-1].size
    w = np.concatenate(ws)
    if not w.size:
        return w, np.zeros((n, 0))
    # the wrapper takes the block maps at length n, and e at length >= 1
    fill = lambda x: np.pad(np.asarray(x, dtype=np.int32), (0, n - len(x)))
    z, info = lapack.dstein(d, e if n > 1 else np.zeros(1), w, fill(block), fill(ends))
    order = np.argsort(w, kind="stable")  # from block order to ascending
    return None if info else (w[order], z[:, order])


def _window_pairs(a: np.ndarray, own: bool, lo: float, hi: float):
    """The pairs of the dense symmetric A with lo < lambda < hi, ascending,
    or None if LAPACK does not converge.  A is reduced once to T = Q^T A Q
    (blocked ``dsytrd``, in place when own), T's window pairs Z come from
    _tridiagonal_window, and Q Z is formed for those m columns only
    (``dormqr``), so no n x n array is made beside A."""
    n = a.shape[0]
    c, d, e, tau, _ = lapack.dsytrd(a, lower=1, overwrite_a=own,
                                    lwork=int(lapack.dsytrd_lwork(n, lower=1)[0]))
    pairs = _tridiagonal_window(d, e, lo, hi)
    if pairs is None or n == 1 or not pairs[0].size:
        return pairs
    w, z = pairs
    m = w.size
    # Q = diag(1, H_1 ... H_(n-1)); H_j is I - tau_j v v^T with v = 1 at row
    # j + 1 and c[j+2:, j] below.  Read from one element into c's storage
    # (column stride n), the reflectors lie one row up in an n x (n-1) array
    # whose last row is c's first row, zeroed here; rows 1.. of Z lie one row
    # up in an n x m array in the same way, and its last row, which the zero
    # entry multiplies, is left as it is.  So dormqr reads both in place.
    c[0, 1:] = 0.0
    reflectors = c.ravel(order="F")[1:n * (n - 1) + 1].reshape((n, n - 1), order="F")
    out = np.zeros(n * m + 1)
    u = out[:-1].reshape((n, m), order="F")
    u[...] = z
    rows = out[1:].reshape((n, m), order="F")
    lwork = int(lapack.dormqr("L", "N", reflectors, tau, rows, -1)[1][0])
    lapack.dormqr("L", "N", reflectors, tau, rows, lwork, overwrite_c=1)
    return w, u


def _values(h, split: bool = True) -> np.ndarray:
    """The sorted spectrum of eig_all without vectors."""
    if isinstance(h, Hamiltonian) and h.free:
        mus = [mu for mu, _ in _axis_modes(h, need_vectors=False)]
        return np.sort(functools.reduce(np.add.outer, mus).ravel())
    kind, *payload = _as_structure(h)
    if kind == "tridiag":
        return sla.eigh_tridiagonal(*payload, eigvals_only=True)
    if kind == "banded" and h.n > 512:
        first, *odd = _sectors(h, split)
        band = grid_band(first.d[0], first.coupling, first.root2)
        return np.sort(np.concatenate([sla.eigvals_banded(band, lower=True),
                                       *(_values(o, False) for o in odd)]))
    _check_dense(h.n if kind == "banded" else payload[0].shape[0])
    return sla.eigvalsh(h.to_dense() if kind == "banded" else payload[0])


# ---------------------------------------------------------------------------
# traces and norms


def heat_trace(h, t: float) -> float:
    """tr exp(-tH) summed over the full spectrum."""
    return float(np.sum(ExpWeight(t).value(eig_all(h)[0])))


def heat_semigroup(h, t: float) -> np.ndarray:
    """Dense matrix exp(-tH), symmetric positive definite."""
    return matrix_function(h, ExpWeight(t))


def trace_norm(m: np.ndarray) -> float:
    """Sum of |eigenvalues| of an exactly symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if not np.array_equal(m, m.T):
        raise ValueError("trace_norm needs an exactly symmetric matrix")
    _check_dense(m.shape[0])
    return float(np.sum(np.abs(sla.eigvalsh(m))))


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


@dataclass(frozen=True)
class ResolventPower:
    """g(x) = (x + e)^(-m); x + e must stay positive on the spectrum."""

    e: float
    m: int

    def value(self, x):
        return (np.asarray(x, dtype=float) + self.e) ** -self.m

    def derivative(self, x):
        return -self.m * (np.asarray(x, dtype=float) + self.e) ** (-self.m - 1)


FUNCTION_FAMILY = (BumpFunction, ExpWeight, ConstantFunction, ResolventPower)


def matrix_function(h, g) -> np.ndarray:
    """Dense, exactly symmetric g(H) = sum_k g(lambda_k) u_k u_k^T.  h is a
    Hamiltonian, a symmetric matrix, or its pair ``eig_all(h,
    need_vectors=True)``, which then serves many g and is left unchanged.
    H0 is a Kronecker sum, so exp(-tH0) is the Kronecker product of the axis
    semigroups, axis 0 first."""
    if not isinstance(g, FUNCTION_FAMILY):
        raise ValueError("g must come from the built-in function family")
    _single(h)
    if isinstance(h, Hamiltonian) and h.free and isinstance(g, ExpWeight):
        _check_dense(h.n)
        pairs, own = _axis_modes(h), True
    else:
        own = not isinstance(h, tuple)
        pairs = [eig_all(h, need_vectors=True) if own else h]
    return functools.reduce(np.kron, [_gram(u, g.value(w), own) for w, u in pairs])


def _gram(u: np.ndarray, gw: np.ndarray, own: bool) -> np.ndarray:
    """U diag(gw) U^T as a signed rank-k update: ``dsyrk`` of U diag(sqrt
    gw) over the columns with gw >= 0, then with alpha = -1 (beta = 1) over
    U diag(sqrt -gw) for those with gw < 0, into the lower triangle of one
    n x n array, mirrored in blocks of _MIRROR columns.  U is scaled in
    place when own, else copied once."""
    a = np.multiply(u, np.sqrt(np.abs(gw)), out=u if own else None)
    c = None
    for alpha, cols in ((1.0, gw >= 0.0), (-1.0, gw < 0.0)):
        if cols.any():
            part = a if cols.all() else a[:, cols]
            f = part.flags.f_contiguous  # dsyrk reads A (trans 0) or A^T (trans 1)
            c = blas.dsyrk(alpha, part if f else part.T, beta=0.0 if c is None else 1.0,
                           c=c, trans=int(not f), lower=1, overwrite_c=1)
    n = c.shape[0]
    for s in range(0, n, _MIRROR):
        e = min(s + _MIRROR, n)
        upper = np.triu_indices(e - s, 1)
        block = c[s:e, s:e]
        block[upper] = block.T[upper]
        c[s:e, e:] = c[e:, s:e].T
    return c


def diag_of_function(h, g) -> np.ndarray:
    """Diagonal of g(H) without forming the full matrix."""
    if not isinstance(g, FUNCTION_FAMILY):
        raise ValueError("g must come from the built-in function family")
    _single(h)
    if isinstance(h, Hamiltonian) and h.free:
        # g(mu_1 + mu_2 + ...) contracted with Psi_a o Psi_a one axis at a time
        mus, psis = zip(*_axis_modes(h))
        out = g.value(functools.reduce(np.add.outer, mus))
        for psi in psis:  # contracts the leading axis and appends the site axis
            out = np.tensordot(out, psi ** 2, axes=(0, 1))
        return out.ravel()
    # a bump weighs only the pairs inside its support
    support = (g.a, g.b) if isinstance(g, BumpFunction) else None
    w, u = eig_all(h, need_vectors=True, support=support)
    return np.square(u, out=u) @ g.value(w)  # u is ours: square it in place
