"""Counter-based i.i.d. coupling fields over integer windows.

Every coupling value is a pure function of (master seed, realization index,
absolute site coordinate): the raw 64-bit word comes from chaining a
splitmix64-style mixer over the key components.  Enlarging or reshaping the
window therefore extends a field without touching existing values, fields are
bitwise reproducible on any platform and under any parallel schedule, and the
lattice shift action is exact.

Only bounded-support distributions are accepted (bernoulli, uniform on a
finite interval, finite discrete), matching the standing assumption that the
coupling distribution has bounded support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import IntBox


class FieldError(ValueError):
    """Raised on malformed distribution specs or field operations."""


# -- splitmix64 mixing ------------------------------------------------------

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _uniform01(seeds, realizations, coords: np.ndarray) -> np.ndarray:
    """U[0,1) words keyed by (seed, realization, coordinate), order-free: row
    r of the (k, m) result holds the words of seeds[r], realizations[r] at
    the coordinates coords[r] (k, m, dim).

    All uint64 arithmetic wraps modulo 2^64 by design.
    """
    with np.errstate(over="ignore"):
        h = _mix(np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64) + _GOLDEN)
        h = _mix(h ^ (np.array([r & 0xFFFFFFFFFFFFFFFF for r in realizations],
                               dtype=np.uint64) * _GOLDEN))
        acc = np.repeat(h[:, None], coords.shape[1], axis=1)
        for ax in range(coords.shape[2]):
            c = coords[..., ax].view(np.uint64)
            acc = _mix(acc ^ (c + _GOLDEN * np.uint64(ax + 1)))
    return (acc >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


# -- distributions ----------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """Bounded-support coupling distribution.

    kinds:
      * bernoulli: P(value = v1) = p, P(value = v0) = 1 - p
      * uniform:   uniform on [low, high]
      * discrete:  finite values with weights summing to 1
    """

    kind: str
    p: float | None = None
    values: tuple | None = None
    weights: tuple | None = None
    low: float | None = None
    high: float | None = None

    def __post_init__(self):
        if self.kind == "bernoulli":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise FieldError("bernoulli needs p in [0, 1]")
            vals = self.values if self.values is not None else (0.0, 1.0)
            if len(vals) != 2 or not all(np.isfinite(v) for v in vals):
                raise FieldError("bernoulli needs two finite values (v0, v1)")
            object.__setattr__(self, "values", tuple(float(v) for v in vals))
        elif self.kind == "uniform":
            if self.low is None or self.high is None:
                raise FieldError("uniform needs low and high")
            if not (np.isfinite(self.low) and np.isfinite(self.high)):
                raise FieldError("uniform support must be bounded")
            if not self.low < self.high:
                raise FieldError("uniform needs low < high")
        elif self.kind == "discrete":
            if not self.values or not self.weights:
                raise FieldError("discrete needs values and weights")
            if len(self.values) != len(self.weights):
                raise FieldError("discrete values/weights length mismatch")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise FieldError("discrete weights must be >= 0 and sum to 1")
            if not all(np.isfinite(v) for v in self.values):
                raise FieldError("discrete values must be finite")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        else:
            raise FieldError(f"unknown distribution kind {self.kind!r}")

    def support_bounds(self) -> tuple:
        if self.kind == "bernoulli" or self.kind == "discrete":
            return (min(self.values), max(self.values))
        return (float(self.low), float(self.high))

    def transform(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "bernoulli":
            v0, v1 = self.values
            return np.where(u < self.p, v1, v0)
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * u
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]

    def describe(self) -> str:
        if self.kind == "bernoulli":
            return f"bernoulli(p={self.p},values={self.values})"
        if self.kind == "uniform":
            return f"uniform({self.low},{self.high})"
        return f"discrete({self.values},{self.weights})"


def constant_couplings(value: float = 1.0) -> DistributionSpec:
    """Degenerate distribution: every coupling equals ``value``."""
    return DistributionSpec("discrete", values=(value,), weights=(1.0,))


# -- coupling fields --------------------------------------------------------


@dataclass(frozen=True)
class CouplingField:
    """Couplings alpha_j over an integer window, counter-based in j.

    ``shift`` realises the lattice translation: the value at j is the base
    draw at j - shift, so shifting by k and then -k is the identity and the
    field statistics are translation invariant by construction.  ``sign``
    selects the positive part max(alpha, 0) (+1), the negative part
    min(alpha, 0) (-1) or the whole field (0).
    """

    spec: DistributionSpec
    window: IntBox
    seed: int
    realization: int
    shift: tuple = None
    sign: int = 0

    def __post_init__(self):
        shift = self.shift if self.shift is not None else (0,) * self.window.dim
        if len(shift) != self.window.dim:
            raise FieldError("shift dimension mismatch")
        if self.sign not in (-1, 0, 1):
            raise FieldError("sign must be -1, 0 or +1")
        object.__setattr__(self, "shift", tuple(int(s) for s in shift))

    def values_at(self, coords) -> np.ndarray:
        """Coupling values at absolute anchor coordinates (m, dim)."""
        return stack_values([self], coords)[0]

    def values_flat(self) -> np.ndarray:
        """All window values in row-major window order."""
        return self.values_at(self.window.coords())


def stack_values(fields, coords) -> np.ndarray:
    """``values_at(coords)`` of every field as the rows of one (k, m) array,
    all fields hashed in one vectorised pass."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    shifts = np.array([f.shift for f in fields], dtype=np.int64)
    u = _uniform01([f.seed for f in fields], [f.realization for f in fields],
                   coords - shifts[:, None])
    v = np.empty_like(u)
    for spec in dict.fromkeys(f.spec for f in fields):
        same = [f.spec == spec for f in fields]
        v[same] = spec.transform(u[same])
    for row, f in zip(v, fields):  # the sign parts select by comparison
        if f.sign:
            (np.maximum if f.sign > 0 else np.minimum)(row, 0.0, out=row)
    return v


def sample_couplings(spec: DistributionSpec, window: IntBox,
                     seed: int, realization: int = 0) -> CouplingField:
    """Draw an i.i.d. coupling field over the window.

    Values are keyed by (seed, realization, site), so enlarging the window
    extends the field without changing existing values.
    """
    if not isinstance(spec, DistributionSpec):
        raise FieldError("spec must be a DistributionSpec")
    if not isinstance(window, IntBox):
        raise FieldError("window must be an IntBox")
    return CouplingField(spec, window, int(seed), int(realization))


def shift_field(field: CouplingField, k) -> CouplingField:
    """Lattice shift: value at j of the result equals field value at j - k."""
    k = tuple(int(v) for v in k)
    if len(k) != field.window.dim:
        raise FieldError("shift dimension mismatch")
    return replace(field, window=field.window.shifted(k),
                   shift=tuple(s + v for s, v in zip(field.shift, k)))


def split_signs(field: CouplingField):
    """(alpha_plus, alpha_minus) with alpha+_j = max(alpha_j, 0),
    alpha-_j = min(alpha_j, 0); the recombination alpha+ + alpha- = alpha is
    exact because the parts are selected by comparison, never by arithmetic."""
    return replace(field, sign=+1), replace(field, sign=-1)
