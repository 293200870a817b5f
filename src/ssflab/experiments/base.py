"""Shared experiment plumbing: configs, result records, fits and checks.

Every experiment is a pure function of (config, master seed): all randomness
is counter-based, reductions run over index-ordered arrays, and records
exclude wall-clock data, so reruns are bitwise identical regardless of the
worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from ..model import IntBox, SingleSiteProfile, build_grid
from ..randomfield import DistributionSpec


class ExperimentError(RuntimeError):
    """A validated precondition failed while running an experiment."""


_KIRSCH_PATCH = np.array([[0.25, 0.5, 0.25],
                          [0.5, 1.0, 0.5],
                          [0.25, 0.5, 0.25]])


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one verification campaign."""

    experiment: str
    seed: int = 0
    realizations: int = 1
    workers: int = 1
    dense_limit: int = 4000
    dimension: int = 1
    spacing: float = 1.0
    distribution: DistributionSpec | None = None
    profile: dict = field(default_factory=dict)
    schedule: tuple = ()
    energies: tuple = ()
    times: tuple = (1.0,)
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "schedule", tuple(int(v) for v in self.schedule))
        object.__setattr__(self, "energies", tuple(float(v) for v in self.energies))
        object.__setattr__(self, "times", tuple(float(v) for v in self.times))
        if self.schedule and any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            raise ExperimentError("schedule must be strictly increasing")
        if self.realizations < 1:
            raise ExperimentError("realizations must be >= 1")

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def opt(self, name: str, default):
        return self.options.get(name, default)

    def build_profile(self) -> SingleSiteProfile:
        kind = self.profile.get("kind", "point")
        amp = float(self.profile.get("amplitude", -1.0))
        if kind == "point":
            return SingleSiteProfile.point(amp, self.dimension)
        if kind == "exponential":
            decay = float(self.profile.get("decay", 2.0))
            return SingleSiteProfile.exponential(amp, decay, self.dimension,
                                                 self.spacing)
        if kind == "kirsch_patch":
            return SingleSiteProfile.patch(amp * _KIRSCH_PATCH, "kirsch_patch")
        raise ExperimentError(f"unknown profile kind {kind!r}")

    def canonical(self) -> dict:
        d = asdict(self)
        if self.distribution is not None:
            d["distribution"] = self.distribution.describe()
        d.pop("workers", None)  # execution plumbing, not part of the science
        return d

    def digest(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class ResultRecord:
    """Raw rows, aggregates and pass/fail checks of one experiment run.

    Reproducible bitwise from (config, seed); every aggregate traces back to
    the raw rows stored alongside it.
    """

    experiment: str
    seed: int
    config_digest: str
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add_check(self, name: str, kind: str, passed: bool, value,
                  tolerance=None, detail: str = "") -> None:
        assert kind in ("hard", "soft")
        self.checks.append({
            "name": name, "kind": kind, "passed": bool(passed),
            "value": value, "tolerance": tolerance, "detail": detail,
        })

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks if c["kind"] == "hard")

    @property
    def hard_failures(self) -> list:
        return [c["name"] for c in self.checks if c["kind"] == "hard" and not c["passed"]]

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "passed": self.passed,
            "checks": self.checks,
            "aggregates": self.aggregates,
            "fits": self.fits,
            "series": self.series,
            "notes": self.notes,
            "rows": self.rows,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not json-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# shared numerics helpers


def fit_loglog(xs, ys) -> dict:
    """Least-squares slope of log|y| against log x, with its standard error."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    if np.any(ys <= 0.0):
        return {"slope": float("nan"), "intercept": float("nan"),
                "stderr": float("inf"), "points": len(xs)}
    lx, ly = np.log(xs), np.log(ys)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(a, ly, rcond=None)
    dof = max(len(xs) - 2, 1)
    resid = ly - a @ coef
    s2 = float(resid @ resid) / dof
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = float(np.sqrt(s2 / sxx)) if sxx > 0 else float("inf")
    return {"slope": float(coef[0]), "intercept": float(coef[1]),
            "stderr": stderr, "points": len(xs)}


def centered_absolute_box(length: int, dim: int = 1) -> IntBox:
    """Integer box of the given side length centered at the absolute origin."""
    lo = -(length // 2)
    return IntBox((lo,) * dim, (lo + length - 1,) * dim)


def centered_rect_box(side: int, width: int) -> IntBox:
    """2D integer box of side x width sites centered at the absolute origin."""
    lo0 = -(side // 2)
    lo1 = -(width // 2)
    return IntBox((lo0, lo1), (lo0 + side - 1, lo1 + width - 1))


def center_origin(grid) -> tuple:
    return tuple(e // 2 for e in grid.extents)


def absolute_site_window(grid) -> IntBox:
    """All grid sites as an absolute window (origin at the grid center)."""
    half = center_origin(grid)
    return IntBox(tuple(-c for c in half),
                  tuple(e - 1 - c for e, c in zip(grid.extents, half)))


def ambient_for(box: IntBox, margin: int, spacing: float) -> tuple:
    """(grid, origin) embedding an absolute box with the given margin."""
    extents = tuple(e + 2 * margin for e in box.extents)
    origin = tuple(margin - lo for lo in box.lo)
    return build_grid(box.dim, spacing, extents), origin


def gershgorin_window_check(energies, v_values: np.ndarray, dim: int, spacing: float):
    """Validation rule: requested energies must stay below the upper spectral
    edge max V + 4 nu / h^2.  The discrete proxy truncates the spectrum there,
    so claims above that edge would not reflect the continuum; below the
    spectrum the counting is trivially exact and nothing needs guarding."""
    if len(energies) == 0:
        return
    hi = float(np.max(v_values)) + 4.0 * dim / spacing ** 2
    bad = [e for e in energies if e > hi]
    if bad:
        raise ExperimentError(
            f"energies {bad} above the discrete spectral edge {hi}")


def mean_and_var(values) -> tuple:
    v = np.asarray(values, dtype=float)
    if v.size <= 1:
        return float(v.mean()) if v.size else 0.0, 0.0
    return float(v.mean()), float(v.var(ddof=1))
