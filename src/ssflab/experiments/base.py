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
from typing import NamedTuple

import numpy as np

from ..model import Grid, IntBox, SingleSiteProfile
from ..randomfield import DistributionSpec


class ExperimentError(RuntimeError):
    """A validated precondition failed while running an experiment."""


class ConfigError(ExperimentError, ValueError):
    """Config rejected; ``violations`` lists every offending key path."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


class CampaignKeys(NamedTuple):
    """What one campaign takes: its required keys, its grid dimensions (None:
    no grid), the fewest schedule entries it needs, its tolerance and option
    defaults, and the range rules of its options (name -> (test, rule); the
    test reads every option, defaults filled in).
    The parser copies the tolerance defaults into every parsed config; option
    defaults stay here, read by ``opt``.  Each key's kind is its default's
    ``value_kind``."""

    required: tuple
    dims: tuple | None
    schedule: int
    tolerances: dict
    options: dict
    ranges: dict = {}  # read only


def value_kind(value) -> str:
    """A config value's kind: bool, int, float or str, or for a tuple
    "<kind>_list" when its elements share one kind ("empty_list" when it has
    none, "mixed_list" when they differ).  The parser reads a key's text as
    its default's kind, and a config built in code must give that kind."""
    if isinstance(value, tuple):
        kinds = {value_kind(v) for v in value}
        if len(kinds) != 1:
            return "mixed_list" if kinds else "empty_list"
        return kinds.pop() + "_list"
    return type(value).__name__


def seed_violations(seed: int) -> list:
    """Seeds (config key, ``--seed``, ``selftest``) are unsigned 64-bit."""
    return [] if 0 <= seed < 2 ** 64 else ["seed: must be in [0, 2**64)"]


_MODEL = ("grid.dimension", "distribution.kind", "profile.kind", "schedule")
# a margin pads a box (ambient_for)
_MARGIN = {"margin": (lambda o: o["margin"] >= 0, "must be >= 0")}

# experiment -> its required keys, dimensions, fewest schedule entries,
# tolerance defaults, option defaults and option ranges
CAMPAIGNS = {
    "bulk-limit": CampaignKeys(
        _MODEL + ("energies",), (1, 2), 1,
        {"bulk_deviation": 0.02, "variance_slack": 1.2}, {"ambient_factor": 4},
        {"ambient_factor": (lambda o: o["ambient_factor"] >= 4, "must be >= 4")}),
    "locality": CampaignKeys(
        _MODEL, (2,), 2, {"slope_low": -1.3, "slope_high": -0.7},
        {"margin": 12, "bump_lo": -1.0, "bump_hi": 2.0}, _MARGIN),
    "cutoff": CampaignKeys(
        _MODEL, (1, 2), 2, {}, {"margin": 24, "bump_lo": -2.5, "bump_hi": 1.0,
                                "decay_comparison": (1.0, 2.0, 4.0)}, _MARGIN),
    "cluster": CampaignKeys(
        _MODEL, (2,), 2, {"slope_low": 0.7, "slope_high": 1.3, "additivity": 1.1},
        {"margin": 8, "box_side": 8, "t": 1.0, "additivity_sites": 320,
         "additivity_block": 48, "additivity_gap": 32},
        # two disjoint supports, gap // 2 apart from the middle, on the chain
        {**_MARGIN,
         "additivity_gap": (lambda o: o["additivity_gap"] >= 0, "must be >= 0"),
         "additivity_block": (lambda o: o["additivity_block"] >= 1, "must be >= 1"),
         "additivity_sites": (lambda o: o["additivity_gap"] // 2 + o["additivity_block"]
                              <= o["additivity_sites"] // 2,
                              "must hold both supports: additivity_gap // 2 + "
                              "additivity_block <= additivity_sites // 2")}),
    "subadditive": CampaignKeys(_MODEL, (2,), 2, {}, {"margin": 6, "t": 1.0}, _MARGIN),
    "surface": CampaignKeys(
        _MODEL + ("energies",), (2,), 1,
        {"relative_change": 0.05, "transverse_tol": 0.05, "sum_rule": 1e-10},
        {"margin": 16, "transverse": 11, "check_transverse": True}, _MARGIN),
    "kirsch": CampaignKeys(
        ("grid.dimension", "profile.kind", "schedule", "energies", "times"), (2,), 1,
        {"dual_rel": 1e-8}, {}),
    "resolvent": CampaignKeys(
        _MODEL, (2,), 2, {"slope_low": 0.7, "slope_high": 1.3},
        {"margin": 8, "box_side": 8, "power": 2, "e_values": (1.0, 2.0, 4.0),
         "e_main": 2.0}, _MARGIN),
    "brownian": CampaignKeys(
        (), None, 0, {}, {"distances": (0.5, 1.0, 2.0), "nus": (1, 2),
                          "paths": 100_000, "bridge": True, "joint_t": 0.5},
        {"paths": (lambda o: o["paths"] >= 1000, "must be >= 1000"),
         "nus": (lambda o: all(n >= 1 for n in o["nus"]), "every entry must be >= 1"),
         "distances": (lambda o: all(d > 0.0 for d in o["distances"]),
                       "every entry must be > 0"),
         "joint_t": (lambda o: o["joint_t"] > 0.0, "must be > 0")}),
}

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
        """Check every rule that reads only the config; raise one ConfigError
        listing each violation."""
        object.__setattr__(self, "schedule", tuple(int(v) for v in self.schedule))
        object.__setattr__(self, "energies", tuple(float(v) for v in self.energies))
        object.__setattr__(self, "times", tuple(float(v) for v in self.times))
        keys = CAMPAIGNS.get(self.experiment)
        if keys is None:
            raise ConfigError([f"experiment: unknown experiment {self.experiment!r}"])
        bad = seed_violations(self.seed)
        options = {**keys.options, **self.options}
        for section, declared in (("tolerances", keys.tolerances), ("options", keys.options)):
            for name, value in getattr(self, section).items():
                if name not in declared:
                    bad.append(f"{section}.{name}: unknown key for {self.experiment}")
                elif value_kind(value) != value_kind(declared[name]):
                    bad.append(f"{section}.{name}: expected "
                               f"{value_kind(declared[name])}, got {value!r}")
                    options = None  # the range tests read values of the declared kinds
        if options is not None:
            bad += [f"options.{name}: {rule}" for name, (holds, rule) in keys.ranges.items()
                    if not holds(options)]
        bad += [f"{name}: must be >= 1" for name in ("realizations", "workers")
                if getattr(self, name) < 1]
        if not self.spacing > 0.0:
            bad.append("grid.spacing: must be positive")
        if keys.dims is not None and self.dimension not in keys.dims:
            bad.append(f"grid.dimension: {self.experiment} runs in dimension "
                       + " or ".join(map(str, keys.dims)))
        if len(self.schedule) < keys.schedule:
            bad.append(f"schedule: {self.experiment} needs at least {keys.schedule} entries")
        if any(b <= a for a, b in zip(self.schedule, self.schedule[1:])):
            bad.append("schedule: must be strictly increasing")
        if "energies" in keys.required and not self.energies:
            bad.append(f"energies: {self.experiment} needs at least one energy")
        if not self.times or not all(t > 0.0 for t in self.times):
            bad.append("times: needs at least one time, and every t positive")
        if bad:
            raise ConfigError(bad)

    # a name CAMPAIGNS does not declare for the experiment raises KeyError
    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, CAMPAIGNS[self.experiment].tolerances[name]))

    def opt(self, name: str):
        return self.options.get(name, CAMPAIGNS[self.experiment].options[name])

    @property
    def amplitude(self) -> float:
        return float(self.profile.get("amplitude", -1.0))

    def build_profile(self) -> SingleSiteProfile:
        kind = self.profile.get("kind", "point")
        amp = self.amplitude
        if kind == "point":
            return SingleSiteProfile.point(amp, self.dimension)
        if kind == "exponential":
            decay = float(self.profile.get("decay", 2.0))
            return SingleSiteProfile.exponential(amp, decay, self.dimension,
                                                 self.spacing)
        if kind == "kirsch_patch":
            return SingleSiteProfile.patch(amp * _KIRSCH_PATCH)
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


def ambient_for(box: IntBox, margin: int, spacing: float) -> Grid:
    """Grid over the box padded by the margin, in the box's absolute
    coordinates; ``grid.box`` is the window a coupling field must cover."""
    padded = box.padded(margin)
    return Grid(box.dim, float(spacing), padded.extents, padded.lo)


def halve(box: IntBox) -> tuple:
    """The two halves of the box along axis 0, whose extent must be even."""
    e0 = box.extents[0]
    if e0 % 2:
        raise ExperimentError(f"an odd side {e0} along axis 0 cannot be halved")
    mid = box.lo[0] + e0 // 2
    return IntBox(box.lo, (mid - 1,) + box.hi[1:]), IntBox((mid,) + box.lo[1:], box.hi)


def gershgorin_window_check(energies, v_values: np.ndarray, dim: int, spacing: float):
    """Validation rule: requested energies must stay below the upper spectral
    edge max V + 4 nu / h^2.  The discrete proxy truncates the spectrum there,
    so claims above that edge would not reflect the continuum; below the
    spectrum the counting is trivially exact and nothing needs guarding."""
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
