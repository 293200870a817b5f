"""Key-value config grammar: parsing, validation, digests.

Format: one ``key = value`` per line, ``#`` comments, dotted keys for nested
sections.  Lists are comma separated.  Validation collects *every* violation
(unknown keys included) and reports them with their key paths, rather than
stopping at the first problem.
"""

from __future__ import annotations

import hashlib

from ..experiments.base import CAMPAIGNS, ExperimentConfig, value_kind
from ..randomfield import DistributionSpec, FieldError


class ConfigError(ValueError):
    """Config rejected; ``violations`` lists every offending key path."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


EXPERIMENTS = tuple(CAMPAIGNS)

# key -> value kind, for the keys every campaign takes
_SCHEMA = {
    "experiment": "str",
    "seed": "int",
    "realizations": "int",
    "workers": "int",
    "grid.dimension": "int",
    "grid.spacing": "float",
    "distribution.kind": "str",
    "distribution.p": "float",
    "distribution.values": "float_list",
    "distribution.weights": "float_list",
    "distribution.low": "float",
    "distribution.high": "float",
    "distribution.value": "float",
    "profile.kind": "str",
    "profile.amplitude": "float",
    "profile.decay": "float",
    "schedule": "int_list",
    "energies": "float_list",
    "times": "float_list",
}


def _schema(experiment) -> dict:
    """Every key the experiment takes, with its kind; for a missing or unknown
    experiment the keys of any campaign, so only keys none takes are reported."""
    schema = dict(_SCHEMA)
    for keys in [CAMPAIGNS[experiment]] if experiment in CAMPAIGNS else CAMPAIGNS.values():
        for section in ("tolerances", "options"):
            schema.update((f"{section}.{name}", value_kind(default))
                          for name, default in getattr(keys, section).items())
    return schema


def _coerce(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind == "int_list":
        return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
    if kind == "float_list":
        return tuple(float(v.strip()) for v in raw.split(",") if v.strip())
    return raw.strip()


def _parse_lines(text: str, violations: list) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            violations.append(f"line {lineno}: expected 'key = value', got {body!r}")
            continue
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            violations.append(f"{key}: duplicate key (line {lineno})")
            continue
        raw[key] = value
    return raw


def _build_distribution(vals: dict, violations: list):
    kind = vals.get("distribution.kind")
    if kind is None:
        return None
    try:
        if kind == "constant":
            return DistributionSpec("discrete",
                                    values=(vals.get("distribution.value", 1.0),),
                                    weights=(1.0,))
        if kind == "bernoulli":
            return DistributionSpec("bernoulli", p=vals.get("distribution.p"),
                                    values=vals.get("distribution.values"))
        if kind == "uniform":
            return DistributionSpec("uniform", low=vals.get("distribution.low"),
                                    high=vals.get("distribution.high"))
        if kind == "discrete":
            return DistributionSpec("discrete", values=vals.get("distribution.values"),
                                    weights=vals.get("distribution.weights"))
        violations.append(f"distribution.kind: unknown kind {kind!r}")
    except FieldError as exc:
        violations.append(f"distribution.*: {exc}")
    return None


def seed_violations(seed: int) -> list:
    """Seeds (config key, ``--seed``, ``selftest``) are unsigned 64-bit."""
    return [] if 0 <= seed < 2 ** 64 else ["seed: must be in [0, 2**64)"]


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate the config grammar; raises ConfigError listing every
    violated constraint, not just the first.  ``overrides`` (key -> value,
    None skipped) replace parsed values before validation, so command-line
    overrides pass the same checks as the config keys."""
    violations: list = []
    raw = _parse_lines(text, violations)

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    experiment = overrides.get("experiment", raw.get("experiment"))
    if experiment is None:
        violations.append("experiment: missing")
    elif experiment not in CAMPAIGNS:
        violations.append(f"experiment: unknown experiment {experiment!r}")
    schema = _schema(experiment)

    vals = {}
    for key, rawval in raw.items():
        if key not in schema:
            violations.append(f"{key}: unknown key" + (
                f" for {experiment}" if experiment in CAMPAIGNS else ""))
            continue
        try:
            vals[key] = _coerce(schema[key], rawval)
        except ValueError as exc:
            violations.append(f"{key}: {exc}")
    vals.update(overrides)

    if experiment in CAMPAIGNS:
        for req in CAMPAIGNS[experiment].required:
            if req not in vals:
                violations.append(f"{req}: required for {experiment}")

    if "grid.spacing" in vals and not vals["grid.spacing"] > 0.0:
        violations.append("grid.spacing: must be positive")
    if "grid.dimension" in vals and vals["grid.dimension"] not in (1, 2, 3):
        violations.append("grid.dimension: must be 1, 2 or 3")
    if "seed" in vals:
        violations += seed_violations(vals["seed"])
    if "realizations" in vals and vals["realizations"] < 1:
        violations.append("realizations: must be >= 1")
    if "workers" in vals and vals["workers"] < 1:
        violations.append("workers: must be >= 1")
    sched = vals.get("schedule", ())
    if sched and any(b <= a for a, b in zip(sched, sched[1:])):
        violations.append("schedule: must be strictly increasing")

    distribution = _build_distribution(vals, violations)

    if violations:
        raise ConfigError(violations)

    tolerances = dict(CAMPAIGNS[experiment].tolerances)
    options = {}
    profile = {}
    for key, value in vals.items():
        section, _, name = key.partition(".")
        if section == "tolerances":
            tolerances[name] = value
        elif section == "options":
            options[name] = value
        elif section == "profile":
            profile[name] = value

    return ExperimentConfig(
        experiment=experiment,
        seed=vals.get("seed", 0),
        realizations=vals.get("realizations", 1),
        workers=vals.get("workers", 1),
        dimension=vals.get("grid.dimension", 1),
        spacing=vals.get("grid.spacing", 1.0),
        distribution=distribution,
        profile=profile,
        schedule=vals.get("schedule", ()),
        energies=vals.get("energies", ()),
        times=vals.get("times", (1.0,)),
        tolerances=tolerances,
        options=options,
    )


def config_digest(text: str) -> str:
    """Content hash of the literal config text."""
    return hashlib.sha256(text.encode()).hexdigest()
