"""Key-value config grammar: parsing and digests.

Format: one ``key = value`` per line, ``#`` comments, dotted keys for nested
sections.  Lists are comma separated.  The parser checks the grammar (lines,
duplicate and unknown keys, value kinds, required keys, the distribution);
``ExperimentConfig`` checks the values.  Every violation of either is
reported with its key path, rather than stopping at the first problem.
"""

from __future__ import annotations

import hashlib

from ..experiments.base import CAMPAIGNS, ConfigError, ExperimentConfig, value_kind
from ..randomfield import DistributionSpec, FieldError

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

# the keys whose ExperimentConfig field has another name
_FIELDS = {"grid.dimension": "dimension", "grid.spacing": "spacing"}


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


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the config grammar and build the ExperimentConfig, which checks
    the values; raises ConfigError listing every violation of either, not
    just the first.  ``overrides`` (key -> value, None skipped) replace parsed
    values before validation, so command-line overrides pass the same checks
    as the config keys."""
    violations: list = []
    raw = _parse_lines(text, violations)

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    experiment = overrides.get("experiment", raw.get("experiment"))
    if experiment is None:
        violations.append("experiment: missing")
    keys = CAMPAIGNS.get(experiment)
    schema = _schema(experiment)

    vals = {}
    for key, rawval in raw.items():
        if key not in schema:
            violations.append(f"{key}: unknown key" + (f" for {experiment}" if keys else ""))
            continue
        try:
            vals[key] = _coerce(schema[key], rawval)
        except ValueError as exc:
            violations.append(f"{key}: {exc}")
    vals.update(overrides)

    missing = [req for req in (keys.required if keys else ()) if req not in vals]
    violations += [f"{req}: required for {experiment}" for req in missing]
    distribution = _build_distribution(vals, violations)

    fields = {"profile": {}, "tolerances": dict(keys.tolerances) if keys else {}, "options": {}}
    for key, value in vals.items():
        section, _, name = key.partition(".")
        if section in ("profile", "tolerances", "options"):
            fields[section][name] = value
        elif section != "distribution":
            fields[_FIELDS.get(key, key)] = value
    config = None
    if experiment is not None:
        try:
            config = ExperimentConfig(distribution=distribution, **fields)
        except ConfigError as exc:
            # a missing key is reported once, not again as the default's violation
            violations += [v for v in exc.violations if v.split(":")[0] not in missing]
    if violations:
        raise ConfigError(violations)
    return config


def config_digest(text: str) -> str:
    """Content hash of the literal config text."""
    return hashlib.sha256(text.encode()).hexdigest()
