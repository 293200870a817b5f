import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from ssflab.experiments import RUNNERS
from ssflab.experiments.base import CAMPAIGNS, ExperimentError
from ssflab.harness.cli import main
from ssflab.harness.config import ConfigError, config_digest, parse_config
from ssflab.harness.parallel import parallel_map
from ssflab.harness.selftest import run_selftest

MINIMAL_BULK = """
experiment = bulk-limit
grid.dimension = 1
distribution.kind = bernoulli
distribution.p = 0.5
distribution.values = 0, 1
profile.kind = point
profile.amplitude = -1.0
schedule = 32, 64
energies = -0.5
"""

SMALL_BULK = MINIMAL_BULK + "seed = 11\nrealizations = 4\n"

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# -- parsing ------------------------------------------------------------------

def test_minimal_config_echoes_default_tolerances():
    cfg = parse_config(MINIMAL_BULK)
    assert cfg.experiment == "bulk-limit"
    assert cfg.seed == 0 and cfg.realizations == 1
    assert cfg.tolerances["bulk_deviation"] == 0.02
    assert cfg.tolerances["variance_slack"] == 1.2
    assert cfg.schedule == (32, 64)


def test_negative_spacing_names_key():
    bad = MINIMAL_BULK + "grid.spacing = -1.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any(v.startswith("grid.spacing") for v in err.value.violations)


def test_schedule_violation_named():
    bad = MINIMAL_BULK.replace("schedule = 32, 64", "schedule = 64, 32")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any(v.startswith("schedule") for v in err.value.violations)


def test_unknown_key_is_error():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_BULK + "grid.fancy = 3\n")
    assert any("unknown key" in v for v in err.value.violations)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_BULK + f"seed = {seed}\n")
    assert any(v.startswith("seed") for v in err.value.violations)
    assert parse_config(MINIMAL_BULK + f"seed = {2 ** 64 - 1}\n").seed == 2 ** 64 - 1


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_parses(path):
    assert parse_config(path.read_text()).experiment in RUNNERS


def test_all_violations_reported_not_just_first():
    bad = """
experiment = bulk-limit
grid.dimension = 7
grid.spacing = -2
schedule = 10, 5
realizations = 0
nonsense.key = 1
distribution.kind = bernoulli
distribution.p = 0.5
profile.kind = point
energies = -0.5
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = "\n".join(err.value.violations)
    for frag in ("grid.dimension", "grid.spacing", "schedule",
                 "realizations", "nonsense.key"):
        assert frag in text
    assert len(err.value.violations) >= 5


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_BULK + "seed = 1\nseed = 2\n")
    assert any("duplicate" in v for v in err.value.violations)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_BULK.replace("bulk-limit", "frobnicate"))


def test_digest_roundtrip():
    assert config_digest(MINIMAL_BULK) == hashlib.sha256(
        MINIMAL_BULK.encode()).hexdigest()


# -- the campaign key table ------------------------------------------------------

def _shipped(experiment):
    """The text of the first shipped config of the experiment."""
    return next(t for t in (p.read_text() for p in sorted(CONFIGS.glob("*.cfg")))
                if f"experiment = {experiment}\n" in t)


def _text(value):
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def _declared():
    return [(exp, section, name, default) for exp, keys in CAMPAIGNS.items()
            for section in ("tolerances", "options")
            for name, default in getattr(keys, section).items()]


def test_runners_are_the_declared_campaigns():
    assert set(RUNNERS) == set(CAMPAIGNS)


@pytest.mark.parametrize("exp, section, name, default", _declared(),
                         ids=[f"{e}-{n}" for e, _, n, _ in _declared()])
def test_declared_key_reaches_tol_and_opt(exp, section, name, default):
    if isinstance(default, bool):
        value = not default
    elif isinstance(default, tuple):
        value = default + (default[-1] + 1,)
    else:
        value = default + 1
    key = f"{section}.{name}"
    kept = [line for line in _shipped(exp).splitlines()
            if line.split("=")[0].strip() != key]
    cfg = parse_config("\n".join(kept + [f"{key} = {_text(value)}"]))
    got = cfg.tol(name) if section == "tolerances" else cfg.opt(name)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("exp", sorted(CAMPAIGNS))
def test_another_campaigns_key_is_a_violation(exp):
    own = {(s, n) for e, s, n, _ in _declared() if e == exp}
    foreign = {f"{s}.{n}": d for _, s, n, d in _declared() if (s, n) not in own}
    text = _shipped(exp) + "".join(f"{k} = {_text(d)}\n" for k, d in foreign.items())
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    named = {v.split(":")[0] for v in err.value.violations}
    assert named == set(foreign)


def test_opt_rejects_an_undeclared_name():
    cfg = parse_config(_shipped("surface"))
    assert cfg.opt("transverse") == 11
    with pytest.raises(KeyError):
        cfg.opt("convergence_energy")
    with pytest.raises(ExperimentError, match="options.bridge"):
        dataclasses.replace(cfg, options={"bridge": False})


@pytest.mark.parametrize("fields, key", [
    ({"experiment": "bulk"}, "'bulk'"),
    ({"tolerances": {"dual_rel": 1e-8}}, "tolerances.dual_rel"),
], ids=["experiment", "tolerance"])
def test_config_built_in_code_checks_its_keys(fields, key):
    cfg = parse_config(_shipped("surface"))
    with pytest.raises(ExperimentError, match=key):
        dataclasses.replace(cfg, **fields)
    assert dataclasses.replace(cfg, options={"transverse": 5}).opt("transverse") == 5


@pytest.mark.parametrize("exp, section, name, value", [
    ("brownian", "options", "paths", "16384"),
    ("brownian", "options", "paths", 16384.0),
    ("brownian", "options", "bridge", 1),
    ("brownian", "options", "distances", (1, 2.0)),
    ("brownian", "options", "nus", [1, 2]),
    ("surface", "tolerances", "sum_rule", "1e-10"),
])
def test_config_built_in_code_checks_its_value_kinds(exp, section, name, value):
    cfg = parse_config(_shipped(exp))
    with pytest.raises(ExperimentError, match=f"{section}.{name}: expected"):
        dataclasses.replace(cfg, **{section: {name: value}})
    # every declared default has its key's kind
    for e, sec, key, default in _declared():
        if e == exp:
            dataclasses.replace(cfg, **{sec: {key: default}})


def _set(text, values):
    """The config text with the keys of ``values`` (key -> text) set to them."""
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in values]
    return "\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n"


def test_an_empty_list_option_is_a_violation(tmp_path, capsys):
    # the parser reads "options.nus =" as (), which would check nothing
    text = _set(_shipped("brownian"), {"options.nus": ""})
    with pytest.raises(ConfigError, match=r"options.nus: expected int_list, got \(\)"):
        parse_config(text)
    cfg = parse_config(_shipped("brownian"))
    with pytest.raises(ConfigError, match="options.nus: expected int_list"):
        dataclasses.replace(cfg, options={"nus": ()})
    with pytest.raises(ExperimentError, match="options.paths: expected int"):
        dataclasses.replace(cfg, options={"paths": ()})
    out = tmp_path / "o"
    assert main(["brownian", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
    assert "options.nus" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exp", sorted(CAMPAIGNS))
def test_config_outside_its_campaigns_geometry_is_a_config_error(exp):
    keys, cfg = CAMPAIGNS[exp], parse_config(_shipped(exp))
    for dim in keys.dims or (1, 2, 3):  # brownian takes no grid: any dimension
        assert dataclasses.replace(cfg, dimension=dim).dimension == dim
    for dim in {1, 2, 3} - set(keys.dims or (1, 2, 3)):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, dimension=dim)
        assert [v.split(":")[0] for v in err.value.violations] == ["grid.dimension"]
    if keys.schedule:
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, schedule=cfg.schedule[:keys.schedule - 1])
        assert [v.split(":")[0] for v in err.value.violations] == ["schedule"]
    else:
        assert dataclasses.replace(cfg, schedule=()).schedule == ()


def test_readme_lists_every_declared_option():
    readme = (CONFIGS.parent / "README.md").read_text()
    listing = readme[readme.index("Per-experiment options"):readme.index("## Library layout")]
    bullets = {b.split("`")[1]: b for b in listing.split("\n* ")[1:]}
    for exp, keys in CAMPAIGNS.items():
        for name in keys.options:
            assert f"`{name}`" in bullets[exp], (exp, name)


# -- parallel map ----------------------------------------------------------------

def test_parallel_map_preserves_order():
    items = list(range(37))
    assert parallel_map(lambda x: x * x, items, workers=5) == [x * x for x in items]
    assert parallel_map(lambda x: x * x, items, workers=1) == [x * x for x in items]


# -- CLI --------------------------------------------------------------------------

def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_cli_run_and_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    out = tmp_path / "out"
    assert main(["bulk-limit", str(cfg), "--out", str(out)]) == 0
    d = out / "bulk-limit"
    for name in ("raw.csv", "result.json", "manifest.json", "config.txt", "plot.gp"):
        assert (d / name).exists()
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["summary"]["passed"] is True
    text = (d / "config.txt").read_text()
    assert manifest["config_digest"] == hashlib.sha256(text.encode()).hexdigest()


def test_cli_worker_count_does_not_change_bytes(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["bulk-limit", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["bulk-limit", str(cfg), "--out", str(out8), "--workers", "8"]) == 0
    a = (out1 / "bulk-limit" / "raw.csv").read_bytes()
    b = (out8 / "bulk-limit" / "raw.csv").read_bytes()
    assert a == b
    ra = (out1 / "bulk-limit" / "result.json").read_bytes()
    rb = (out8 / "bulk-limit" / "result.json").read_bytes()
    assert ra == rb


def test_cli_formats_contain_identical_values(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    outc, outj = tmp_path / "csv", tmp_path / "json"
    assert main(["bulk-limit", str(cfg), "--out", str(outc), "--format", "csv"]) == 0
    assert main(["bulk-limit", str(cfg), "--out", str(outj), "--format", "json"]) == 0
    csv_lines = (outc / "bulk-limit" / "raw.csv").read_text().strip().splitlines()
    fields = csv_lines[0].split(",")
    csv_rows = [ln.split(",") for ln in csv_lines[1:]]
    payload = json.loads((outj / "bulk-limit" / "raw.json").read_text())
    assert payload["fields"] == fields
    assert payload["rows"] == csv_rows


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL_BULK + "grid.spacing = -1\n")
    assert main(["bulk-limit", str(cfg), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nothere.cfg"
    assert main(["bulk-limit", str(missing), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("override", [("--seed", "-1"), ("--seed", str(2 ** 64)),
                                      ("--workers", "0")],
                         ids=["seed-negative", "seed-2^64", "workers-0"])
def test_cli_overrides_checked_like_config_keys(override, tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    assert main(["bulk-limit", str(cfg), "--out", str(tmp_path / "o"), *override]) == 2
    assert override[0].lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_reports_every_value_violation_exit_2(tmp_path, capsys):
    # three rules of ExperimentConfig, none of the grammar
    bad = {"realizations": "0", "grid.dimension": "1", "schedule": "8"}
    cfg = write_cfg(tmp_path, _set(_shipped("locality"), bad))
    out = tmp_path / "o"
    assert main(["locality", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(f"- {key}:" in err for key in bad), err
    assert not out.exists()


@pytest.mark.parametrize("times", ["", "0.5, 0", "-1"])
@pytest.mark.parametrize("exp", ["kirsch", "brownian", "surface"])
def test_cli_rejects_an_empty_or_nonpositive_time_grid_exit_2(exp, times, tmp_path, capsys):
    # an empty grid would check nothing (surface) or fail at run time (kirsch, brownian)
    cfg = write_cfg(tmp_path, _set(_shipped(exp), {"times": times}))
    out = tmp_path / "o"
    assert main([exp, str(cfg), "--out", str(out)]) == 2
    assert "- times:" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="times: needs at least one time"):
        dataclasses.replace(parse_config(_shipped(exp)), times=())


# the campaigns that pad a box by options.margin; locality's case is the
# run-time failure (box not inside the grid) the rule replaced
_PADDED = ("locality", "cutoff", "cluster", "subadditive", "surface", "resolvent")


@pytest.mark.parametrize("exp, key, text, value", [
    ("brownian", "options.paths", "10", 10),
    ("brownian", "options.nus", "1, 0", (1, 0)),
    ("brownian", "options.distances", "0, 1", (0.0, 1.0)),
    ("brownian", "options.joint_t", "-1", -1.0),
    ("bulk-limit", "options.ambient_factor", "3", 3),
    *((exp, "options.margin", "-3", -3) for exp in _PADDED),
    ("cluster", "options.additivity_gap", "-2", -2),
    ("cluster", "options.additivity_block", "0", 0),
    ("cluster", "options.additivity_sites", "120", 120),
], ids=["paths", "nus", "distances", "joint_t", "ambient_factor",
        *(f"margin-{exp}" for exp in _PADDED),
        "additivity_gap", "additivity_block", "additivity_sites"])
def test_cli_rejects_an_option_out_of_range_exit_2(exp, key, text, value, tmp_path, capsys):
    # each would otherwise fail at run time (exit 1, partial outputs)
    cfg = write_cfg(tmp_path, _set(_shipped(exp), {key: text}))
    out = tmp_path / "o"
    assert main([exp, str(cfg), "--out", str(out)]) == 2
    assert f"- {key}:" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(parse_config(_shipped(exp)), options={key.split(".")[1]: value})


def test_cli_subcommand_mismatch_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    assert main(["locality", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cli_runtime_failure_exit_1_partial_manifest(tmp_path):
    # energies above the spectral edge trip the validation rule at runtime
    bad = """
experiment = kirsch
grid.dimension = 2
profile.kind = kirsch_patch
profile.amplitude = 8.0
schedule = 8, 12
energies = 50.0
times = 1.0
"""
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "o"
    assert main(["kirsch", str(cfg), "--out", str(out)]) == 1
    manifest = json.loads((out / "kirsch" / "manifest.json").read_text())
    assert manifest["partial"] is True
    assert manifest["error"]


def test_cli_seed_override_changes_digested_record(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["bulk-limit", str(cfg), "--out", str(out1), "--seed", "99"])
    rec = json.loads((out1 / "bulk-limit" / "result.json").read_text())
    assert rec["seed"] == 99
    main(["bulk-limit", str(cfg), "--out", str(out2)])
    rec2 = json.loads((out2 / "bulk-limit" / "result.json").read_text())
    assert rec2["seed"] == 11


def test_selftest_healthy_build():
    lines = []
    assert run_selftest(0, out=lines.append) == 0
    assert len(lines) == 11
    assert all(ln.startswith("ok") for ln in lines)


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "2^64"])
def test_selftest_seed_outside_64_bits_exit_2(seed, capsys):
    assert main(["selftest", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and captured.out == ""


def test_plot_series_two_columns(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    out = tmp_path / "out"
    main(["bulk-limit", str(cfg), "--out", str(out)])
    dat = (out / "bulk-limit" / "plot_deviation_vs_L.dat").read_text()
    rows = [ln.split() for ln in dat.splitlines() if not ln.startswith("#")]
    assert all(len(r) == 2 for r in rows)
    assert [float(r[0]) for r in rows] == [32.0, 64.0]


def test_selftest_with_a_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    for argv in (["selftest", str(cfg)], ["selftest", "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "selftest" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["bulk-limit"])
    assert exc.value.code == 2
