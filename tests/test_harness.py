import hashlib
import json

import pytest

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


def test_plot_series_two_columns(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_BULK)
    out = tmp_path / "out"
    main(["bulk-limit", str(cfg), "--out", str(out)])
    dat = (out / "bulk-limit" / "plot_deviation_vs_L.dat").read_text()
    rows = [ln.split() for ln in dat.splitlines() if not ln.startswith("#")]
    assert all(len(r) == 2 for r in rows)
    assert [float(r[0]) for r in rows] == [32.0, 64.0]
