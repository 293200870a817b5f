"""Tests of the benchmark itself: spec consistency, config generation and
tracer coverage of every layer on the workload meant to exercise it.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

from ssflab.harness import cli  # noqa: E402
from ssflab.harness.config import parse_config  # noqa: E402

# span keys each workload must call at least once (1 worker)
EXPECTED = {
    "spectral": ("spectral.count_below.h1d", "spectral.count_below.hnd",
                 "spectral.eig_all.values.banded",
                 "spectral.eig_all.values.tridiag",
                 "spectral.eig_all.values.free",
                 "spectral.eig_all.vectors.dense",
                 "spectral.heat_semigroup", "spectral.trace_norm",
                 "ssf.ssf_counting", "model.assemble_potential",
                 "model.assemble_hamiltonian", "model.dirichlet_restriction",
                 "randomfield.sample_couplings", "randomfield.split_signs",
                 "experiments.run_bulk_limit", "experiments.run_surface",
                 "experiments.run_locality", "experiments.run_cluster",
                 "experiments.map_item", "harness.parse_config",
                 "harness.write_all", "harness.parallel_map"),
    "mc-paths": ("brownian.simulate_hitting", "brownian.joint_bound_check",
                 "experiments.run_brownian"),
}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["per_layer"] == tracer.per_layer_spec()
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    names = {m["name"] for m in spec["end_to_end"]}
    assert {"wall_s", "wall_s_w2", "setup_s", "peak_rss_mb"} <= names


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_configs_parse_with_the_seed(name):
    for camp in WORKLOADS[name].campaigns:
        config = parse_config(config_text(ROOT, camp, 12345))
        shipped = parse_config((ROOT / "configs" / camp.config).read_text())
        assert config.seed == (shipped.seed if camp.shipped_seed else 12345)
        assert config.experiment == camp.experiment
        text = config_text(ROOT, camp, 7)
        for key, value in camp.overrides.items():
            if value is None:  # dropped
                assert not any(line.startswith(f"{key} =")
                               for line in text.splitlines())
            else:
                assert f"{key} = {value}" in text.splitlines()


def test_install_rebinds_from_imports_and_uninstall_restores():
    import ssflab.experiments.bulk as bulk
    import ssflab.model as model
    from ssflab.experiments import RUNNERS

    original = model.assemble_potential
    runner = RUNNERS["bulk-limit"]
    t = tracer.Tracer().install()
    try:
        assert bulk.assemble_potential is model.assemble_potential
        assert bulk.assemble_potential is not original
        assert RUNNERS["bulk-limit"] is not runner
    finally:
        t.uninstall()
    assert model.assemble_potential is original
    assert bulk.assemble_potential is original
    assert RUNNERS["bulk-limit"] is runner


def test_self_time_excludes_children_per_thread():
    t = tracer.Tracer()
    outer = t._wrap("experiments.outer", lambda f: f())
    inner = t._wrap("spectral.inner", lambda: sum(range(10000)))
    outer(inner)
    stats = t.stats(wall_s=1.0)
    (_, inner_self, inner_dur, _), (_, outer_self, outer_dur, _) = t.spans
    assert inner_self == inner_dur
    assert outer_self == pytest.approx(outer_dur - inner_dur)
    # the outer span is campaign glue: only the inner span is layer time
    assert stats["layer_s"] == pytest.approx(inner_self)
    assert tracer.coverage(stats) == pytest.approx(inner_self)


def test_worker_threads_keep_their_own_span_stacks():
    from ssflab.harness.parallel import parallel_map

    t = tracer.Tracer()
    inner = t._wrap("spectral.inner", lambda x: sum(range(20000)) + x)
    pmap = t._wrap_parallel_map(parallel_map)
    assert pmap(inner, range(8), 2) == [sum(range(20000)) + x for x in range(8)]
    total: dict = {}  # name -> [self_s, dur] summed
    for name, self_s, dur, _ in t.spans:
        acc = total.setdefault(name, [0.0, 0.0])
        acc[0] += self_s
        acc[1] += dur
    # items run on pool threads, with stacks of their own: the map's span in
    # the main thread has no children, and each item's only child is inner
    map_self, map_wall = total["harness.parallel_map"]
    assert map_self == map_wall
    item_self, item_dur = total["experiments.map_item"]
    assert item_self == pytest.approx(item_dur - total["spectral.inner"][1])
    assert 0.0 < t.busy_s <= t.slot_s == pytest.approx(2 * map_wall, rel=0.05)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_layer_is_called_on_its_workload(name, tmp_path):
    parts = []
    for i, camp in enumerate(WORKLOADS[name].campaigns):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(config_text(ROOT, camp, 0))
        t = tracer.Tracer().install()
        try:
            rc = cli.main([camp.experiment, str(cfg), "--out",
                           str(tmp_path / "out"), "--workers", "1"])
        finally:
            t.uninstall()
        assert rc == 0  # every hard check passes
        parts.append(t.stats(wall_s=1.0))
    layers = tracer.merge_stats(parts)["layers"]
    missing = [key for key in EXPECTED[name]
               if layers.get(key, {}).get("calls", 0) < 1]
    assert not missing


def test_untraced_tracer_wraps_only_the_runners_and_marks_the_first_call():
    import ssflab.model as model
    from ssflab.experiments import RUNNERS

    original = model.assemble_potential
    t = tracer.Tracer(layers=False).install()
    try:
        assert model.assemble_potential is original
        assert t.first_call is None
        with pytest.raises(Exception):
            RUNNERS["bulk-limit"](None)  # fails inside, after the mark
        assert t.first_call is not None
    finally:
        t.uninstall()


def test_eig_all_variant_follows_the_solver_path():
    from ssflab.model import Hamiltonian, build_grid, free_hamiltonian

    strip = free_hamiltonian(build_grid(2, 1.0, (64, 11)))
    loaded = Hamiltonian(strip.grid, strip.diag + 1.0)
    chain = free_hamiltonian(build_grid(1, 1.0, (40,)))
    assert tracer._eig_all((strip,), {}, None) == (
        "values.free", {"max_n": 704})
    assert tracer._eig_all((loaded,), {}, None) == (
        "values.banded", {"max_n": 704, "work_nb2": 704.0 * 11 ** 2})
    assert tracer._eig_all((strip, True), {}, None) == (
        "vectors.dense", {"max_n": 704, "work_n3": 704.0 ** 3})
    assert tracer._eig_all((chain,), {"need_vectors": True}, None) == (
        "vectors.tridiag", {"max_n": 40})
    assert tracer._eig_all((np.eye(3),), {}, None) == (
        "values.tridiag", {"max_n": 3})  # a diagonal matrix is tridiagonal


@pytest.mark.parametrize("timeout", [None, 0.05], ids=["crash", "hang"])
def test_a_crashed_or_hung_campaign_is_a_failed_sample(tmp_path, timeout):
    cfg = tmp_path / "missing.cfg"  # the CLI exits 2 on a missing config
    sample = run.run_campaign(tmp_path, "bulk-limit", cfg, 1, False,
                              timeout or run.CHILD_TIMEOUT_S)
    assert not sample["passed"]
    assert sample["wall_s"] > 0
    assert sample["setup_s"] is None
