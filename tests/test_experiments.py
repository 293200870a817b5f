import dataclasses

import numpy as np
import pytest

from ssflab import brownian as br, spectral
from ssflab.experiments import (
    ExperimentConfig, ExperimentError, run_brownian, run_bulk_limit,
    run_cluster, run_cutoff_equivalence, run_kirsch_demo, run_locality,
    run_resolvent_power, run_subadditive, run_surface,
)
from ssflab.experiments import bulk, surface
from ssflab.experiments.base import ambient_for
from ssflab.model import IntBox, SingleSiteProfile, \
    assemble_hamiltonian, assemble_potential, build_grid, free_hamiltonian
from ssflab.randomfield import DistributionSpec, constant_couplings, sample_couplings
from test_brownian import _discrete_box_monitoring

BERNOULLI = DistributionSpec("bernoulli", p=0.5, values=(0.0, 1.0))
WELL = {"kind": "point", "amplitude": -1.0}


def bulk_config(**kw):
    base = dict(experiment="bulk-limit", seed=11, realizations=6, dimension=1,
                distribution=BERNOULLI, profile=WELL,
                schedule=(64, 128, 256), energies=(-0.5,))
    base.update(kw)
    return ExperimentConfig(**base)


# -- bulk limit -----------------------------------------------------------------

def test_bulk_free_case_zero_deviation():
    cfg = bulk_config(distribution=constant_couplings(0.0), realizations=1)
    rec = run_bulk_limit(cfg)
    assert rec.aggregates["reference_N[-0.5]"] == 0.0
    assert all(r["xi"] == 0 for r in rec.rows)


def test_bulk_crystal_deviation_shrinks():
    cfg = bulk_config(distribution=constant_couplings(1.0), realizations=1,
                      schedule=(64, 128, 512))
    rec = run_bulk_limit(cfg)
    devs = dict(rec.series["deviation_vs_L"])
    assert devs[512] <= devs[64]


def test_bulk_random_small_passes():
    rec = run_bulk_limit(bulk_config(realizations=10))
    assert rec.passed, rec.hard_failures


def test_bulk_ambient_doubling_shift_fails_its_check(monkeypatch):
    # planted defect: the doubled ambient box counts one more eigenvalue per
    # unit of cut measure, a shift of 1 against the 0.02 tolerance; the run
    # records the failed hard check instead of raising
    cfg = bulk_config(realizations=2, schedule=(32, 64))
    real = bulk._xi_per_meas

    def doubled_counts_more(config, grid, *args):
        xi, meas = real(config, grid, *args)
        return (xi + meas if grid.extents[0] > 4 * 64 else xi), meas

    monkeypatch.setattr(bulk, "_xi_per_meas", doubled_counts_more)
    rec = run_bulk_limit(cfg)
    assert rec.aggregates["ambient_doubling_shift"] == 1.0
    assert rec.hard_failures == ["ambient_adequate"]


def test_bulk_requires_negative_energies():
    with pytest.raises(ExperimentError):
        run_bulk_limit(bulk_config(energies=(0.5,)))


def test_energy_window_guards_upper_edge():
    # kirsch probes lam > 0; the discrete spectral edge max V + 4 nu/h^2 caps it
    cfg = ExperimentConfig(
        experiment="kirsch", seed=1, dimension=2,
        profile={"kind": "kirsch_patch", "amplitude": 8.0},
        schedule=(8, 12), energies=(50.0,), times=(1.0,))
    with pytest.raises(ExperimentError):
        run_kirsch_demo(cfg)


def test_bulk_bitwise_reproducible():
    cfg = bulk_config(realizations=4, schedule=(32, 64))
    a = run_bulk_limit(cfg).to_json()
    b = run_bulk_limit(cfg).to_json()
    assert a == b


def test_bulk_reproducible_across_workers():
    cfg = bulk_config(realizations=4, schedule=(32, 64))
    serial = run_bulk_limit(cfg).to_json()
    threaded = run_bulk_limit(dataclasses.replace(cfg, workers=4)).to_json()
    assert serial == threaded


# -- locality -------------------------------------------------------------------

def locality_config(**kw):
    base = dict(experiment="locality", seed=7, realizations=1, dimension=2,
                distribution=BERNOULLI, profile=WELL,
                schedule=(6, 12), options={"margin": 6})
    base.update(kw)
    return ExperimentConfig(**base)


def test_locality_zero_potential_traces_vanish():
    rec = run_locality(locality_config(distribution=constant_couplings(0.0)))
    assert all(r["trace_inside"] == 0.0 and r["trace_outside"] == 0.0
               for r in rec.rows)


def test_locality_bump_below_spectrum_vanishes():
    rec = run_locality(locality_config(
        options={"margin": 6, "bump_lo": -9.0, "bump_hi": -5.0}))
    assert all(abs(r["trace_inside"]) < 1e-13 and abs(r["trace_outside"]) < 1e-13
               for r in rec.rows)


def test_locality_small_run_traces_decay():
    rec = run_locality(locality_config(schedule=(6, 12, 24)))
    m = dict(rec.series["inside_vs_L"])
    assert m[24] < m[6]


def test_locality_requires_2d():
    with pytest.raises(ExperimentError):
        run_locality(locality_config(dimension=1))


# -- cutoff ---------------------------------------------------------------------

def test_cutoff_compact_profile_degenerate():
    cfg = ExperimentConfig(
        experiment="cutoff", seed=3, dimension=1,
        distribution=constant_couplings(1.0), profile=WELL,
        schedule=(16, 32), options={"margin": 8})
    rec = run_cutoff_equivalence(cfg)
    assert rec.passed
    assert any("degenerate" in n for n in rec.notes)
    assert all(r["norm_diff"] == 0.0 for r in rec.rows)


@pytest.mark.parametrize("dimension", [1, 2])
def test_cutoff_compact_identity_odd_box_in_even_grid(dimension):
    # the sharp box and the lattice-sum box are one box: an odd length inside
    # the even ambient grid of the largest length must not shift one of them
    cfg = ExperimentConfig(
        experiment="cutoff", seed=3, realizations=2, dimension=dimension,
        distribution=BERNOULLI, profile=WELL,
        schedule=(7, 16), options={"margin": 4})
    rec = run_cutoff_equivalence(cfg)
    assert rec.passed, rec.hard_failures
    assert all(r["norm_diff"] == 0.0 for r in rec.rows)


def test_cutoff_tailed_decreasing_and_decay_monotone():
    cfg = ExperimentConfig(
        experiment="cutoff", seed=3, dimension=1,
        distribution=constant_couplings(1.0),
        profile={"kind": "exponential", "amplitude": -1.0, "decay": 2.0},
        schedule=(32, 64, 128), options={"margin": 20, "bump_lo": -2.5,
                                         "bump_hi": 1.0})
    rec = run_cutoff_equivalence(cfg)
    assert rec.passed, rec.hard_failures
    vals = [v for _, v in rec.series["normdiff_vs_L"]]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    cmp = rec.aggregates["decay_comparison"]
    assert cmp["1.0"] > cmp["2.0"] > cmp["4.0"]


# -- cluster --------------------------------------------------------------------

def test_cluster_degenerate_split_exactly_zero():
    # V supported entirely in Lambda_1: the four-term combination collapses
    g = build_grid(2, 1.0, (16, 16))
    field = sample_couplings(BERNOULLI, IntBox((0, 0), (15, 15)), 2)
    prof = SingleSiteProfile.point(-1.0, 2)
    lam1 = IntBox((2, 2), (7, 13))
    lam2 = IntBox((8, 2), (13, 13))
    pot1 = assemble_potential(g, prof, field, "sharp", lam1)
    h0 = free_hamiltonian(g)
    hv = assemble_hamiltonian(g, pot1)          # chi_1 V = V, chi_2 V = 0
    t = 1.0
    comb = (spectral.heat_semigroup(hv, t) - spectral.heat_semigroup(hv, t)
            - spectral.heat_semigroup(h0, t) + spectral.heat_semigroup(h0, t))
    assert np.all(comb == 0.0)


def test_cluster_small_run():
    cfg = ExperimentConfig(
        experiment="cluster", seed=21, realizations=4, dimension=2,
        distribution=BERNOULLI, profile=WELL,
        schedule=(8, 16), times=(1.0, 4.0, 16.0),
        options={"box_side": 8, "margin": 6, "t": 2.0,
                 "additivity_sites": 200, "additivity_block": 32,
                 "additivity_gap": 24})
    rec = run_cluster(cfg)
    assert rec.aggregates["additivity_defect"] <= 1
    assert any(c["name"] == "interface_slope" for c in rec.checks)
    # V <= 0 here, so the t-decay check must be skipped, not asserted
    assert not any(c["name"] == "norm_decay_in_t" for c in rec.checks)


def test_cluster_t_decay_with_nonnegative_potential():
    # the four-term norm builds like sqrt(t) before the finite-box spectral
    # gap takes over, so the decay to zero only shows beyond the buildup peak
    cfg = ExperimentConfig(
        experiment="cluster", seed=4, realizations=1, dimension=2,
        distribution=DistributionSpec("bernoulli", p=0.5, values=(0.0, 1.0)),
        profile={"kind": "point", "amplitude": 1.0},
        schedule=(8, 16), times=(4.0, 16.0, 64.0, 256.0),
        options={"box_side": 8, "margin": 6, "t": 2.0,
                 "additivity_sites": 160, "additivity_block": 24,
                 "additivity_gap": 24})
    rec = run_cluster(cfg)
    decay = [c for c in rec.checks if c["name"] == "norm_decay_in_t"]
    assert decay  # recorded with its raw numbers either way
    norms = rec.aggregates["norm_vs_t"]
    assert norms["256.0"] < norms["16.0"]
    assert norms["256.0"] < 1e-3  # the combination really collapses


# -- subadditive ------------------------------------------------------------------

def test_subadditive_zero_potential():
    cfg = ExperimentConfig(
        experiment="subadditive", seed=13, realizations=1, dimension=2,
        distribution=constant_couplings(0.0), profile=WELL,
        schedule=(8, 16), options={"margin": 5, "t": 1.0})
    rec = run_subadditive(cfg)
    assert rec.aggregates["calibrated_C"] == 0.0
    assert rec.passed


def test_subadditive_small_run_inequalities():
    cfg = ExperimentConfig(
        experiment="subadditive", seed=13, realizations=2, dimension=2,
        distribution=BERNOULLI, profile=WELL,
        schedule=(8, 16, 32), options={"margin": 5, "t": 1.0})
    rec = run_subadditive(cfg)
    assert rec.passed, rec.hard_failures
    assert rec.aggregates["calibrated_C"] > 0.0


# -- surface ----------------------------------------------------------------------

def surface_config(**kw):
    base = dict(experiment="surface", seed=5, realizations=2, dimension=2,
                distribution=DistributionSpec("bernoulli", p=0.5,
                                              values=(-6.0, 6.0)),
                profile={"kind": "point", "amplitude": 1.0},
                schedule=(32, 64), energies=(-2.5, -0.5), times=(1.0,),
                options={"transverse": 11, "margin": 12})
    base.update(kw)
    return ExperimentConfig(**base)


def test_surface_chain_rule_and_convergence():
    rec = run_surface(surface_config())
    assert rec.passed, rec.hard_failures
    assert any(c["name"] == "chain_rule_exact" and c["passed"] for c in rec.checks)


def test_surface_nonnegative_couplings_no_bound_states():
    cfg = surface_config(
        distribution=DistributionSpec("bernoulli", p=0.5, values=(0.0, 4.0)),
        options={"transverse": 11, "margin": 12, "check_transverse": False})
    rec = run_surface(cfg)
    assert all(r["xi"] == 0 for r in rec.rows if "xi" in r)  # V >= 0, lam < 0


@pytest.mark.parametrize("root2", [True, False])
def test_surface_sum_rules_fail_only_without_the_root2(root2, monkeypatch):
    # planted defect: the even mirror sector loses the sqrt(2) on its bond
    # between the line and the next row; Sum lam^2 then misses about 2 per
    # slice, a relative residual near 8e-3 against the 1e-10 tolerance
    if not root2:
        real = spectral.grid_band
        monkeypatch.setattr(spectral, "grid_band", lambda d, c, root2=False: real(d, c))
    cfg = surface_config(realizations=1, schedule=(32,), options={
        "transverse": 11, "margin": 12, "check_transverse": False})
    rec = run_surface(cfg)
    assert ("spectrum_sum_rules" in rec.hard_failures) == (not root2)
    assert (rec.aggregates["sum_rule_residual"] <= 1e-13) == root2


def test_surface_transverse_doubling_shift_fails_its_check(monkeypatch):
    # planted defect: the doubled strip counts one more state per site of the
    # line, a relative shift far above the 0.05 tolerance; the run records
    # the failed hard check instead of raising
    cfg = surface_config(realizations=1, schedule=(32,))
    real = surface._shifts

    def doubled_counts_more(config, strip, reals):
        xi, *rest = real(config, strip, reals)
        return (xi + 32 if strip[0].extents[1] > 11 else xi, *rest)

    monkeypatch.setattr(surface, "_shifts", doubled_counts_more)
    rec = run_surface(cfg)
    assert rec.aggregates["transverse_doubling_shift"] == 1.0
    assert rec.hard_failures == ["transverse_adequate"]


def test_surface_transverse_requirement():
    with pytest.raises(ExperimentError):
        run_surface(surface_config(options={"transverse": 5, "margin": 12}))


# -- kirsch ------------------------------------------------------------------------

def kirsch_config(**kw):
    base = dict(experiment="kirsch", seed=1, dimension=2,
                profile={"kind": "kirsch_patch", "amplitude": 8.0},
                schedule=(8, 16, 32),
                energies=tuple(np.arange(0.25, 6.01, 0.25) + 0.013),
                times=(0.5, 1.0, 2.0))
    base.update(kw)
    return ExperimentConfig(**base)


def test_kirsch_zero_bump():
    rec = run_kirsch_demo(kirsch_config(profile={"kind": "kirsch_patch",
                                                 "amplitude": 0.0}))
    assert all(r["phi"] == 0 for r in rec.rows if "phi" in r)
    assert all(abs(r["psi_trace"]) == 0.0 for r in rec.rows if "psi_trace" in r)


def test_kirsch_small_run():
    rec = run_kirsch_demo(kirsch_config())
    assert rec.passed, rec.hard_failures
    growth = [c for c in rec.checks if c["name"] == "phi_growth"]
    assert growth[0]["kind"] == "soft"


def test_kirsch_rejects_negative_energies():
    with pytest.raises(ExperimentError):
        run_kirsch_demo(kirsch_config(energies=(-1.0, 1.0)))


# -- resolvent ----------------------------------------------------------------------

def test_resolvent_full_box_difference_zero():
    h = free_hamiltonian(build_grid(2, 1.0, (6, 6))).to_dense()
    pair = spectral.eig_all(h, need_vectors=True)
    for m in (1, 2, 3):
        g = spectral.ResolventPower(2.0, m)
        full = spectral.matrix_function(h, g)
        again = spectral.matrix_function(pair, g)
        assert np.array_equal(full, again)
        assert spectral.trace_norm(full - again) == 0.0
        direct = np.linalg.matrix_power(np.linalg.inv(h + 2.0 * np.eye(h.shape[0])), m)
        assert np.max(np.abs(full - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_resolvent_small_run():
    cfg = ExperimentConfig(
        experiment="resolvent", seed=17, realizations=2, dimension=2,
        distribution=BERNOULLI,
        profile={"kind": "point", "amplitude": -0.4},
        schedule=(8, 16), options={"box_side": 8, "margin": 6,
                                   "e_values": (1.0, 2.0, 4.0), "e_main": 2.0})
    rec = run_resolvent_power(cfg)
    ns = rec.aggregates["norm_vs_E"]
    assert ns["1.0"] > ns["2.0"] > ns["4.0"]


def test_resolvent_condition_check():
    cfg = ExperimentConfig(
        experiment="resolvent", seed=17, realizations=1, dimension=2,
        distribution=BERNOULLI,
        profile={"kind": "point", "amplitude": -3.0},
        schedule=(8, 16), options={"box_side": 8, "margin": 6,
                                   "e_values": (2.0,), "e_main": 2.0})
    with pytest.raises(ExperimentError):
        run_resolvent_power(cfg)


# -- brownian -------------------------------------------------------------------------

BROWNIAN_SMALL = ExperimentConfig(
    experiment="brownian", seed=2,
    times=(0.25, 1.0),
    options={"paths": 8000, "distances": (1.0, 2.0), "nus": (1, 2),
             "bridge": True})


def test_brownian_small_sweep():
    rec = run_brownian(BROWNIAN_SMALL)
    assert rec.passed, rec.hard_failures
    assert all(r["p_hat"] + 3 * r["stderr"] <= r["bound"] for r in rec.rows)


def test_brownian_reproducible_across_workers():
    serial = run_brownian(BROWNIAN_SMALL).to_json()
    threaded = run_brownian(dataclasses.replace(BROWNIAN_SMALL, workers=2)).to_json()
    assert serial == threaded


def _hitting_rows(rec, nu):
    return [(r["d"], r["t"], r["p_hat"], r["stderr"]) for r in rec.rows if r["nu"] == nu]


def test_brownian_one_hitting_simulation_serves_every_nu(monkeypatch):
    # a half-space estimate reads only its distance: one call gives each nu's
    # estimates, and nu sets only the envelope
    calls = []
    real = br.simulate_hitting
    monkeypatch.setattr(br, "simulate_hitting",
                        lambda *a, **kw: calls.append((a, kw)) or real(*a, **kw))
    rec = run_brownian(BROWNIAN_SMALL)
    # paths goes by keyword, where perfbench's tracer reads it
    assert calls == [(((1.0, 2.0), (0.25, 1.0)), {"paths": 8000, "bridge": True, "seed": 2})]
    assert _hitting_rows(rec, 2) == _hitting_rows(rec, 1)
    alone = run_brownian(dataclasses.replace(
        BROWNIAN_SMALL, options={**BROWNIAN_SMALL.options, "nus": (2,)}))
    assert _hitting_rows(alone, 2) == _hitting_rows(rec, 2)
    assert [r["bound"] for r in alone.rows] == [r["bound"] for r in rec.rows if r["nu"] == 2]


@pytest.mark.parametrize("bridge", [False, True])
def test_brownian_exact_law_check_fails_only_without_the_bridge(bridge):
    # planted defect: endpoint detection misses crossings between steps, so at
    # (d, t) = (0.5, 1) p_hat falls about 0.08 below erfc(1/4) = 0.7237,
    # against a 3-sigma band of about 0.008 at 32,768 paths
    cfg = dataclasses.replace(BROWNIAN_SMALL, times=(1.0,), options={
        "paths": 32768, "distances": (0.5,), "nus": (1,), "bridge": bridge})
    failed = "halfspace_exact_1d" in run_brownian(cfg).hard_failures
    assert failed == (not bridge)


@pytest.mark.parametrize("discrete", [False, True])
def test_brownian_exit_check_fails_under_discrete_box_monitoring(discrete, monkeypatch):
    # planted defect: a path leaves the box only when a grid point lies outside
    # it, so p_exit from the centre falls far below 1 - P_1 P_2 = 0.8625
    if discrete:
        monkeypatch.setattr(br, "_stay_in_box", _discrete_box_monitoring)
    failed = "joint_exit_exact" in run_brownian(BROWNIAN_SMALL).hard_failures
    assert failed == discrete


# -- cross-cutting ---------------------------------------------------------------------

def test_schedule_must_increase():
    with pytest.raises(ExperimentError):
        bulk_config(schedule=(64, 64))


@pytest.mark.parametrize("extents", [(7,), (8,), (8, 5), (5, 16), (3, 4, 6)])
@pytest.mark.parametrize("margin", [0, 3, 4])
def test_ambient_box_geometry(extents, margin):
    box = IntBox.centered(extents)
    # the box as the campaigns used to build it inline
    assert box == IntBox(tuple(-(e // 2) for e in extents),
                         tuple(e - e // 2 - 1 for e in extents))
    grid = ambient_for(box, margin, 1.0)
    # the grid covers the box padded by the margin, in the box's coordinates
    assert grid.box == box.padded(margin)
    assert grid.extents == tuple(e + 2 * margin for e in extents)
    assert grid.lo == tuple(-(e // 2) - margin for e in extents)
    # the box starts margin sites in from the grid's first corner
    first = np.unravel_index(grid.indices(box)[0], grid.extents)
    assert tuple(int(c) for c in first) == (margin,) * len(extents)
    # the grid's own box lists every site in row-major order
    assert np.array_equal(grid.indices(grid.box), np.arange(grid.n_sites))
