import dataclasses

import numpy as np
import pytest

from ssflab import spectral
from ssflab.experiments import (
    ExperimentConfig, ExperimentError, run_brownian, run_bulk_limit,
    run_cluster, run_cutoff_equivalence, run_kirsch_demo, run_locality,
    run_resolvent_power, run_subadditive, run_surface,
)
from ssflab.model import IntBox, SingleSiteProfile, SiteBox, \
    assemble_hamiltonian, assemble_potential, build_grid, free_hamiltonian
from ssflab.randomfield import DistributionSpec, constant_couplings, sample_couplings

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


def test_bulk_requires_negative_energies():
    with pytest.raises(ExperimentError):
        run_bulk_limit(bulk_config(energies=(0.5,)))


def test_energy_window_guards_upper_edge():
    # kirsch probes lam > 0; the discrete spectral edge max V + 4 nu/h^2 caps it
    cfg = ExperimentConfig(
        experiment="kirsch", seed=1, dimension=2, dense_limit=400,
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
                dense_limit=1200, distribution=BERNOULLI, profile=WELL,
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
    rec = run_locality(locality_config(schedule=(6, 12, 24), dense_limit=1600))
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
    lam1 = SiteBox(g, (2, 2), (7, 13))
    lam2 = SiteBox(g, (8, 2), (13, 13))
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
        dense_limit=1600, distribution=BERNOULLI, profile=WELL,
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
        dense_limit=1600,
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
        dense_limit=2000, distribution=constant_couplings(0.0), profile=WELL,
        schedule=(8, 16), options={"margin": 5, "t": 1.0})
    rec = run_subadditive(cfg)
    assert rec.aggregates["calibrated_C"] == 0.0
    assert rec.passed


def test_subadditive_small_run_inequalities():
    cfg = ExperimentConfig(
        experiment="subadditive", seed=13, realizations=2, dimension=2,
        dense_limit=2600, distribution=BERNOULLI, profile=WELL,
        schedule=(8, 16, 32), options={"margin": 5, "t": 1.0})
    rec = run_subadditive(cfg)
    assert rec.passed, rec.hard_failures
    assert rec.aggregates["calibrated_C"] > 0.0


# -- surface ----------------------------------------------------------------------

def surface_config(**kw):
    base = dict(experiment="surface", seed=5, realizations=2, dimension=2,
                dense_limit=4000,
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


def test_surface_transverse_requirement():
    with pytest.raises(ExperimentError):
        run_surface(surface_config(options={"transverse": 5, "margin": 12}))


# -- kirsch ------------------------------------------------------------------------

def kirsch_config(**kw):
    base = dict(experiment="kirsch", seed=1, dimension=2, dense_limit=1200,
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
    g = build_grid(2, 1.0, (6, 6))
    h = free_hamiltonian(g).to_dense()
    from ssflab.experiments.resolvent import _resolvent_power
    full = _resolvent_power(h, 2.0, 2)
    again = _resolvent_power(h, 2.0, 2)
    assert np.array_equal(full, again)
    assert spectral.trace_norm(full - again) == 0.0


def test_resolvent_small_run():
    cfg = ExperimentConfig(
        experiment="resolvent", seed=17, realizations=2, dimension=2,
        dense_limit=1600, distribution=BERNOULLI,
        profile={"kind": "point", "amplitude": -0.4},
        schedule=(8, 16), options={"box_side": 8, "margin": 6,
                                   "e_values": (1.0, 2.0, 4.0), "e_main": 2.0})
    rec = run_resolvent_power(cfg)
    ns = rec.aggregates["norm_vs_E"]
    assert ns["1.0"] > ns["2.0"] > ns["4.0"]


def test_resolvent_condition_check():
    cfg = ExperimentConfig(
        experiment="resolvent", seed=17, realizations=1, dimension=2,
        dense_limit=1600, distribution=BERNOULLI,
        profile={"kind": "point", "amplitude": -3.0},
        schedule=(8, 16), options={"box_side": 8, "margin": 6,
                                   "e_values": (2.0,), "e_main": 2.0})
    with pytest.raises(ExperimentError):
        run_resolvent_power(cfg)


# -- brownian -------------------------------------------------------------------------

def test_brownian_small_sweep():
    cfg = ExperimentConfig(
        experiment="brownian", seed=2,
        times=(0.25, 1.0),
        options={"paths": 8000, "distances": (1.0, 2.0), "nus": (1, 2),
                 "bridge": True})
    rec = run_brownian(cfg)
    assert rec.passed, rec.hard_failures
    assert all(r["p_hat"] + 3 * r["stderr"] <= r["bound"] for r in rec.rows)


# -- cross-cutting ---------------------------------------------------------------------

def test_schedule_must_increase():
    with pytest.raises(ExperimentError):
        bulk_config(schedule=(64, 64))
