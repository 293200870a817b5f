import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssflab import spectral
from ssflab.model import IntBox, SingleSiteProfile, assemble_hamiltonian, \
    assemble_potential, build_grid, free_hamiltonian
from ssflab.randomfield import DistributionSpec, sample_couplings
from ssflab.spectral import BumpFunction, ExpWeight, ResolventPower
from ssflab.ssf import (
    EnergyGrid, OnSpectrumError, SSFSample,
    birman_krein_residual, invariance_residual, midpoint_energy_grid,
    ssf_counting, trace_difference, xi_integral, xi_step_function,
)


def alloy_pair(n, seed, amplitude=-1.0, low=0.0, high=1.0):
    g = build_grid(1, 1.0, n)
    window = IntBox((0,), (n - 1,))
    field = sample_couplings(DistributionSpec("uniform", low=low, high=high),
                             window, seed)
    pot = assemble_potential(g, SingleSiteProfile.point(amplitude, 1), field)
    return assemble_hamiltonian(g, pot), free_hamiltonian(g)


def off_spectrum_grid(h, h0, lo, hi, k=25):
    spectra = [spectral.eig_all(h)[0], spectral.eig_all(h0)[0]]
    return midpoint_energy_grid(spectra, lo, hi, max_points=k)


# -- grids & samples ------------------------------------------------------------

def test_energy_grid_must_increase():
    with pytest.raises(ValueError):
        EnergyGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        EnergyGrid(np.array([1.0, 0.5]))


def test_midpoint_grid_is_off_spectrum():
    h, h0 = alloy_pair(40, 1)
    grid = off_spectrum_grid(h, h0, -1.5, 5.0)
    assert grid.distances is not None
    assert np.all(grid.distances > 1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       max_points=st.integers(1, 60))
def test_midpoint_grid_distances_match_loop(seed, sizes, max_points):
    # two-decimal spectra repeat values and put points exactly at lo and hi
    rng = np.random.default_rng(seed)
    spectra = [np.round(rng.uniform(-1.5, 2.5, n), 2) for n in sizes]
    grid = midpoint_energy_grid(spectra, -1.0, 2.0, max_points)
    merged = np.sort(np.concatenate(spectra))
    merged = merged[(merged >= -1.0) & (merged <= 2.0)]
    loop = [np.min(np.abs(merged - v)) if merged.size else np.inf for v in grid.values]
    assert np.array_equal(grid.distances, loop)


def test_on_spectrum_grid_rejected():
    h, h0 = alloy_pair(20, 2)
    lam = spectral.eig_all(h)[0][3]
    grid = EnergyGrid(np.array([lam]), np.array([0.0]))
    with pytest.raises(OnSpectrumError):
        ssf_counting(h, h0, grid)


# -- counting definition ----------------------------------------------------------

def test_identical_pair_gives_zero():
    h, h0 = alloy_pair(30, 3)
    grid = off_spectrum_grid(h0, h0, -1.0, 5.0)
    s = ssf_counting(h0, h0, grid)
    assert np.all(s.xi_raw == 0)


def test_rank_one_interlacing():
    g = build_grid(1, 1.0, 40)
    h0 = free_hamiltonian(g)
    bump = np.zeros(40)
    bump[17] = 1.0
    from ssflab.model import PotentialField
    h = assemble_hamiltonian(g, PotentialField(g, 2.5 * bump))
    grid = off_spectrum_grid(h, h0, -0.5, 7.5, k=60)
    s = ssf_counting(h, h0, grid)
    assert np.all((s.xi_raw == 0) | (s.xi_raw == 1))


def test_negative_alloy_shift_nonpositive():
    h, h0 = alloy_pair(200, 5, amplitude=-1.0)   # V <= 0
    grid = off_spectrum_grid(h, h0, -1.5, 4.5, k=80)
    s = ssf_counting(h, h0, grid)
    assert np.all(s.xi_raw <= 0)
    assert abs(s.xi_raw).max() <= 200


def test_positive_potential_monotonicity():
    h, h0 = alloy_pair(120, 6, amplitude=1.0, low=0.0, high=1.0)  # V >= 0
    grid = off_spectrum_grid(h, h0, -0.5, 6.5, k=60)
    s = ssf_counting(h, h0, grid)
    assert np.all(s.xi_raw >= 0)


def test_xi_vanishes_outside_both_spectra():
    h, h0 = alloy_pair(50, 7)
    grid = EnergyGrid(np.array([-50.0, 50.0]))
    s = ssf_counting(h, h0, grid)
    assert np.all(s.xi_raw == 0)


def test_chain_rule_exact():
    g = build_grid(1, 1.0, 80)
    window = IntBox((0,), (79,))
    field = sample_couplings(DistributionSpec("uniform", low=-1, high=1), window, 8)
    from ssflab.randomfield import split_signs
    plus, minus = split_signs(field)
    prof = SingleSiteProfile.point(1.0, 1)
    h0 = free_hamiltonian(g)
    h_full = assemble_hamiltonian(g, assemble_potential(g, prof, field))
    h_minus = assemble_hamiltonian(g, assemble_potential(g, prof, minus))
    spectra = [spectral.eig_all(x)[0] for x in (h0, h_full, h_minus)]
    grid = midpoint_energy_grid(spectra, -1.5, 5.5, max_points=120)
    xi_total = ssf_counting(h_full, h0, grid).xi_raw
    xi_upper = ssf_counting(h_full, h_minus, grid).xi_raw
    xi_lower = ssf_counting(h_minus, h0, grid).xi_raw
    assert np.array_equal(xi_total, xi_upper + xi_lower)


# -- Birman-Krein -----------------------------------------------------------------

def test_bk_residual_identical_pair_zero():
    h, h0 = alloy_pair(30, 9)
    assert birman_krein_residual(h0, h0, BumpFunction(-1.0, 1.0)) == 0.0


def test_bk_residual_alloy_within_contract():
    h, h0 = alloy_pair(100, 10)
    g = BumpFunction(-1.0, 0.5)
    res = birman_krein_residual(h, h0, g)
    assert abs(res) <= 1e-8 * 100 * g.max_abs_derivative()


def test_bk_constant_g_both_sides_zero():
    h, h0 = alloy_pair(40, 11)
    assert birman_krein_residual(h, h0, ResolventPower(10.0, 0)) == 0.0  # g = 1


def test_xi_step_function_integer_values():
    h, h0 = alloy_pair(25, 12)
    x, xi_k = xi_step_function(spectral.eig_all(h)[0],
                               spectral.eig_all(h0)[0])
    assert xi_k.dtype == np.int64
    assert x.shape[0] == xi_k.shape[0] + 1


# -- trace identity ----------------------------------------------------------------

def spectra(h, h0):
    return spectral.eig_all(h)[0], spectral.eig_all(h0)[0]


@settings(max_examples=40, deadline=None)
@given(extents=st.sampled_from([(30,), (64,), (1, 20), (6, 7), (9, 5)]),
       seed=st.integers(0, 10**6), amplitude=st.sampled_from([-1.5, -0.5, 0.8]),
       g=st.one_of(st.builds(BumpFunction, st.floats(-2.0, 1.0), st.just(3.0)),
                   st.builds(ExpWeight, st.floats(0.1, 2.0)),
                   st.builds(ResolventPower, st.floats(2.5, 5.0), st.just(0)),  # g = 1
                   # V >= -1.5 keeps the spectrum above -1.5, clear of -e
                   st.builds(ResolventPower, st.floats(2.5, 5.0), st.sampled_from([1, 2, 3]))))
def test_trace_identity_alloys(extents, seed, amplitude, g):
    grid = build_grid(len(extents), 1.0, extents)
    window = IntBox((0,) * len(extents), tuple(n - 1 for n in extents))
    field = sample_couplings(DistributionSpec("uniform", low=0.0, high=1.0),
                             window, seed)
    pot = assemble_potential(grid, SingleSiteProfile.point(amplitude, len(extents)), field)
    ev_h, ev_h0 = spectra(assemble_hamiltonian(grid, pot), free_hamiltonian(grid))
    tr, xi = trace_difference(ev_h, ev_h0, g), xi_integral(ev_h, ev_h0, g)
    lo, hi = min(ev_h[0], ev_h0[0]), max(ev_h[-1], ev_h0[-1])
    dmax = float(np.max(np.abs(g.derivative(np.linspace(lo, hi, 4097)))))
    assert abs(tr - xi) <= 1e-8 * grid.n_sites * dmax
    assert trace_difference(ev_h0, ev_h, g) == -tr
    assert xi_integral(ev_h0, ev_h, g) == -xi


def test_laplace_zero_potential():
    _, h0 = alloy_pair(30, 13)
    ev0 = spectral.eig_all(h0)[0]
    for t in (0.5, 1.0, 2.0):
        assert trace_difference(ev0, ev0, ExpWeight(t)) == 0.0
        assert xi_integral(ev0, ev0, ExpWeight(t)) == 0.0


def test_laplace_positive_for_wells():
    h, h0 = alloy_pair(60, 14, amplitude=-1.0)   # V <= 0, levels move down
    assert trace_difference(*spectra(h, h0), ExpWeight(1.0)) > 0.0


def test_laplace_identity_paths_agree():
    ev_h, ev_h0 = spectra(*alloy_pair(300, 15))
    for t in (0.5, 1.0, 2.0):
        a = trace_difference(ev_h, ev_h0, ExpWeight(t))
        b = xi_integral(ev_h, ev_h0, ExpWeight(t))
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


def test_xi_integral_against_quadrature():
    # independent oracle: brute-force quadrature of g'(lam) xi(lam), g = exp(-t lam)
    h, h0 = alloy_pair(20, 16)
    ev, ev0 = spectra(h, h0)
    g = ExpWeight(0.8)
    exact = xi_integral(ev, ev0, g)
    lam = np.linspace(min(ev[0], ev0[0]), max(ev[-1], ev0[-1]), 400001)
    xi_vals = (np.searchsorted(ev0, lam, side="right")
               - np.searchsorted(ev, lam, side="right"))
    brute = np.trapezoid(g.derivative(lam) * xi_vals, lam)
    assert exact == pytest.approx(brute, abs=5e-4)


# -- invariance principle --------------------------------------------------------------

def test_invariance_principle_counting():
    h, h0 = alloy_pair(35, 17)
    grid = off_spectrum_grid(h, h0, -1.0, 4.0, k=12)
    for lam in grid.values[::3]:
        assert invariance_residual(h, h0, 0.7, lam) == 0
