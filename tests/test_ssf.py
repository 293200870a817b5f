import numpy as np
import pytest

from ssflab import spectral
from ssflab.model import IntBox, SingleSiteProfile, assemble_hamiltonian, \
    assemble_potential, build_grid, free_hamiltonian
from ssflab.randomfield import DistributionSpec, sample_couplings
from ssflab.spectral import BumpFunction, ConstantFunction
from ssflab.ssf import (
    EnergyGrid, OnSpectrumError, SSFSample,
    birman_krein_residual, exp_step_integral, invariance_residual,
    laplace_functional, laplace_via_xi, midpoint_energy_grid,
    ssf_counting, xi_step_function,
)


def alloy_pair(n, seed, amplitude=-1.0, low=0.0, high=1.0):
    g = build_grid(1, 1.0, n)
    window = IntBox((0,), (n - 1,))
    field = sample_couplings(DistributionSpec("uniform", low=low, high=high),
                             window, seed)
    pot = assemble_potential(g, SingleSiteProfile.point(amplitude, 1), field)
    return assemble_hamiltonian(g, pot), free_hamiltonian(g)


def off_spectrum_grid(h, h0, lo, hi, k=25):
    spectra = [spectral.eig_all(h).eigenvalues, spectral.eig_all(h0).eigenvalues]
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


def test_on_spectrum_grid_rejected():
    h, h0 = alloy_pair(20, 2)
    lam = spectral.eig_all(h).eigenvalues[3]
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
    from ssflab.model import PotentialField, Provenance
    h = assemble_hamiltonian(g, PotentialField(g, 2.5 * bump,
                                               Provenance("rank1", "-", "none")))
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
    s = ssf_counting(h, h0, grid, require_exact=False)
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
    spectra = [spectral.eig_all(x).eigenvalues for x in (h0, h_full, h_minus)]
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
    assert birman_krein_residual(h, h0, ConstantFunction(2.0)) == 0.0


def test_xi_step_function_integer_values():
    h, h0 = alloy_pair(25, 12)
    x, xi_k = xi_step_function(spectral.eig_all(h).eigenvalues,
                               spectral.eig_all(h0).eigenvalues)
    assert xi_k.dtype == np.int64
    assert x.shape[0] == xi_k.shape[0] + 1


# -- Laplace functional -------------------------------------------------------------

def test_laplace_zero_potential():
    _, h0 = alloy_pair(30, 13)
    for t in (0.5, 1.0, 2.0):
        assert laplace_functional(h0, h0, t) == 0.0


def test_laplace_positive_for_wells():
    h, h0 = alloy_pair(60, 14, amplitude=-1.0)   # V <= 0, levels move down
    assert laplace_functional(h, h0, 1.0) > 0.0


def test_laplace_identity_paths_agree():
    h, h0 = alloy_pair(300, 15)
    for t in (0.5, 1.0, 2.0):
        a = laplace_functional(h, h0, t)
        b = laplace_via_xi(h, h0, t)
        assert abs(a - b) <= 1e-8 * max(abs(a), abs(b))


def test_exp_step_integral_against_quadrature():
    # independent oracle: brute-force quadrature of exp(-lam t) xi(lam)
    h, h0 = alloy_pair(20, 16)
    ev, ev0 = spectral.eig_all(h).eigenvalues, spectral.eig_all(h0).eigenvalues
    x, xi_k = xi_step_function(ev, ev0)
    t = 0.8
    exact = exp_step_integral(t, x, xi_k)
    lam = np.linspace(x[0], x[-1], 400001)
    xi_vals = (np.searchsorted(ev0, lam, side="right")
               - np.searchsorted(ev, lam, side="right"))
    brute = np.trapezoid(np.exp(-t * lam) * xi_vals, lam)
    assert exact == pytest.approx(brute, abs=5e-4)


# -- invariance principle --------------------------------------------------------------

def test_invariance_principle_counting():
    h, h0 = alloy_pair(35, 17)
    grid = off_spectrum_grid(h, h0, -1.0, 4.0, k=12)
    for lam in grid.values[::3]:
        assert invariance_residual(h, h0, 0.7, lam) == 0
