import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from ssflab.model import IntBox, SingleSiteProfile, assemble_hamiltonian, \
    assemble_potential, build_grid, free_hamiltonian
from ssflab.randomfield import DistributionSpec, sample_couplings
from ssflab.spectral import (
    BumpFunction, ConstantFunction, ExpWeight, SizeLimitError, _as_structure,
    count_below, diag_of_function, eig_all, heat_semigroup, heat_trace, trace_norm,
)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def alloy_hamiltonian(extents, seed, amplitude=-1.0, spacing=1.0, spec=None):
    dim = len(extents)
    g = build_grid(dim, spacing, extents)
    window = IntBox((0,) * dim, tuple(n - 1 for n in extents))
    spec = spec or DistributionSpec("uniform", low=-1.0, high=1.0)
    field = sample_couplings(spec, window, seed)
    pot = assemble_potential(g, SingleSiteProfile.point(amplitude, dim), field)
    return assemble_hamiltonian(g, pot)


# -- counting -----------------------------------------------------------------

def test_count_diagonal():
    assert count_below(np.diag([1.0, 2.0, 3.0]), 2.5) == 2


def test_count_free_1d_at_eigenvalue():
    h = free_hamiltonian(build_grid(1, 1.0, 5))
    # eigenvalues 2 - 2 cos(k pi / 6); lam = 2 hits one exactly, strictly-below
    assert count_below(h, 2.0) == 2


def test_counting_matches_oracle_dense():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 120))
        a = random_symmetric(rng, n)
        w = sla.eigvalsh(a)
        for lam in rng.uniform(w.min() - 1, w.max() + 1, size=6):
            assert count_below(a, lam) == int(np.searchsorted(w, lam, side="left"))


def test_counting_matches_oracle_banded_2d():
    rng = np.random.default_rng(23)
    for seed in range(4):
        h = alloy_hamiltonian((7, 9), seed, amplitude=-2.0)
        w = sla.eigvalsh(h.to_dense())
        for lam in rng.uniform(w.min() - 1, w.max() + 1, size=8):
            assert count_below(h, lam) == int(np.searchsorted(w, lam, side="left"))


def test_counting_matches_oracle_tridiagonal_large():
    h = alloy_hamiltonian((400,), 3)
    w = sla.eigvalsh(h.to_dense())
    rng = np.random.default_rng(1)
    for lam in rng.uniform(w.min() - 0.5, w.max() + 0.5, size=12):
        assert count_below(h, lam) == int(np.searchsorted(w, lam, side="left"))


@settings(max_examples=40, deadline=None)
@given(extents=st.lists(st.sampled_from([1, 1, 2, 3, 7, 20]), min_size=2, max_size=3)
       .filter(lambda e: 1 in e),
       seed=st.integers(0, 10**6))
def test_unit_axes_count_matches_oracle(extents, seed):
    # unit axes carry no couplings: a grid with one nontrivial axis is a chain
    h = alloy_hamiltonian(tuple(extents), seed, amplitude=-2.0)
    if sum(n > 1 for n in extents) <= 1:
        assert _as_structure(h)[0] == "tridiag"
    w = sla.eigvalsh(h.to_dense())
    rng = np.random.default_rng(seed)
    for lam in rng.uniform(w.min() - 1, w.max() + 1, size=6):
        assert count_below(h, lam) == int(np.searchsorted(w, lam, side="left"))


def test_count_below_rejects_nonfinite():
    with pytest.raises(ValueError):
        count_below(np.eye(3), float("nan"))


# -- full spectra ---------------------------------------------------------------

def test_eig_all_examples():
    assert eig_all(np.array([[3.5]])).eigenvalues[0] == 3.5
    assert np.array_equal(eig_all(np.diag([3.0, 1.0, 2.0])).eigenvalues,
                          [1.0, 2.0, 3.0])
    a, b = 0.3, 1.7
    two = np.array([[a, b], [b, a]])
    assert np.allclose(eig_all(two).eigenvalues, [a - abs(b), a + abs(b)])


def test_eig_all_free_analytic_matches_numeric():
    h = free_hamiltonian(build_grid(2, 1.0, (6, 7)))
    analytic = eig_all(h).eigenvalues
    numeric = sla.eigvalsh(h.to_dense())
    assert np.allclose(analytic, numeric, atol=1e-11)


def test_eig_all_vector_residuals():
    h = alloy_hamiltonian((50,), 2)
    orc = eig_all(h, need_vectors=True)
    dense = h.to_dense()
    scale = np.abs(dense).sum(axis=1).max()
    for k in range(0, 50, 7):
        r = dense @ orc.vectors[:, k] - orc.eigenvalues[k] * orc.vectors[:, k]
        assert np.linalg.norm(r) <= 1e-8 * scale


def test_dense_limit_enforced():
    h = free_hamiltonian(build_grid(1, 1.0, 100))
    with pytest.raises(SizeLimitError):
        eig_all(h, dense_limit=50)


# -- heat semigroup -------------------------------------------------------------

def test_heat_trace_examples():
    assert heat_trace(np.array([[0.0]]), 5.0) == pytest.approx(1.0)
    got = heat_trace(np.diag([1.0, 2.0]), 1.0)
    assert got == pytest.approx(np.exp(-1) + np.exp(-2), abs=1e-14)
    with pytest.raises(ValueError):
        heat_trace(np.eye(2), 0.0)


def test_heat_semigroup_identity_limit():
    h = alloy_hamiltonian((20,), 5)
    scale = np.abs(h.to_dense()).sum(axis=1).max()
    m = heat_semigroup(h, 1e-8)
    assert np.max(np.abs(m - np.eye(20))) <= 1e-6 * scale


def test_heat_semigroup_property():
    h = alloy_hamiltonian((25,), 6)
    e_t = heat_semigroup(h, 0.4)
    e_s = heat_semigroup(h, 0.6)
    e_ts = heat_semigroup(h, 1.0)
    assert np.max(np.abs(e_t @ e_s - e_ts)) <= 1e-10 * np.max(np.abs(e_ts))


def test_free_semigroup_strictly_positive():
    # t large enough that even the far corners rise above roundoff
    h = free_hamiltonian(build_grid(1, 1.0, 50))
    m = heat_semigroup(h, 50.0)
    assert np.all(m > 0.0)


def test_heat_trace_decreasing_and_logconvex():
    h = alloy_hamiltonian((40,), 9, amplitude=0.5,
                          spec=DistributionSpec("uniform", low=0.1, high=1.0))
    # V > 0 keeps H positive definite
    ts = [0.3, 0.7, 1.3, 2.1]
    vals = [heat_trace(h, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    for (t1, f1), (t2, f2), (t3, f3) in zip(
            zip(ts, vals), zip(ts[1:], vals[1:]), zip(ts[2:], vals[2:])):
        lam = (t3 - t2) / (t3 - t1)
        assert np.log(f2) <= lam * np.log(f1) + (1 - lam) * np.log(f3) + 1e-12


# -- traces and norms ------------------------------------------------------------

def test_trace_norm_examples():
    assert trace_norm(np.diag([1.0, 0.0]) - np.diag([0.0, 0.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_symmetric(rng, 12)
        assert trace_norm(m) >= abs(np.trace(m)) - 1e-12
    for _ in range(20):
        a, b = random_symmetric(rng, 10), random_symmetric(rng, 10)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


# -- matrix functions -------------------------------------------------------------

def test_apply_constant_is_identity():
    h = alloy_hamiltonian((12,), 1)
    d = diag_of_function(h, ConstantFunction(1.0))
    assert np.allclose(d, np.ones(12), atol=1e-12)


def test_apply_exp_consistent_with_heat_trace():
    h = alloy_hamiltonian((30,), 4)
    d = diag_of_function(h, ExpWeight(1.0))
    assert abs(np.sum(d) - heat_trace(h, 1.0)) <= 1e-12 * abs(heat_trace(h, 1.0))


def test_bump_below_spectrum_gives_zero():
    h = free_hamiltonian(build_grid(1, 1.0, 20))  # spectrum inside (0, 4)
    d = diag_of_function(h, BumpFunction(-3.0, -1.0))
    assert np.max(np.abs(d)) == 0.0


def test_function_family_enforced():
    with pytest.raises(ValueError):
        diag_of_function(np.eye(3), lambda x: x)


def test_bump_smoothness_and_derivative():
    g = BumpFunction(-1.0, 2.0)
    xs = np.linspace(-1.0, 2.0, 1001)
    dx = xs[1] - xs[0]
    numeric = np.gradient(g.value(xs), dx)
    assert np.max(np.abs(numeric - g.derivative(xs))) <= 5e-4 * g.max_abs_derivative()
    assert g.value(-1.0) == 0.0 and g.value(2.0) == 0.0
    assert g.derivative(-1.0 + 1e-9) == pytest.approx(0.0, abs=1e-15)


# -- appendix-style matrix invariants ---------------------------------------------

@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_semigroup_domination_entrywise(seed):
    rng = np.random.default_rng(seed)
    n = 30
    g = build_grid(1, 1.0, n)
    base = free_hamiltonian(g).to_dense()
    v2 = rng.uniform(-1.0, 1.0, size=n)
    v1 = v2 + rng.uniform(0.0, 1.0, size=n)      # V1 >= V2 entrywise
    f = rng.uniform(0.0, 1.0, size=n)
    e1 = sla.expm(-0.7 * (base + np.diag(v1)))
    e2 = sla.expm(-0.7 * (base + np.diag(v2)))
    assert np.all(e1 @ f <= e2 @ f + 1e-12)
    # L^inf -> L^inf operator norms: max absolute row sums
    assert np.abs(e1).sum(axis=1).max() <= np.abs(e2).sum(axis=1).max() + 1e-12
