import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssflab.model import IntBox, SingleSiteProfile, assemble_potential, build_grid
from ssflab.randomfield import (
    DistributionSpec, FieldError, constant_couplings, sample_couplings,
    shift_field, split_signs,
)


def test_degenerate_bernoulli_all_ones():
    f = sample_couplings(DistributionSpec("bernoulli", p=1.0), IntBox((0,), (99,)), 4)
    assert np.all(f.values_flat() == 1.0)


def test_bernoulli_mean_within_3_sigma():
    f = sample_couplings(DistributionSpec("bernoulli", p=0.5),
                         IntBox((0, 0), (99, 99)), 123)
    vals = f.values_flat()
    sigma = 0.5 / 100.0
    assert abs(vals.mean() - 0.5) <= 3 * sigma


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), realization=st.integers(0, 1000),
       site=st.integers(-50, 50), extra=st.integers(1, 40))
def test_window_extension_stability(seed, realization, site, extra):
    small = sample_couplings(DistributionSpec("uniform", low=-2, high=2),
                             IntBox((site,), (site,)), seed, realization)
    big = sample_couplings(DistributionSpec("uniform", low=-2, high=2),
                           IntBox((site - extra,), (site + extra,)), seed, realization)
    assert small.value((site,)) == big.value((site,))


def test_bitwise_determinism_across_calls():
    spec = DistributionSpec("discrete", values=(-1.0, 0.0, 2.0),
                            weights=(0.25, 0.5, 0.25))
    a = sample_couplings(spec, IntBox((-5, -5), (5, 5)), 77, 3).values_flat()
    b = sample_couplings(spec, IntBox((-5, -5), (5, 5)), 77, 3).values_flat()
    assert np.array_equal(a, b)


def test_shift_identity_and_group_action():
    f = sample_couplings(DistributionSpec("uniform", low=0, high=1),
                         IntBox((-4,), (4,)), 5)
    assert np.array_equal(shift_field(f, (0,)).values_flat(), f.values_flat())
    g = shift_field(shift_field(f, (3,)), (-3,))
    assert np.array_equal(g.values_flat(), f.values_flat())
    s = shift_field(f, (2,))
    assert s.value((2,)) == f.value((0,))


def test_shift_statistics_unchanged_3_sigma():
    spec = DistributionSpec("uniform", low=0.0, high=1.0)
    window = IntBox((0,), (199,))
    plain, shifted = [], []
    for r in range(100):
        f = sample_couplings(spec, window, 31, r)
        plain.append(f.values_flat().mean())
        shifted.append(shift_field(f, (7,)).values_at(window.coords()).mean())
    plain, shifted = np.array(plain), np.array(shifted)
    pooled = np.sqrt(plain.var(ddof=1) / 100 + shifted.var(ddof=1) / 100)
    assert abs(plain.mean() - shifted.mean()) <= 3 * pooled


def test_split_signs_examples():
    f = sample_couplings(DistributionSpec("uniform", low=0.5, high=1.5),
                         IntBox((0,), (49,)), 9)
    p, m = split_signs(f)
    assert np.array_equal(p.values_flat(), f.values_flat())
    assert np.all(m.values_flat() == 0.0)

    g = sample_couplings(DistributionSpec("discrete", values=(-1.0, 2.0),
                                          weights=(0.5, 0.5)), IntBox((0,), (1,)), 1)
    gp, gm = split_signs(g)
    vals = g.values_flat()
    assert np.array_equal(gp.values_flat(), np.maximum(vals, 0.0))
    assert np.array_equal(gm.values_flat(), np.minimum(vals, 0.0))


def test_split_recombination_exact_large():
    f = sample_couplings(DistributionSpec("uniform", low=-1, high=1),
                         IntBox((0,), (10**6 - 1,)), 2)
    p, m = split_signs(f)
    assert np.all(p.values_flat() + m.values_flat() == f.values_flat())


def test_shift_keeps_sign_split():
    f = sample_couplings(DistributionSpec("uniform", low=-1, high=1),
                         IntBox((-20,), (20,)), 6)
    plus, minus = split_signs(f)
    assert np.all(shift_field(plus, (5,)).values_flat() >= 0.0)
    back = shift_field(shift_field(minus, (5,)), (-5,))
    assert np.array_equal(back.values_flat(), minus.values_flat())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), k=st.integers(-6, 6))
def test_shift_equivariance_of_potentials(seed, k):
    # potential of the shifted field equals the site-translated potential
    # wherever both assemblies see the same anchors
    grid = build_grid(1, 1.0, 40)
    prof = SingleSiteProfile.point(-1.0, 1)
    window = IntBox((10,), (29,))
    f = sample_couplings(DistributionSpec("uniform", low=-1, high=1), window, seed)
    v = assemble_potential(grid, prof, f).values
    sh = shift_field(f, (k,))
    v_sh = assemble_potential(grid, prof, sh).values
    for j in range(10, 30):
        if 10 <= j + k <= 29:
            assert v_sh[j + k] == v[j]


@pytest.mark.parametrize("kwargs", [
    dict(kind="bernoulli", p=1.5),
    dict(kind="bernoulli", p=None),
    dict(kind="uniform", low=1.0, high=1.0),
    dict(kind="uniform", low=0.0, high=float("inf")),
    dict(kind="discrete", values=(1.0,), weights=(0.5,)),
    dict(kind="discrete", values=(1.0, 2.0), weights=(0.5, 0.4)),
    dict(kind="gauss"),
])
def test_malformed_specs_rejected(kwargs):
    with pytest.raises(FieldError):
        DistributionSpec(**kwargs)


def test_support_bounds():
    assert DistributionSpec("uniform", low=-2, high=3).support_bounds() == (-2.0, 3.0)
    assert constant_couplings(4.0).support_bounds() == (4.0, 4.0)
