import numpy as np
import pytest
import scipy.linalg as sla

from ssflab.model import (
    IntBox, ModelError, PotentialField, SingleSiteProfile, SiteBox,
    assemble_hamiltonian, assemble_potential, build_grid,
    dirichlet_restriction, free_hamiltonian, interface_measure,
)
from ssflab.randomfield import DistributionSpec, constant_couplings, sample_couplings


def alloy(grid, seed=0, amplitude=-1.0, realization=0):
    window = IntBox((0,) * grid.dimension,
                    tuple(n - 1 for n in grid.extents))
    field = sample_couplings(DistributionSpec("uniform", low=-1.0, high=1.0),
                             window, seed, realization)
    prof = SingleSiteProfile.point(amplitude, grid.dimension)
    return assemble_potential(grid, prof, field)


# -- grids -------------------------------------------------------------------

def test_build_grid_1d_smallest():
    g = build_grid(1, 1.0, 5)
    assert g.n_sites == 5
    assert SiteBox(g, (0,), (4,)).indices().tolist() == [0, 1, 2, 3, 4]


def test_full_box_measure_with_spacing():
    g = build_grid(2, 0.5, (8, 8))
    assert g.n_sites == 64
    assert SiteBox(g, (0, 0), (7, 7)).measure == pytest.approx(64 * 0.25)


def test_row_major_indexing_axis0_slowest():
    g = build_grid(2, 1.0, (3, 4))
    for i in range(3):
        for j in range(4):
            assert SiteBox(g, (i, j), (i, j)).indices().tolist() == [4 * i + j]
    # a 2x2 sub-box lists its sites row by row: axis 1 runs fastest
    assert SiteBox(g, (1, 2), (2, 3)).indices().tolist() == [6, 7, 10, 11]


@pytest.mark.parametrize("dim,spacing,extents", [
    (4, 1.0, (2, 2, 2, 2)),
    (0, 1.0, ()),
    (1, 0.0, (5,)),
    (1, -2.0, (5,)),
    (2, 1.0, (0, 5)),
])
def test_grid_rejections(dim, spacing, extents):
    with pytest.raises(ModelError):
        build_grid(dim, spacing, extents)


def test_box_partitions_grid():
    g = build_grid(2, 1.0, (5, 7))
    box = SiteBox(g, (1, 2), (3, 4))
    mask = box.mask()
    assert mask.sum() == box.site_count
    assert mask.sum() + (~mask).sum() == g.n_sites


def test_box_surface_measures():
    g = build_grid(2, 0.5, (16, 16))
    box = SiteBox(g, (2, 2), (9, 9))  # 8x8 sites
    assert box.site_count == 64
    assert box.boundary_site_count == 64 - 36
    assert IntBox((-4, -4), (3, 3)).boundary_site_count == 64 - 36
    assert box.surface_measure == pytest.approx((64 - 36) * 0.5)
    g1 = build_grid(1, 1.0, 10)
    assert SiteBox(g1, (3,), (6,)).boundary_site_count == 2


def test_box_outside_grid_rejected():
    g = build_grid(1, 1.0, 10)
    with pytest.raises(ModelError):
        SiteBox(g, (3,), (12,))
    with pytest.raises(ModelError):
        SiteBox(g, (5,), (4,))


def test_interface_measure_adjacent_boxes():
    g = build_grid(2, 1.0, (16, 16))
    b1 = SiteBox(g, (0, 0), (7, 15))
    b2 = SiteBox(g, (8, 0), (15, 15))
    assert interface_measure(b1, b2) == pytest.approx(16.0)
    far = SiteBox(g, (12, 0), (15, 15))
    assert interface_measure(b1, far) == 0.0


# -- potentials ---------------------------------------------------------------

def test_zero_couplings_give_zero_field():
    g = build_grid(1, 1.0, 12)
    field = sample_couplings(constant_couplings(0.0), IntBox((0,), (11,)), 1)
    pot = assemble_potential(g, SingleSiteProfile.point(-1.0, 1), field)
    assert np.all(pot.values == 0.0)


def test_unit_translation_sum():
    g = build_grid(1, 1.0, 10)
    field = sample_couplings(constant_couplings(1.0), IntBox((0,), (9,)), 1)
    pot = assemble_potential(g, SingleSiteProfile.point(-1.0, 1), field)
    assert np.all(pot.values == -1.0)


def test_sharp_cutoff_indicator():
    g = build_grid(1, 1.0, 10)
    field = sample_couplings(constant_couplings(1.0), IntBox((0,), (9,)), 1)
    box = SiteBox(g, (3,), (6,))
    pot = assemble_potential(g, SingleSiteProfile.point(-1.0, 1), field,
                             "sharp", box)
    expected = np.zeros(10)
    expected[3:7] = -1.0
    assert np.array_equal(pot.values, expected)


def test_sharp_cutoff_idempotent():
    g = build_grid(1, 1.0, 20)
    box = SiteBox(g, (4,), (11,))
    field = sample_couplings(DistributionSpec("uniform", low=0.0, high=1.0),
                             IntBox((0,), (19,)), 3)
    prof = SingleSiteProfile.point(-1.0, 1)
    once = assemble_potential(g, prof, field, "sharp", box)
    twice = PotentialField(g, once.values * box.mask())
    assert np.array_equal(once.values, twice.values)


def test_lattice_sum_keeps_only_inside_anchors():
    g = build_grid(1, 1.0, 30)
    field = sample_couplings(constant_couplings(1.0), IntBox((0,), (29,)), 1)
    prof = SingleSiteProfile.exponential(-1.0, 2.0, 1)
    cut = IntBox((10,), (19,))
    pot = assemble_potential(g, prof, field, "lattice_sum", cut)
    full = assemble_potential(g, prof, field)
    # tails leak outside the box, but anchors outside contribute nothing
    inner = abs(pot.values[15])
    assert inner > 0
    assert abs(pot.values[0]) < abs(full.values[0])


def test_anchor_outside_grid_rejected():
    g = build_grid(1, 1.0, 10)
    field = sample_couplings(constant_couplings(1.0), IntBox((0,), (10,)), 1)
    with pytest.raises(ModelError):
        assemble_potential(g, SingleSiteProfile.point(-1.0, 1), field)


def test_exponential_profile_truncation():
    prof = SingleSiteProfile.exponential(-1.0, 2.0, 1)
    assert prof.decay_rate == 2.0
    vals = prof.values
    assert np.max(np.abs(vals)) == 1.0
    assert np.all((np.abs(vals) >= 1e-14) | (vals == 0.0))


def test_tailed_profile_needs_positive_decay():
    with pytest.raises(ModelError):
        SingleSiteProfile(np.ones(3), (0,), decay_rate=-1.0)


# -- Hamiltonians --------------------------------------------------------------

def test_free_1d_stencil():
    h = free_hamiltonian(build_grid(1, 1.0, 3))
    dense = h.to_dense()
    assert np.array_equal(dense, np.array([[2.0, -1.0, 0.0],
                                           [-1.0, 2.0, -1.0],
                                           [0.0, -1.0, 2.0]]))


def test_free_1d_analytic_spectrum():
    h = free_hamiltonian(build_grid(1, 1.0, 5))
    expected = np.sort([2 - 2 * np.cos(k * np.pi / 6) for k in range(1, 6)])
    got = np.sort(sla.eigvalsh(h.to_dense()))
    assert np.allclose(got, expected, atol=1e-12)


def test_free_2x2_spectrum_dense_oracle():
    h = free_hamiltonian(build_grid(2, 1.0, (2, 2)))
    got = np.sort(sla.eigvalsh(h.to_dense()))
    assert np.allclose(got, [2.0, 4.0, 4.0, 6.0], atol=1e-12)


def test_hamiltonian_bitwise_symmetric():
    g = build_grid(2, 0.7, (5, 6))
    h = assemble_hamiltonian(g, alloy(g, seed=9))
    dense = h.to_dense()
    assert np.array_equal(dense, dense.T)


def test_band_storage_matches_dense():
    g = build_grid(2, 1.0, (4, 5))
    h = assemble_hamiltonian(g, alloy(g, seed=2))
    band = h.band_lower()
    dense = h.to_dense()
    n = h.n
    rebuilt = np.zeros((n, n))
    for k in range(band.shape[0]):
        for j in range(n - k):
            rebuilt[j + k, j] = band[k, j]
            rebuilt[j, j + k] = band[k, j]
    assert np.array_equal(rebuilt, dense)


def test_gershgorin_bound_random_instances():
    rng = np.random.default_rng(5)
    for trial in range(5):
        g = build_grid(1, 1.0, 40)
        pot = alloy(g, seed=trial)
        h = assemble_hamiltonian(g, pot)
        w = sla.eigvalsh(h.to_dense())
        vmin, vmax = pot.values.min(), pot.values.max()
        assert w.min() >= vmin - 1e-10
        assert w.max() <= vmax + 4.0 + 1e-10


def test_grid_mismatch_rejected():
    g1 = build_grid(1, 1.0, 5)
    g2 = build_grid(1, 1.0, 6)
    with pytest.raises(ModelError):
        assemble_hamiltonian(g2, PotentialField.zero(g1))


def test_dirichlet_restriction_identity_and_block():
    g = build_grid(1, 1.0, 5)
    h = free_hamiltonian(g)
    same = dirichlet_restriction(h, SiteBox(g, (0,), (4,)))
    assert np.array_equal(same.to_dense(), h.to_dense())
    block = dirichlet_restriction(h, SiteBox(g, (1,), (3,)))
    assert np.array_equal(block.to_dense(), h.to_dense()[1:4, 1:4])


def test_dirichlet_interlacing_random():
    rng = np.random.default_rng(11)
    for trial in range(6):
        g = build_grid(1, 1.0, 60)
        h = assemble_hamiltonian(g, alloy(g, seed=100 + trial))
        box = SiteBox(g, (10,), (44,))
        wa = sla.eigvalsh(h.to_dense())
        wb = sla.eigvalsh(dirichlet_restriction(h, box).to_dense())
        # Cauchy interlacing: the k-th restricted eigenvalue dominates the k-th
        assert np.all(wb >= wa[: wb.size] - 1e-11)
        assert wb.min() >= wa.min() - 1e-11
