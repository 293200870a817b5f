import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from ssflab.model import (
    Grid, IntBox, ModelError, PotentialField, SingleSiteProfile,
    assemble_hamiltonian, assemble_potential, build_grid,
    dirichlet_restriction, free_hamiltonian, grid_band, interface_measure,
)
from ssflab.randomfield import DistributionSpec, constant_couplings, sample_couplings


def alloy(grid, seed=0, amplitude=-1.0, realization=0):
    field = sample_couplings(DistributionSpec("uniform", low=-1.0, high=1.0),
                             grid.box, seed, realization)
    prof = SingleSiteProfile.point(amplitude, grid.dimension)
    return assemble_potential(grid, prof, field)


# -- grids -------------------------------------------------------------------

def test_build_grid_1d_smallest():
    g = build_grid(1, 1.0, 5)
    assert g.n_sites == 5
    assert g.indices(IntBox((0,), (4,))).tolist() == [0, 1, 2, 3, 4]


def test_full_box_measure_with_spacing():
    g = build_grid(2, 0.5, (8, 8))
    assert g.n_sites == 64
    assert g.box == IntBox((0, 0), (7, 7))
    assert g.box.measure(g.spacing) == pytest.approx(64 * 0.25)


def test_row_major_indexing_axis0_slowest():
    g = build_grid(2, 1.0, (3, 4))
    for i in range(3):
        for j in range(4):
            assert g.indices(IntBox((i, j), (i, j))).tolist() == [4 * i + j]
    # a 2x2 sub-box lists its sites row by row: axis 1 runs fastest
    assert g.indices(IntBox((1, 2), (2, 3))).tolist() == [6, 7, 10, 11]
    # the same sites in absolute coordinates of a grid whose site 0 sits at (-1, 5)
    shifted = Grid(2, 1.0, (3, 4), (-1, 5))
    assert shifted.box == IntBox((-1, 5), (1, 8))
    assert shifted.indices(IntBox((0, 7), (1, 8))).tolist() == [6, 7, 10, 11]


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
    box = IntBox((1, 2), (3, 4))
    mask = g.mask(box)
    assert mask.sum() == box.count
    assert mask.sum() + (~mask).sum() == g.n_sites


def test_box_surface_measures():
    box = IntBox((2, 2), (9, 9))  # 8x8 sites, 64 - 36 of them on the boundary
    assert box.count == 64
    assert IntBox((-4, -4), (3, 3)).surface_measure(1.0) == 64 - 36
    assert box.measure(0.5) == pytest.approx(64 * 0.25)
    assert box.surface_measure(0.5) == pytest.approx((64 - 36) * 0.5)
    assert IntBox((3,), (6,)).surface_measure(1.0) == 2
    assert IntBox((0, 0, 0), (1, 2, 3)).surface_measure(1.0) == 24


def test_centered_and_padded_boxes():
    # lo = -(e // 2): odd extents are symmetric, even ones reach one further down
    assert IntBox.centered((7,)) == IntBox((-3,), (3,))
    assert IntBox.centered((8, 5)) == IntBox((-4, -2), (3, 2))
    assert IntBox.centered((8, 5)).padded(3) == IntBox((-7, -5), (6, 5))
    assert IntBox.centered((1, 1, 1)) == IntBox((0, 0, 0), (0, 0, 0))


def test_box_outside_grid_rejected():
    g = build_grid(1, 1.0, 10)
    with pytest.raises(ModelError):
        g.indices(IntBox((3,), (12,)))
    with pytest.raises(ModelError):
        IntBox((5,), (4,))
    with pytest.raises(ModelError):
        Grid(2, 1.0, (5, 5), (0,))
    shifted = Grid(1, 1.0, (10,), (-5,))
    assert shifted.indices(IntBox((-5,), (4,))).tolist() == list(range(10))
    for bad in (IntBox((-6,), (0,)), IntBox((0,), (5,)), IntBox((0, 0), (1, 1))):
        with pytest.raises(ModelError):
            shifted.mask(bad)


def test_interface_measure_adjacent_boxes():
    b1 = IntBox((0, 0), (7, 15))
    b2 = IntBox((8, 0), (15, 15))
    assert interface_measure(b1, b2, 1.0) == pytest.approx(16.0)
    assert interface_measure(b1, b2, 0.5) == pytest.approx(8.0)
    far = IntBox((12, 0), (15, 15))
    assert interface_measure(b1, far, 1.0) == 0.0


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
    box = IntBox((3,), (6,))
    pot = assemble_potential(g, SingleSiteProfile.point(-1.0, 1), field,
                             "sharp", box)
    expected = np.zeros(10)
    expected[3:7] = -1.0
    assert np.array_equal(pot.values, expected)


def test_sharp_cutoff_idempotent():
    g = build_grid(1, 1.0, 20)
    box = IntBox((4,), (11,))
    field = sample_couplings(DistributionSpec("uniform", low=0.0, high=1.0),
                             IntBox((0,), (19,)), 3)
    prof = SingleSiteProfile.point(-1.0, 1)
    once = assemble_potential(g, prof, field, "sharp", box)
    twice = PotentialField(g, once.values * g.mask(box))
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


@pytest.mark.parametrize("mode", ["none", "sharp", "lattice_sum", "lattice_sum_outside"])
def test_stacked_assembly_matches_each_field_bitwise(mode):
    # fields of several realizations, seeds, distributions, signs and shifts
    # on one window, assembled as one stack and one at a time
    from ssflab.randomfield import shift_field, split_signs
    grid = Grid(2, 1.0, (14, 11), (-7, -5))
    window = IntBox((-5, -4), (5, 4))
    specs = (DistributionSpec("uniform", low=-1.0, high=1.0),
             DistributionSpec("bernoulli", p=0.3, values=(-2.0, 3.0)))
    fields = []
    for j in range(4):
        f = sample_couplings(specs[j % 2], window, 3 + j // 2, j)
        fields += [f, *split_signs(f)]
    fields.append(shift_field(sample_couplings(specs[0], window.shifted((-1, 0)), 3, 0),
                              (1, 0)))
    box = {"none": None, "sharp": IntBox((-3, -2), (4, 3)),
           "lattice_sum": IntBox((-3, -6), (2, 3)),
           "lattice_sum_outside": IntBox((8, 8), (9, 9))}[mode]
    cut = mode.replace("_outside", "")
    for prof in (SingleSiteProfile.patch(np.arange(1.0, 10.0).reshape(3, 3)),
                 SingleSiteProfile.exponential(-1.0, 2.0, 2)):
        stack = assemble_potential(grid, prof, fields, cut, box)
        assert stack.values.shape == (len(fields), grid.n_sites)
        for row, f in zip(stack.values, fields):
            assert row.tobytes() == assemble_potential(grid, prof, f, cut, box).values.tobytes()
        h = assemble_hamiltonian(grid, stack)
        sub = dirichlet_restriction(h, IntBox((-2, -2), (3, 1)))
        assert sub.diag.shape == (len(fields), 24)
    with pytest.raises(ModelError):
        assemble_potential(grid, prof, [fields[0], sample_couplings(specs[0], grid.box, 1)])


def test_anchor_outside_grid_rejected():
    g = build_grid(1, 1.0, 10)
    field = sample_couplings(constant_couplings(1.0), IntBox((0,), (10,)), 1)
    with pytest.raises(ModelError):
        assemble_potential(g, SingleSiteProfile.point(-1.0, 1), field)
    # a line of anchors sits at transverse coordinate 0, outside this strip
    strip = Grid(2, 1.0, (10, 3), (0, 1))
    line = sample_couplings(constant_couplings(1.0), IntBox((0,), (9,)), 1)
    with pytest.raises(ModelError):
        assemble_potential(strip, SingleSiteProfile.point(-1.0, 2), line)


def test_potential_in_absolute_coordinates():
    # one field, two ambient grids: the potential agrees on the common sites
    # that profiles anchored outside the smaller grid cannot reach
    spec = DistributionSpec("uniform", low=-1.0, high=1.0)
    prof = SingleSiteProfile.patch(np.arange(1.0, 10.0).reshape(3, 3))
    cut = IntBox((-2, -3), (3, 1))
    small = Grid(2, 1.0, (9, 9), (-4, -4))
    large = Grid(2, 1.0, (13, 13), (-6, -6))
    sub = IntBox((-3, -3), (3, 3))
    field = sample_couplings(spec, large.box, 4)
    for mode in ("none", "sharp", "lattice_sum"):
        a = assemble_potential(small, prof, sample_couplings(spec, small.box, 4), mode, cut)
        b = assemble_potential(large, prof, field, mode, cut)
        assert np.array_equal(a.values[small.indices(sub)], b.values[large.indices(sub)])
    sharp = assemble_potential(large, prof, field, "sharp", cut).values
    assert np.all(sharp[~large.mask(cut)] == 0.0)


def test_hyperplane_field_sits_at_transverse_zero():
    strip = Grid(2, 1.0, (12, 5), (-6, -2))
    line = sample_couplings(constant_couplings(1.0), IntBox((-3,), (4,)), 1)
    pot = assemble_potential(strip, SingleSiteProfile.point(-1.0, 2), line)
    expected = np.zeros((12, 5))
    expected[3:11, 2] = -1.0  # absolute x_1 in [-3, 4], x_2 = 0
    assert np.array_equal(pot.values.reshape(12, 5), expected)
    cut = assemble_potential(strip, SingleSiteProfile.point(-1.0, 2), line,
                             "lattice_sum", IntBox((0,), (1,)))
    assert np.flatnonzero(cut.values).tolist() == [6 * 5 + 2, 7 * 5 + 2]


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


def _stencil_reference(h):
    """Dense H from site coordinates, one nearest-neighbour pair at a time."""
    ext = h.grid.extents
    a = np.diag(h.diag)
    for i, x in enumerate(itertools.product(*map(range, ext))):
        for ax in range(len(ext)):
            if x[ax] + 1 < ext[ax]:
                j = np.ravel_multi_index(x[:ax] + (x[ax] + 1,) + x[ax + 1:], ext)
                a[i, j] = a[j, i] = h.offdiag
    return a


def test_band_storage_matches_dense():
    for extents in [(4, 5), (3, 1, 4), (2, 3, 4), (1, 6), (7,), (1, 1)]:
        g = build_grid(len(extents), 1.0, extents)
        h = assemble_hamiltonian(g, alloy(g, seed=2))
        band = grid_band(h.diag.reshape(g.extents), h.offdiag)
        dense = _stencil_reference(h)
        n = h.n
        rebuilt = np.zeros((n, n))
        for k in range(band.shape[0]):
            for j in range(n - k):
                rebuilt[j + k, j] = band[k, j]
                rebuilt[j, j + k] = band[k, j]
        assert band.shape[0] == h.bandwidth + 1
        assert np.array_equal(rebuilt, dense)
        assert np.array_equal(h.to_dense(), dense)


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
    same = dirichlet_restriction(h, IntBox((0,), (4,)))
    assert np.array_equal(same.to_dense(), h.to_dense())
    block = dirichlet_restriction(h, IntBox((1,), (3,)))
    assert np.array_equal(block.to_dense(), h.to_dense()[1:4, 1:4])
    assert block.grid.box == IntBox((1,), (3,))


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       extents=st.one_of(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                         st.lists(st.integers(20, 60), min_size=1, max_size=1)),
       seed=st.integers(0, 2 ** 32))
def test_dirichlet_interlacing_random(data, extents, seed):
    # 1D-3D alloys on grids placed anywhere, random sub-boxes
    dim = len(extents)
    lo = tuple(data.draw(st.integers(-20, 20)) for _ in range(dim))
    ends = [sorted(data.draw(st.lists(st.integers(a, a + n - 1), min_size=2, max_size=2)))
            for a, n in zip(lo, extents)]
    box = IntBox(tuple(e[0] for e in ends), tuple(e[1] for e in ends))
    g = Grid(dim, 1.0, tuple(extents), lo)
    h = assemble_hamiltonian(g, alloy(g, seed=seed))
    # the box's sites, enumerated independently of Grid.indices
    idx = [np.ravel_multi_index(tuple(c - a for c, a in zip(site, lo)), g.extents)
           for site in itertools.product(*(range(a, b + 1)
                                           for a, b in zip(box.lo, box.hi)))]
    dense = h.to_dense()
    restricted = dirichlet_restriction(h, box)
    assert np.array_equal(restricted.to_dense(), dense[np.ix_(idx, idx)])
    # Cauchy interlacing both ways: wa[k] <= wb[k] <= wa[k + n - m]
    wa = sla.eigvalsh(dense)
    wb = sla.eigvalsh(restricted.to_dense())
    m, n = wb.size, wa.size
    assert np.all(wb >= wa[:m] - 1e-11)
    assert np.all(wb <= wa[n - m:] + 1e-11)
