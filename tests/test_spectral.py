import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings, strategies as st

from ssflab import spectral
from ssflab.model import Grid, Hamiltonian, IntBox, PotentialField, \
    SingleSiteProfile, assemble_hamiltonian, assemble_potential, build_grid, \
    free_hamiltonian
from ssflab.randomfield import DistributionSpec, sample_couplings
from ssflab.spectral import (
    DENSE_LIMIT, BumpFunction, ConstantFunction, ExpWeight, ResolventPower,
    SizeLimitError, _as_structure, count_below, diag_of_function, eig_all,
    heat_semigroup, heat_trace, trace_norm,
)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def alloy_hamiltonian(extents, seed, amplitude=-1.0, spacing=1.0, spec=None):
    dim = len(extents)
    g = build_grid(dim, spacing, extents)
    spec = spec or DistributionSpec("uniform", low=-1.0, high=1.0)
    field = sample_couplings(spec, g.box, seed)
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
    with pytest.raises(ValueError):
        count_below(np.eye(3), np.array([0.5, np.inf]))
    with pytest.raises(ValueError):
        count_below(np.eye(3), np.zeros((2, 2)))


def _gap_energies(w, seed, k):
    """k sorted off-spectrum energies: gap midpoints of the oracle spectrum w,
    and points outside it."""
    gaps = np.diff(w) > 1e-6 * max(1.0, float(np.abs(w).max()))
    offs = np.concatenate([[w[0] - 1.0], 0.5 * (w[:-1] + w[1:])[gaps], [w[-1] + 1.0]])
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(offs, size=min(k, offs.size), replace=False))


def _check_batched_count(h, w, seed, k):
    """count_below on an array of sorted off-spectrum energies."""
    lams = _gap_energies(w, seed, k)
    counts = count_below(h, lams)
    assert counts.dtype == np.int64 and counts.shape == lams.shape
    assert counts.tolist() == [count_below(h, lam) for lam in lams]
    assert counts.tolist() == np.searchsorted(w, lams, side="left").tolist()
    assert np.all(np.diff(counts) >= 0)
    for scalar in (float(lams[0]), lams[0], lams[0:1].reshape(())):
        assert type(count_below(h, scalar)) is int


@settings(max_examples=30, deadline=None)
@given(extents=st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=1, max_size=3),
       seed=st.integers(0, 10**6), k=st.integers(1, 6))
def test_batched_count_alloy(extents, seed, k):
    h = alloy_hamiltonian(tuple(extents), seed, amplitude=-2.0)
    _check_batched_count(h, sla.eigvalsh(h.to_dense()), seed, k)


@settings(max_examples=25, deadline=None)
@given(extents=st.one_of(st.tuples(st.integers(2, 12), st.integers(2, 9)),
                         st.tuples(st.integers(1, 12), st.integers(2, 9),
                                   st.integers(2, 5))),
       spacing=st.sampled_from([1.0, 0.5]), seed=st.integers(0, 10**6),
       k=st.integers(1, 30))
@example(extents=(1, 6, 8), spacing=1.0, seed=0, k=30)
@example(extents=(12, 9, 5), spacing=0.5, seed=1, k=30)
def test_schur_count_alloy(extents, spacing, seed, k):
    # slices along the first non-unit axis: (1, 6, 8) is a 6-slice strip of 8
    h = alloy_hamiltonian(extents, seed, amplitude=-2.0, spacing=spacing)
    assert _as_structure(h)[0] == "banded"
    _check_batched_count(h, sla.eigvalsh(h.to_dense()), seed, k)


def test_schur_breakdown_falls_back_to_banded_range_count(monkeypatch):
    # lam = an eigenvalue of the first slice T_0 makes S_0 = T_0 - lam singular
    h = alloy_hamiltonian((6, 5), 3, amplitude=-2.0)
    t0 = h.to_dense()[:5, :5]
    w = sla.eigvalsh(h.to_dense())
    gap = lambda x: np.min(np.abs(w - x))
    lam = max(sla.eigvalsh(t0), key=gap)
    assert gap(lam) > 1e-3
    calls = []
    real = sla.eigvals_banded

    def counted(*args, **kwargs):
        calls.append(kwargs["select_range"][1])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral.sla, "eigvals_banded", counted)
    lams = np.array([w[0] - 1.0, lam, 0.5 * (w[14] + w[15])])
    expected = np.searchsorted(w, lams, side="left").tolist()
    assert count_below(h, lams).tolist() == expected
    assert calls == [lam]
    assert count_below(h, lam) == expected[1] and calls == [lam, lam]


# -- mirror sectors --------------------------------------------------------------

def mirrored_hamiltonian(extents, seed, spacing=1.0):
    """A grid Hamiltonian whose random potential is bitwise even about the
    middle of the trailing axis (v + its mirror)."""
    g = build_grid(len(extents), spacing, extents)
    v = np.random.default_rng(seed).uniform(-3.0, 3.0, extents)
    return assemble_hamiltonian(g, PotentialField(g, (v + v[..., ::-1]).ravel()))


@settings(max_examples=30, deadline=None)
@given(lead=st.one_of(st.tuples(st.integers(1, 40)),
                      st.tuples(st.integers(1, 12), st.integers(1, 4))),
       half=st.integers(1, 11), spacing=st.sampled_from([1.0, 0.5]),
       seed=st.integers(0, 10**6))
@example(lead=(40,), half=11, spacing=1.0, seed=0)
@example(lead=(12, 4), half=11, spacing=0.5, seed=1)
@example(lead=(1, 3), half=1, spacing=1.0, seed=2)
def test_mirror_sectors_match_the_unsplit_operand(lead, half, spacing, seed):
    h = mirrored_hamiltonian(lead + (2 * half + 1,), seed, spacing)
    if h.bandwidth <= 1:  # a chain: the Sturm kernel, never split
        return
    sectors = spectral._sectors(h)
    assert len(sectors) == 2
    w = sla.eigvalsh(h.to_dense())
    scale = spectral._scale_of(h)
    lams = _gap_energies(w, seed, 40)
    whole = spectral._Banded(h.diag.reshape((1,) + h.grid.extents), h.offdiag, False)
    unsplit = spectral._schur_counts(whole, lams, np.atleast_1d(scale))[0]
    assert count_below(h, lams).tolist() == unsplit.tolist()
    assert unsplit.tolist() == np.searchsorted(w, lams, side="left").tolist()
    even, odd = sectors
    even_band = spectral.grid_band(even.d[0], even.coupling, even.root2)
    split = np.concatenate([sla.eigvals_banded(even_band, lower=True), eig_all(odd)[0]])
    assert np.max(np.abs(np.sort(split) - w)) <= 1e-12 * scale
    if h.n > 512:  # eig_all takes the banded path, per sector
        assert np.max(np.abs(eig_all(h)[0] - w)) <= 1e-12 * scale


def _not_mirrored(case):
    """Strips that the split must leave whole."""
    if case == "asymmetric":
        return alloy_hamiltonian((30, 11), 5, amplitude=-2.0)
    if case == "even_extent":
        return mirrored_hamiltonian((30, 10), 5)
    h = mirrored_hamiltonian((30, 11), 5)
    d = h.diag.copy()
    if case == "one_ulp":
        d[7] = np.nextafter(d[7], np.inf)
    else:  # a line on row 6, next to the middle row 5
        d = free_hamiltonian(h.grid).diag.reshape(30, 11)
        d[:, 6] -= np.random.default_rng(6).uniform(0.0, 6.0, 30)
    return Hamiltonian(h.grid, d.ravel())


@pytest.mark.parametrize("case", ["asymmetric", "off_centre_line", "even_extent",
                                  "one_ulp"])
def test_mirror_split_falls_back_to_one_operand(case, monkeypatch):
    h = _not_mirrored(case)
    assert len(spectral._sectors(h)) == 1
    slices = []
    real = spectral._schur_counts
    monkeypatch.setattr(spectral, "_schur_counts",
                        lambda op, *a: slices.append(op.d.shape[-1:] * 2) or real(op, *a))
    w = sla.eigvalsh(h.to_dense())
    lams = _gap_energies(w, 3, 40)
    assert count_below(h, lams).tolist() == np.searchsorted(w, lams).tolist()
    assert slices == [(h.grid.extents[-1],) * 2]


def test_mirror_sector_breakdown_falls_back_to_banded_range_count(monkeypatch):
    # lam = an eigenvalue of the even sector's first slice makes its S_0 singular
    h = mirrored_hamiltonian((8, 7), 11)
    even, _ = spectral._sectors(h)
    w = sla.eigvalsh(h.to_dense())
    gap = lambda x: np.min(np.abs(w - x))
    b0, b1 = spectral.grid_band(even.d[0, 0], even.coupling, even.root2)  # slice 0
    lam = max(sla.eigvalsh_tridiagonal(b0, b1[:-1]), key=gap)
    assert gap(lam) > 1e-3
    calls = []
    real = sla.eigvals_banded

    def counted(*args, **kwargs):
        calls.append(kwargs["select_range"][1])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral.sla, "eigvals_banded", counted)
    lams = np.array([w[0] - 1.0, lam, 0.5 * (w[20] + w[21])])
    assert count_below(h, lams).tolist() == np.searchsorted(w, lams).tolist()
    assert calls == [lam]


def test_dense_ldl_count_with_2x2_blocks():
    # indefinite shifts of random symmetric matrices pivot with 2x2 blocks of D
    rng = np.random.default_rng(31)
    blocks = 0
    for _ in range(40):
        n = int(rng.integers(2, 40))
        a = random_symmetric(rng, n)
        w = sla.eigvalsh(a)
        lam = 0.5 * (w[n // 2 - 1] + w[n // 2])
        _, d, _ = sla.ldl(a - lam * np.eye(n), lower=True)
        blocks += bool(np.any(np.diag(d, -1) != 0.0))
        count = spectral._dense_ldl_count(a, lam, float(np.abs(a).sum(axis=1).max()))
        assert count == int(np.searchsorted(w, lam, side="left"))
    assert blocks >= 10


def _sturm_reference(d, e, lams, scale):
    """The Sturm loop that walks every site: the reference for the fixed-point
    shortcut of ``_sturm_counts``."""
    pivmin = max(scale, 1.0) * 2.3e-308
    d0, rest, e2s = float(d[0]), d[1:].tolist(), (e * e).tolist()
    counts = []
    for lam in lams.tolist():
        q = d0 - lam
        if q == 0.0:
            q = pivmin
        count = 1 if q < 0.0 else 0
        for di, e2 in zip(rest, e2s):
            q = (di - lam) - e2 / q
            if q == 0.0:
                q = pivmin
            if q < 0.0:
                count += 1
        counts.append(count)
    return counts


def test_sturm_fixed_point_runs_match_reference_bitwise():
    # chains of free runs (d = 2/h^2, e = -1/h^2) and random runs; energies at
    # exact free run eigenvalues, inside the band (no fixed point), below it,
    # and at zero pivots (lam = d_0, or lam = d_i on an isolated e = 0 site)
    rng = np.random.default_rng(41)
    cases = 0
    for _ in range(300):
        h = float(rng.choice([1.0, 0.5, 1.3]))
        ds, es = [], []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 400)) if rng.random() < 0.6 else int(rng.integers(1, 40))
            free = rng.random() < 0.6
            ds += [2.0 / h ** 2] * n if free else rng.uniform(-3.0, 5.0, n).tolist()
            es += [-1.0 / h ** 2] * n if free else rng.uniform(-2.0, 0.0, n).tolist()
        d, e = np.array(ds), np.array(es[1:])
        if e.size and rng.random() < 0.2:
            e[rng.integers(0, e.size)] = 0.0
        run = int(rng.integers(1, d.size + 1))
        lams = np.concatenate([
            (2.0 - 2.0 * np.cos(np.arange(1, 4) * np.pi / (run + 1))) / h ** 2,
            rng.uniform(0.0, 4.0 / h ** 2, 3), rng.uniform(-4.0, 0.0, 2),
            [d[0], d[int(rng.integers(0, d.size))]]])
        scale = float(np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0))
        got = spectral._sturm_counts(d[None], e, lams, np.array([scale]))
        assert got[0].tolist() == _sturm_reference(d, e, lams, scale)
        cases += lams.size
    assert cases == 3000


def test_sturm_stacks_match_reference_bitwise():
    # stacks of 1-6 chains at 1-8 energies (single lanes included) with free
    # and random runs, e = 0 bonds and zero pivots (lam = d_0j, or lam = d_ij
    # between two e = 0 bonds): every (operator, energy) lane of _sturm_counts,
    # run shortcut included, agrees bitwise with the walk of every site
    rng = np.random.default_rng(43)
    lanes = set()
    for _ in range(120):
        h, k = float(rng.choice([1.0, 0.5])), int(rng.integers(1, 7))
        parts, es = [], []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 200))
            free = rng.random() < 0.6
            parts.append(np.full((k, n), 2.0 / h ** 2) if free
                         else rng.uniform(-3.0, 5.0, (k, n)))
            es += [-1.0 / h ** 2] * n if free else rng.uniform(-2.0, 0.0, n).tolist()
        d, e = np.concatenate(parts, axis=1), np.array(es[1:])
        at = int(rng.integers(0, e.size)) if e.size else 0
        e[at:at + 2] = 0.0  # a zero pivot at site at + 1 is then divided into 0
        lams = np.concatenate([[d[0, 0], d[-1, min(at + 1, d.shape[1] - 1)]],
                               rng.uniform(-4.0, 4.0 / h ** 2, 6)])
        lams = lams[:int(rng.integers(1, 9))]
        scale = np.abs(d).max(axis=1) + 2.0 * np.abs(e).max(initial=0.0)
        counts = spectral._sturm_counts(d, e, lams, scale)
        assert counts.tolist() == [_sturm_reference(d[j], e, lams, scale[j]) for j in range(k)]
        lanes.add(k * lams.size)
    assert 1 in lanes and max(lanes) >= 40


def _stack_case(kind, k, seed):
    """k operators on one grid: chains, asymmetric strips or mirror-symmetric
    strips (every diagonal even about the middle row)."""
    if kind == "chain":
        ops = [alloy_hamiltonian((int(30 + seed % 20),), seed + j, amplitude=-2.0)
               for j in range(k)]
    elif kind == "strip":
        ops = [alloy_hamiltonian((7, 5), seed + j, amplitude=-2.0) for j in range(k)]
    else:
        ops = [mirrored_hamiltonian((6, 7), seed + j) for j in range(k)]
    return ops, Hamiltonian(ops[0].grid, np.stack([h.diag for h in ops]))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["chain", "strip", "mirrored"]), k=st.integers(1, 9),
       seed=st.integers(0, 10**6), n_lam=st.integers(1, 12))
@example(kind="chain", k=9, seed=0, n_lam=12)
@example(kind="mirrored", k=9, seed=1, n_lam=12)
@example(kind="strip", k=1, seed=2, n_lam=1)
def test_stack_counts_match_each_operator_and_the_oracle(kind, k, seed, n_lam):
    ops, stack = _stack_case(kind, k, seed)
    spectra = [sla.eigvalsh(h.to_dense()) for h in ops]
    lams = _gap_energies(np.sort(np.concatenate(spectra)), seed, n_lam)
    counts = count_below(stack, lams)
    assert counts.dtype == np.int64 and counts.shape == (k, lams.size)
    for row, h, w in zip(counts, ops, spectra):
        assert row.tolist() == count_below(h, lams).tolist()
        assert row.tolist() == np.searchsorted(w, lams, side="left").tolist()
    assert count_below(stack, lams[0]).tolist() == counts[:, 0].tolist()


@pytest.mark.parametrize("kind", ["strip", "mirrored"])
def test_stack_lane_breakdown_falls_back_alone(kind, monkeypatch):
    # lam = an eigenvalue of the first slice of operator 1 (of its even sector
    # when mirrored) makes that lane's S_0 singular; only it takes the range count
    ops, stack = _stack_case(kind, 3, 5)
    first, *_ = spectral._sectors(ops[1])
    b0, b1 = spectral.grid_band(first.d[0, 0], first.coupling, first.root2)
    spectra = [sla.eigvalsh(h.to_dense()) for h in ops]
    merged = np.concatenate(spectra)
    lam = max(sla.eigvalsh_tridiagonal(b0, b1[:-1]), key=lambda x: np.min(np.abs(merged - x)))
    assert np.min(np.abs(merged - lam)) > 1e-3
    calls = []
    real = sla.eigvals_banded

    def counted(band, **kwargs):
        calls.append((band.shape, kwargs["select_range"][1]))
        return real(band, **kwargs)

    monkeypatch.setattr(spectral.sla, "eigvals_banded", counted)
    lams = np.array([merged.min() - 1.0, lam, merged.max() + 1.0])
    counts = count_below(stack, lams)
    assert [c for _, c in calls] == [lam]
    for row, w in zip(counts, spectra):
        assert row.tolist() == np.searchsorted(w, lams, side="left").tolist()


def _line_stack(lead, half, spacing, values):
    """A stack on the strip lead x (2 half + 1): H0 plus a potential on the
    middle row of the trailing axis alone, one operator per row of values,
    so that every operator's odd mirror sector is the same free strip."""
    g = build_grid(len(lead) + 1, spacing, lead + (2 * half + 1,))
    d = np.broadcast_to(free_hamiltonian(g).diag.reshape(g.extents),
                        (len(values),) + g.extents).copy()
    d[..., half] += np.reshape(values, (len(values),) + lead)
    return Hamiltonian(g, d.reshape(len(values), -1))


@settings(max_examples=30, deadline=None)
@given(lead=st.one_of(st.tuples(st.integers(2, 30)),
                      st.tuples(st.integers(1, 8), st.integers(2, 4))),
       half=st.integers(1, 6), spacing=st.sampled_from([1.0, 0.5]),
       k=st.integers(1, 7), levels=st.integers(1, 3), seed=st.integers(0, 10**6))
@example(lead=(30,), half=1, spacing=1.0, k=7, levels=1, seed=0)  # odd sector a chain
@example(lead=(8, 4), half=6, spacing=0.5, k=7, levels=3, seed=1)
def test_free_odd_sector_counted_once_per_scale(lead, half, spacing, k, levels, seed):
    # line values drawn from a few levels, so operators share scales
    rng = np.random.default_rng(seed)
    values = rng.choice(rng.uniform(-6.0, 6.0, levels), size=(k, math.prod(lead)))
    values[0] = 0.0  # H0 itself, as in the surface stacks
    stack = _line_stack(lead, half, spacing, values)
    ops = [Hamiltonian(stack.grid, d) for d in stack.diag]
    assert spectral._sectors(stack)[1].free
    spectra = [sla.eigvalsh(h.to_dense()) for h in ops]
    lams = _gap_energies(np.sort(np.concatenate(spectra)), seed, 12)
    calls = []  # operators per kernel call: the even sector's, then the odd's
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_schur_counts", "_sturm_counts"):
            real = getattr(spectral, name)
            mp.setattr(spectral, name, lambda op, *a, real=real: calls.append(
                len(getattr(op, "d", op))) or real(op, *a))
        counts = count_below(stack, lams)
    assert calls == [k, np.unique(spectral._scale_of(stack)).size]
    for row, h, w in zip(counts, ops, spectra):
        assert row.tolist() == count_below(h, lams).tolist()
        assert row.tolist() == np.searchsorted(w, lams, side="left").tolist()


def test_stacks_rejected_where_one_operator_is_needed():
    _, stack = _stack_case("strip", 2, 3)
    for call in (lambda: eig_all(stack), lambda: eig_all(stack, need_vectors=True),
                 lambda: spectral.matrix_function(stack, ExpWeight(1.0)),
                 lambda: heat_semigroup(stack, 1.0),
                 lambda: diag_of_function(stack, ExpWeight(1.0)), stack.to_dense):
        with pytest.raises(ValueError):
            call()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 10**6), k=st.integers(1, 6))
def test_batched_count_dense(n, seed, k):
    a = random_symmetric(np.random.default_rng(seed), n)
    _check_batched_count(a, sla.eigvalsh(a), seed, k)


# -- full spectra ---------------------------------------------------------------

def test_eig_all_examples():
    assert eig_all(np.array([[3.5]]))[0][0] == 3.5
    assert np.array_equal(eig_all(np.diag([3.0, 1.0, 2.0]))[0],
                          [1.0, 2.0, 3.0])
    a, b = 0.3, 1.7
    two = np.array([[a, b], [b, a]])
    assert np.allclose(eig_all(two)[0], [a - abs(b), a + abs(b)])


def test_eig_all_free_analytic_matches_numeric():
    h = free_hamiltonian(build_grid(2, 1.0, (6, 7)))
    analytic = eig_all(h)[0]
    numeric = sla.eigvalsh(h.to_dense())
    assert np.allclose(analytic, numeric, atol=1e-11)


def test_eig_all_vector_residuals():
    h = alloy_hamiltonian((50,), 2)
    w, u = eig_all(h, need_vectors=True)
    dense = h.to_dense()
    scale = np.abs(dense).sum(axis=1).max()
    for k in range(0, 50, 7):
        r = dense @ u[:, k] - w[k] * u[:, k]
        assert np.linalg.norm(r) <= 1e-8 * scale


@pytest.mark.parametrize("extents", [(1,), (1, 1), (1, 1, 1)])
@pytest.mark.parametrize("d0", [2.0, -0.3, 1e-300, np.pi])
def test_eig_all_one_site(extents, d0):
    # the tridiagonal solver returns a one-site spectrum exactly
    h = Hamiltonian(build_grid(len(extents), 1.0, extents), np.array([d0]))
    values, none = eig_all(h)
    w, u = eig_all(h, need_vectors=True)
    assert none is None
    assert values.tobytes() == w.tobytes() == np.array([d0]).tobytes()
    assert u.tobytes() == np.ones((1, 1)).tobytes()
    assert u.shape == (1, 1)


def _degenerate_24x24():
    """Symmetric boxes with clustered spectra: free, free + constant, and a
    constant well on the centred 8x8 box."""
    grid = Grid(2, 1.0, (24, 24), (-12, -12))
    free = free_hamiltonian(grid)
    cut = np.zeros(grid.n_sites)
    cut[grid.indices(IntBox.centered((8, 8)))] = -1.0
    return free, Hamiltonian(grid, free.diag + 0.5), Hamiltonian(grid, free.diag + cut)


@pytest.mark.parametrize("which", range(3), ids=["free", "constant", "centred_cut"])
def test_eig_all_vectors_on_degenerate_spectra(which):
    h = _degenerate_24x24()[which]
    w, u = eig_all(h, need_vectors=True)
    a = h.to_dense()
    scale = np.abs(a).sum(axis=1).max()
    assert np.all(np.diff(w) >= 0.0)
    assert np.linalg.norm(u.T @ u - np.eye(h.n), 2) <= 1e-12
    assert np.linalg.norm(a @ u - u * w, 2) <= 1e-12 * scale


def test_eig_all_leaves_caller_matrix_unchanged():
    rng = np.random.default_rng(7)
    a = random_symmetric(rng, 40)
    fortran = np.asfortranarray(a)
    kept = a.copy()
    for m in (a, fortran):
        for vectors in (False, True):
            eig_all(m, need_vectors=vectors)
            heat_semigroup(m, 0.3)
            assert np.array_equal(m, kept)


@settings(max_examples=40, deadline=None)
@given(extents=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       spacing=st.sampled_from([1.0, 0.5, 1.3]), t=st.floats(0.05, 3.0),
       lo=st.floats(-1.0, 4.0), width=st.floats(0.5, 6.0))
@example(extents=[1, 6], spacing=0.5, t=1.0, lo=-1.0, width=3.0)
@example(extents=[4, 1, 5], spacing=1.3, t=0.3, lo=0.0, width=2.0)
@example(extents=[1, 1, 1], spacing=1.0, t=1.0, lo=1.0, width=3.0)
def test_free_closed_forms_match_dense(extents, spacing, t, lo, width):
    h = free_hamiltonian(build_grid(len(extents), spacing, tuple(extents)))
    dense = h.to_dense()
    assert np.max(np.abs(heat_semigroup(h, t) - heat_semigroup(dense, t))) <= 1e-13
    for g in (BumpFunction(lo / spacing ** 2, (lo + width) / spacing ** 2),
              ExpWeight(t), ConstantFunction(0.7), ResolventPower(1.0 + t, 2)):
        assert np.max(np.abs(diag_of_function(h, g) - diag_of_function(dense, g))) <= 1e-13


def test_size_cap_only_on_dense_paths(monkeypatch):
    # the closed form and the banded solver form no n x n array: no cap
    free = free_hamiltonian(build_grid(2, 1.0, (100, 50)))
    assert free.n > DENSE_LIMIT
    assert eig_all(free)[0].shape == (5000,)
    strip = alloy_hamiltonian((1000, 5), 4, amplitude=-2.0)
    vals = eig_all(strip)[0]
    assert vals.shape == (5000,) and np.all(np.diff(vals) >= 0.0)
    lams = np.array([vals[0] - 1.0, 0.5 * (vals[2499] + vals[2500]), vals[-1] + 1.0])
    assert count_below(strip, lams).tolist() == [0, 2500, 5000]

    # eigenvectors above the cap are refused before any dense work
    def dense_work(*args, **kwargs):
        raise AssertionError("dense work above the cap")
    monkeypatch.setattr(spectral.sla, "eigh", dense_work)
    monkeypatch.setattr(spectral.sla, "eigh_tridiagonal", dense_work)
    monkeypatch.setattr(Hamiltonian, "to_dense", dense_work)
    for h in (free, strip, free_hamiltonian(build_grid(1, 1.0, DENSE_LIMIT + 1))):
        with pytest.raises(SizeLimitError):
            eig_all(h, need_vectors=True)


# -- windowed eigenpairs (support=(lo, hi)) --------------------------------------

def _full_solve(h):
    a = h.to_dense() if isinstance(h, Hamiltonian) else np.array(h, dtype=float)
    w, u = sla.eigh(a, driver="evd")
    return a, w, u, np.abs(a).sum(axis=1).max()


def _edges_clear(w, lo, hi, scale):
    """No eigenvalue within rounding of a window edge, where the two solves
    may place it on opposite sides."""
    return np.min(np.abs(np.subtract.outer(w, [lo, hi])), initial=np.inf) > 1e-10 * scale


def _check_window(h, lo, hi):
    """The window's pairs against the full evd solve: the same eigenvalues,
    orthonormal vectors with small residuals, and the same diag g(H) for a
    bump on the window.  Returns the number of pairs."""
    a, wf, uf, scale = _full_solve(h)
    w, u = eig_all(h, need_vectors=True, support=(lo, hi))
    inside = wf[(wf > lo) & (wf < hi)]
    assert w.shape == inside.shape and u.shape == (a.shape[0], w.size)
    assert np.all(np.abs(w - inside) <= 1e-13 * scale)
    if w.size:
        assert np.linalg.norm(u.T @ u - np.eye(w.size), 2) <= 1e-12
        assert np.linalg.norm(a @ u - u * w, 2) <= 1e-12 * scale
    g = BumpFunction(lo, hi)
    assert np.max(np.abs(diag_of_function(h, g) - np.square(uf) @ g.value(wf))) <= 1e-13
    if not isinstance(h, Hamiltonian):  # the caller's matrix is left as it was
        assert np.array_equal(h, a)
    return w.size


@settings(max_examples=30, deadline=None)
@given(extents=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       seed=st.integers(0, 10**6), constant=st.booleans(),
       lo=st.floats(-2.0, 8.0), width=st.floats(0.1, 6.0))
@example(extents=[12, 12], seed=0, constant=True, lo=-1.0, width=3.0)
def test_window_matches_full_solve_on_grids(extents, seed, constant, lo, width):
    # constant: H0 + 0.5, whose spectrum is exactly degenerate on square boxes
    h = alloy_hamiltonian(tuple(extents), seed)
    if constant:
        h = Hamiltonian(h.grid, free_hamiltonian(h.grid).diag + 0.5)
    _, w, _, scale = _full_solve(h)
    assume(_edges_clear(w, lo, lo + width, scale))
    _check_window(h, lo, lo + width)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 10**6),
       lo=st.floats(-12.0, 12.0), width=st.floats(0.1, 12.0))
def test_window_matches_full_solve_on_dense(n, seed, lo, width):
    a = random_symmetric(np.random.default_rng(seed), n)
    _, w, _, scale = _full_solve(a)
    assume(_edges_clear(w, lo, lo + width, scale))
    _check_window(a, lo, lo + width)


def test_window_on_a_block_diagonal_matrix_splits_t(monkeypatch):
    # the reduction keeps each block's reflectors inside it, so T splits
    # exactly where the blocks meet, and dstein gets that block map
    rng = np.random.default_rng(11)
    sizes = (7, 1, 12, 5)
    a = sla.block_diag(*(random_symmetric(rng, k) for k in sizes))
    seen = []
    dstein = spectral.lapack.dstein

    def spy(d, e, w, iblock, isplit):
        seen.append((iblock[:w.size].tolist(), isplit[:len(sizes)].tolist()))
        return dstein(d, e, w, iblock, isplit)
    monkeypatch.setattr(spectral.lapack, "dstein", spy)
    w = _full_solve(a)[1]
    lo, hi = 0.5 * (w[2] + w[3]), 0.5 * (w[-3] + w[-2])
    assert _check_window(a, lo, hi) == a.shape[0] - 5
    blocks, ends = seen[0]
    assert ends == np.cumsum(sizes).tolist()
    assert len(set(blocks)) > 1 and blocks == sorted(blocks)


def test_window_without_eigenvalues():
    h = alloy_hamiltonian((9, 7), 5)
    w = _full_solve(h)[1]
    k = int(np.argmax(np.diff(w)))  # the widest gap
    for lo, hi in ((w[-1] + 1.0, w[-1] + 2.0), (w[0] - 2.0, w[0] - 1.0),
                   (w[k] + 0.25 * (w[k + 1] - w[k]), w[k] + 0.75 * (w[k + 1] - w[k]))):
        assert _check_window(h, lo, hi) == 0
        assert _check_window(h.to_dense(), lo, hi) == 0


@pytest.mark.parametrize("make", [
    lambda: alloy_hamiltonian((9, 8), 3),
    lambda: alloy_hamiltonian((9, 8), 3).to_dense(),
    lambda: alloy_hamiltonian((40,), 3),
], ids=["grid", "dense", "chain"])
def test_window_falls_back_to_the_full_solve(make, monkeypatch):
    # inverse iteration that does not converge: every pair of the full solve
    h, g = make(), BumpFunction(-1.0, 2.0)
    w, u = eig_all(h, need_vectors=True)
    monkeypatch.setattr(spectral.lapack, "dstein", lambda d, e, w, *maps: (None, 1))
    assert np.array_equal(diag_of_function(h, g), np.square(u) @ g.value(w))
    again = eig_all(h, need_vectors=True, support=(g.a, g.b))
    assert np.array_equal(again[0], w) and np.array_equal(again[1], u)


# -- heat semigroup -------------------------------------------------------------

def test_heat_trace_examples():
    assert heat_trace(np.array([[0.0]]), 5.0) == pytest.approx(1.0)
    got = heat_trace(np.diag([1.0, 2.0]), 1.0)
    assert got == pytest.approx(np.exp(-1) + np.exp(-2), abs=1e-14)
    for fn in (heat_trace, heat_semigroup):
        with pytest.raises(ValueError):
            fn(np.eye(2), 0.0)


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


def test_trace_norm_refuses_asymmetric_input():
    m = np.diag([1.0, -2.0, 0.5])
    m[0, 2] = 1e-300
    with pytest.raises(ValueError):
        trace_norm(m)
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


# -- matrix functions -------------------------------------------------------------

def _family(w, t, e_gap, m):
    """One g of each FUNCTION_FAMILY kind for a spectrum w, the constant
    negative: a bump over the middle third, exp(-tx), -0.7 and (x + E)^-m;
    and 1/(x + E) with -E in w's widest gap, which changes sign on w."""
    third = (w[-1] - w[0]) / 3.0
    family = [BumpFunction(w[0] + third - 0.1, w[-1] - third + 0.1), ExpWeight(t),
              ConstantFunction(-0.7), ResolventPower(e_gap - w[0], m)]
    if w.size > 1:
        i = int(np.argmax(np.diff(w)))
        family.append(ResolventPower(-0.5 * (w[i] + w[i + 1]), 1))
    return family


@settings(max_examples=30, deadline=None)
@given(extents=st.one_of(st.lists(st.integers(1, 9), min_size=2, max_size=2),
                         st.lists(st.integers(1, 5), min_size=3, max_size=3)),
       seed=st.integers(0, 10**6), free=st.booleans(), t=st.floats(0.05, 3.0),
       e_gap=st.floats(0.5, 4.0), m=st.integers(1, 3))
@example(extents=[9, 9], seed=0, free=False, t=0.5, e_gap=0.5, m=3)
@example(extents=[13, 12], seed=2, free=False, t=1.0, e_gap=1.0, m=2)  # 3 mirror blocks
@example(extents=[5, 4, 5], seed=1, free=True, t=3.0, e_gap=1.0, m=2)
def test_matrix_function_is_a_symmetric_rank_k_update(extents, seed, free, t, e_gap, m):
    h = alloy_hamiltonian(tuple(extents), seed)
    if free:
        h = free_hamiltonian(h.grid)
    pair = eig_all(h, need_vectors=True)
    w, u = pair
    kept = u.copy()
    for g in _family(w, t, e_gap, m):
        ref = (u * g.value(w)) @ u.T
        tol = 1e-13 * np.max(np.abs(g.value(w)))  # relative to |g(H)|_2
        got = spectral.matrix_function(pair, g)
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - ref)) <= tol
        owned = spectral.matrix_function(h, g)
        if free and isinstance(g, ExpWeight):  # the Kronecker product of the axes
            assert np.array_equal(owned, owned.T)
            assert np.max(np.abs(owned - ref)) <= tol
        else:
            assert np.array_equal(owned, got)
    assert np.array_equal(u, kept)  # a passed pair serves the next g unchanged
    assert np.max(np.abs(spectral.matrix_function(pair, ConstantFunction(-0.7))
                         + 0.7 * np.eye(h.n))) <= 1e-13


def test_matrix_function_of_a_zero_function_is_zero():
    h = alloy_hamiltonian((6, 5), 2)
    assert not np.any(spectral.matrix_function(h, BumpFunction(-30.0, -20.0)))


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
