import decimal
import itertools
import math

import numpy as np
import pytest

from ssflab import brownian as br
from ssflab.brownian import (
    RegionError, box_region,
    envelope_constant, gaussian_bound, half_space,
    halfspace_exact, joint_bound_check, simulate_hitting,
)


# -- regions ----------------------------------------------------------------

def test_region_distances():
    hs = half_space(0, 2.0)
    assert hs.distance(np.array([0.0])) == 2.0
    assert hs.distance(np.array([3.0])) == 0.0
    box = box_region((-1.0, -1.0), (1.0, 1.0))
    assert box.distance(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert box.distance(np.array([2.0, 2.0])) == pytest.approx(math.sqrt(2.0))


def test_degenerate_box_rejected():
    with pytest.raises(RegionError):
        box_region((0.0, 0.0), (0.0, 1.0))


# -- gaussian bound ------------------------------------------------------------

def test_gaussian_bound_value():
    # 2 nu exp(-d^2/(4 nu t)) at nu=1, d=2, t=1
    b = gaussian_bound(np.array([0.0]), half_space(0, 2.0), 1.0, 1)
    assert b == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    assert b == pytest.approx(0.7357588823428847, rel=1e-10)


def test_gaussian_bound_decays_with_distance():
    vals = [gaussian_bound(np.array([0.0]), half_space(0, d), 1.0, 1)
            for d in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_bound_dominates_exact_law():
    for d in (0.5, 1.0, 2.0, 3.0):
        for t in (0.25, 1.0, 4.0):
            bound = gaussian_bound(np.array([0.0]), half_space(0, d), t, 1)
            assert halfspace_exact(d, t) <= bound


def test_gaussian_bound_rejects_inside():
    with pytest.raises(RegionError):
        gaussian_bound(np.array([3.0]), half_space(0, 2.0), 1.0, 1)


# -- hitting simulation -----------------------------------------------------------

def test_start_inside_hits_immediately():
    (est,), = simulate_hitting(np.array([3.0]), [half_space(0, 2.0)], [1.0], paths=1000)
    assert est.p_hat == 1.0 and est.stderr == 0.0


def test_halfspace_estimate_matches_exact():
    (est,), = simulate_hitting(np.array([0.0]), [half_space(0, 2.0)], [1.0],
                            paths=40000, bridge=True, seed=11)
    exact = halfspace_exact(2.0, 1.0)
    assert abs(est.p_hat - exact) <= 3.0 * est.stderr
    # per-path hit chances h in [0, 1] with mean p have variance at most
    # p(1 - p), the binomial value, with equality only when every h is 0 or 1
    assert 0.0 < est.stderr < math.sqrt(est.p_hat * (1 - est.p_hat) / (est.paths - 1))


def test_monotone_in_time_up_to_noise():
    vals = []
    for t in (0.25, 1.0, 4.0):
        (est,), = simulate_hitting(np.array([0.0]), [half_space(0, 2.0)], [t],
                                paths=20000, bridge=True, seed=5)
        vals.append((est.p_hat, est.stderr))
    for (p1, s1), (p2, s2) in zip(vals, vals[1:]):
        assert p2 >= p1 - 3.0 * math.hypot(s1, s2)


def test_bridge_dominates_plain_pathwise():
    for seed in (0, 1, 2):
        (b,), = simulate_hitting(np.array([0.0]), [half_space(0, 1.5)], [1.0],
                              paths=5000, bridge=True, seed=seed)
        (p,), = simulate_hitting(np.array([0.0]), [half_space(0, 1.5)], [1.0],
                              paths=5000, bridge=False, seed=seed)
        assert b.p_hat >= p.p_hat


def test_mirrored_halfspace_same_law():
    (up,), = simulate_hitting(np.array([0.0]), [half_space(0, 1.5, side=+1)], [1.0],
                           paths=20000, bridge=True, seed=6)
    (down,), = simulate_hitting(np.array([0.0]), [half_space(0, -1.5, side=-1)], [1.0],
                             paths=20000, bridge=True, seed=7)
    assert abs(up.p_hat - down.p_hat) <= 3.0 * math.hypot(up.stderr, down.stderr)
    exact = halfspace_exact(1.5, 1.0)
    assert abs(down.p_hat - exact) <= 3.0 * down.stderr


def test_dt_and_path_preconditions():
    with pytest.raises(RegionError):
        simulate_hitting(np.array([0.0]), [half_space(0, 1.0)], [1.0], paths=10)
    # the checks run before the start-inside shortcut
    with pytest.raises(RegionError):
        simulate_hitting(np.array([2.0]), [half_space(0, 1.0)], [1.0], paths=10)
    with pytest.raises(RegionError):
        simulate_hitting(np.array([2.0]), [half_space(0, 1.0)], [0.0])
    with pytest.raises(RegionError):
        joint_bound_check(np.zeros(2), box_region((-1.0, -1.0), (1.0, 1.0)), 0.0)
    with pytest.raises(RegionError):  # a box is the joint bound's, not a hitting target
        simulate_hitting(np.zeros(2), [half_space(0, 1.0), box_region((1.0, -1.0), (2.0, 1.0))],
                         [1.0], paths=1000)


def test_simulation_deterministic_in_seed():
    (a,), = simulate_hitting(np.array([0.0]), [half_space(0, 1.0)], [1.0],
                          paths=4000, seed=9)
    (b,), = simulate_hitting(np.array([0.0]), [half_space(0, 1.0)], [1.0],
                          paths=4000, seed=9)
    assert a.p_hat == b.p_hat


def _bridge_avoid(a, dt):
    return 1.0 - np.where(a <= 0.0, 1.0, np.exp(-a / dt))


def _reference_p_hat(x, region, t, paths, seed, bridge=True):
    """One region alone, block by block, every bridge factor evaluated on every
    path and step, side -1 mirrored onto side +1.  Only the region's axis j
    moves, drawn from the block's stream jumped j times.  Returns (p_hat, stderr)."""
    dt, j = t / br._N_STEPS, region.axis
    total = squares = 0.0
    for m, rng in br._path_blocks((t,), paths, seed):
        if j:
            rng = np.random.Generator(rng.bit_generator.jumped(j))
        pos = np.tile(x, (m, 1))
        survive = np.ones(m)
        for _ in range(br._N_STEPS):
            new = pos.copy()
            new[:, j] += math.sqrt(2.0 * dt) * rng.standard_normal(m)
            if not bridge:
                survive *= ~region.contains(new)
            else:
                c, d = region.side * pos[:, region.axis], region.side * new[:, region.axis]
                a = (region.side * region.threshold - c) * (region.side * region.threshold - d)
                survive *= _bridge_avoid(a, dt)
            pos = new
        total += float(np.sum(1.0 - survive))
        squares += float(np.sum((1.0 - survive) ** 2))
    p = min(max(total / paths, 0.0), 1.0)
    return p, math.sqrt(max(squares / paths - p * p, 0.0) / (paths - 1))


@pytest.mark.parametrize("nu", [1, 2])
def test_shared_paths_equal_separate_calls(nu):
    x = np.zeros(nu)
    regions = [half_space(0, 1.0), half_space(nu - 1, -0.75, side=-1),
               half_space(0, -0.5)]  # the last one holds the start
    shared, = simulate_hitting(x, regions, [0.5], paths=5000, seed=3)
    for r, est in zip(regions, shared):
        (alone,), = simulate_hitting(x, [r], [0.5], paths=5000, seed=3)
        assert est == alone
    assert shared[2].p_hat == 1.0 and shared[2].stderr == 0.0
    assert 0.0 < shared[0].p_hat < 1.0 and 0.0 < shared[1].p_hat < 1.0
    # the skip of unit bridge factors is exact
    for r, est in zip(regions[:2], shared):
        assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, 0.5, 5000, 3)


def test_list_form_endpoint_detection_and_bridge():
    x = np.array([2.0, 0.0])
    regions = [half_space(0, 3.0), half_space(1, -1.0, side=-1)]
    plain, = simulate_hitting(x, regions, [0.5], paths=2000, bridge=False, seed=4)
    assert not any(e.bridge for e in plain)
    for r, est in zip(regions, plain):
        assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, 0.5, 2000, 4, bridge=False)
    bridged, = simulate_hitting(x, regions, [0.5], paths=2000, bridge=True, seed=4)
    assert all(e.bridge for e in bridged)
    for r, est in zip(regions, bridged):
        assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, 0.5, 2000, 4)
    assert all(b.p_hat > p.p_hat for b, p in zip(bridged, plain))



@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("nu", [1, 2])
def test_times_share_one_draw(nu, bridge):
    x = np.zeros(nu)
    regions = [half_space(0, 1.0), half_space(nu - 1, -0.75, side=-1),
               half_space(0, -0.5)]  # the last one holds the start
    times = [0.25, 1.0]
    joint = simulate_hitting(x, regions, times, paths=2000, bridge=bridge, seed=3)
    assert len(joint) == len(times)
    for t, ests in zip(times, joint):
        alone, = simulate_hitting(x, regions, [t], paths=2000, bridge=bridge, seed=3)
        assert ests == alone
        assert all(e.bridge == bridge for e in ests)
        assert ests[2].p_hat == 1.0 and ests[2].stderr == 0.0
        for r, est in zip(regions[:2], ests):
            assert 0.0 < est.p_hat < 1.0
            assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, t, 2000, 3, bridge=bridge)


def _planned(monkeypatch):
    """The (lanes, twins) plans of the simulate_hitting calls that follow."""
    plans = []
    plan = br._plan_lanes
    monkeypatch.setattr(br, "_plan_lanes", lambda *args: plans.append(plan(*args)) or plans[-1])
    return plans


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("nu", [1, 2])
def test_rescaling_twins_on_the_shipped_grid(nu, bridge, monkeypatch):
    # (d, t) = (1, 1) rescales (0.5, 0.25) and (2, 1) rescales (1, 0.25) by
    # s = 2 exactly, so 4 of the 6 (time, target) pairs are stepped
    plans = _planned(monkeypatch)
    x, times = np.zeros(nu), [0.25, 1.0]
    regions = [half_space(0, d) for d in (0.5, 1.0, 2.0)]
    ests = simulate_hitting(x, regions, times, paths=2000, bridge=bridge, seed=8)
    (lanes, twins), = plans
    assert len(lanes) == 4 and twins == {(1, 1): (0, 0), (1, 2): (0, 1)}
    for t, row in zip(times, ests):
        for r, est in zip(regions, row):
            assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, t, 2000, 8, bridge=bridge)


@pytest.mark.parametrize("x, regions, times", [
    ([0.1], [half_space(0, d) for d in (0.5, 1.0, 2.0)], [0.25, 1.0]),
    ([0.0], [half_space(0, d) for d in (0.5, 1.0, 2.0)], [0.25, 0.5]),
    ([0.0], [half_space(0, 0.5), half_space(0, 1.5)], [0.25, 2.25]),
    ([0.0], [half_space(0, 0.5), half_space(0, 1.0)], [0.25, math.nextafter(1.0, 2.0)]),
    ([0.0], [half_space(0, 0.5), half_space(0, -1.0, side=-1)], [0.25, 1.0]),
    ([0.0, 0.0], [half_space(0, 0.5), half_space(1, 1.0)], [0.25, 1.0]),
], ids=["start-off-zero", "sigma-ratio-sqrt2", "ratio-3", "dt-off-by-an-ulp",
        "opposite-side", "other-axis"])
def test_near_rescalings_are_stepped(x, regions, times, monkeypatch):
    # each misses one condition of an exact rescaling, so no pair is a twin:
    # at ratio 3 sigma, dt and b all scale exactly, but z sigma does not; one
    # ulp above t = 1, sigma still rounds to twice that of t = 0.25, dt does not
    plans = _planned(monkeypatch)
    x = np.array(x)
    ests = simulate_hitting(x, regions, times, paths=2000, seed=8)
    (lanes, twins), = plans
    assert twins == {} and len(lanes) == len(regions) * len(times)
    for t, row in zip(times, ests):
        for r, est in zip(regions, row):
            assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, t, 2000, 8)


@pytest.mark.parametrize("times", [[1.0, 0.0], [0.0, 1.0], []])
@pytest.mark.parametrize("start", [0.0, 2.0])
def test_every_time_checked_before_the_draw(times, start):
    # a start inside the region needs no draw, yet the times are still checked
    with pytest.raises(RegionError):
        simulate_hitting(np.array([start]), [half_space(0, 1.0)], times, paths=1000)


class _Normals:
    """A generator that records how many normals it draws and scales them by
    ``scale`` (1: left as drawn)."""

    def __init__(self, rng, drawn, scale):
        self.rng, self.drawn, self.scale = rng, drawn, scale
        self.bit_generator = rng.bit_generator

    def standard_normal(self, size=None, *, out=None):
        out = self.rng.standard_normal(size, out=out)
        if self.scale != 1.0:
            out *= self.scale
        self.drawn.append(out.size)
        return out


def _wrap_generators(monkeypatch, scale=1.0):
    """Route every Generator made from here on through _Normals; returns the
    list of the sizes drawn."""
    drawn, make = [], np.random.Generator
    monkeypatch.setattr(np.random, "Generator", lambda bits: _Normals(make(bits), drawn, scale))
    return drawn


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_an_axis_estimate_reads_only_its_own_stream(axis):
    # an estimate on axis j depends only on (seed, x_j, target, time): bitwise
    # the same at every nu > j, alone or beside targets on the other axes,
    # whatever the start's other coordinates
    times, mine = [0.25, 1.0], [half_space(axis, 0.8), half_space(axis, -0.6, side=-1)]
    runs = []
    for nu in range(axis + 1, 4):
        x = np.full(nu, 0.05 * nu)
        x[axis] = 0.1
        alone = simulate_hitting(x, mine, times, paths=2000, seed=4)
        others = [half_space(j, 0.5) for j in range(nu) if j != axis]
        shared = simulate_hitting(x, others + mine, times, paths=2000, seed=4)
        assert [row[len(others):] for row in shared] == alone
        runs.append(alone)
    assert all(run == runs[0] for run in runs)
    for t, row in zip(times, runs[0]):
        for r, est in zip(mine, row):
            assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, t, 2000, 4)


def test_only_the_normals_read_are_drawn(monkeypatch):
    drawn = _wrap_generators(monkeypatch)
    paths, box = 5000, box_region((-1.0, -1.0), (1.0, 1.0))
    on_axis_0 = [half_space(0, d) for d in (0.5, 1.0, 2.0)]
    simulate_hitting(np.zeros(2), on_axis_0, [0.25, 1.0], paths=paths, seed=2)
    assert sum(drawn) == paths * br._N_STEPS
    drawn.clear()
    simulate_hitting(np.zeros(3), [half_space(2, 1.0)] + on_axis_0, [1.0], paths=paths, seed=2)
    assert sum(drawn) == paths * br._N_STEPS * 2
    drawn.clear()
    joint_bound_check(np.array([2.0, 0.0]), box, 0.5, paths=paths, seed=3)
    assert sum(drawn) == paths * 2
    # from the start inside, a block's dead rows stop drawing once a quarter
    # of its rows are dead: one normal per axis takes each to X_t
    drawn.clear()
    joint_bound_check(np.zeros(2), box, 0.5, paths=16384, seed=3)
    inside = sum(drawn)
    drawn.clear()
    _reference_joint(np.zeros(2), box, 0.5, 16384, 3)
    assert inside == sum(drawn) <= 0.75 * 16384 * 2 * br._N_STEPS


# -- joint bound ---------------------------------------------------------------------

def test_envelope_constant_closed_form():
    assert envelope_constant(1.0, 2) == pytest.approx(5.0 ** 0.5)
    assert envelope_constant(1.0, 1) == pytest.approx(5.0 ** 0.25)


def test_joint_bound_deep_inside_tiny_t():
    box = box_region((-4.0, -4.0), (4.0, 4.0))
    out = joint_bound_check(np.zeros(2), box, 0.01, paths=2000, seed=1)
    assert out["lhs"] <= 1e-3 and out["p_exit"] <= 1e-3
    assert out["holds_3sigma"]


def test_joint_bound_inside_and_outside():
    box = box_region((-1.0, -1.0), (1.0, 1.0))
    inside = joint_bound_check(np.zeros(2), box, 0.5, paths=20000, seed=2)
    assert inside["envelope"] == 1.0
    assert inside["lhs"] <= math.sqrt(inside["p_exit"]) + 3 * inside["lhs_stderr"]
    assert inside["holds_3sigma"]
    outside = joint_bound_check(np.array([2.0, 0.0]), box, 0.5, paths=20000, seed=3)
    assert outside["distance"] == pytest.approx(1.0)
    assert outside["c_eps"] == pytest.approx(5.0 ** 0.5)
    assert outside["holds_3sigma"]


def _reference_joint(x, box, t, paths, seed):
    """(lhs, lhs_stderr, p_exit, p_exit_stderr) of joint_bound_check, block by
    block, with the box bridge factor evaluated on every live path and step.
    At the start of step k a block with at least a quarter of its rows dead
    (S == 0) retires them: each draws one normal per axis and steps to X_t over
    the time left, t - k dt, and they count as integers.  From a start outside
    the box every row retires before step 0."""
    dt = t / br._N_STEPS
    sums = np.zeros(4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(br, "_FAR", math.inf)
        for m, rng in br._path_blocks((t,), paths, seed):
            pos = np.tile(x, (m, 1))
            survive = box.contains(pos).astype(float)
            retired = retired_in_b = 0
            for k in range(br._N_STEPS):
                dead = survive == 0.0
                if dead.any() and 4 * dead.sum() >= dead.size:
                    x_t = pos[dead] + rng.standard_normal((int(dead.sum()), x.size)) \
                        * math.sqrt(2.0 * (t - k * dt))
                    retired += int(dead.sum())
                    retired_in_b += int(box.contains(x_t).sum())
                    pos, survive = pos[~dead], survive[~dead]
                if survive.size == 0:
                    break
                new = pos + math.sqrt(2.0 * dt) * rng.standard_normal(pos.shape)
                br._stay_in_box(pos, new, box.lo, box.hi, dt, survive)
                pos = new
            h = 1.0 - survive
            g = h * box.contains(pos)
            sums += (retired + float(np.sum(h)), retired + float(np.sum(h * h)),
                     retired_in_b + float(np.sum(g)), retired_in_b + float(np.sum(g * g)))
    p_exit, lhs = sums[0] / paths, sums[2] / paths
    return (lhs, math.sqrt(max(sums[3] / paths - lhs * lhs, 0.0) / (paths - 1)),
            p_exit, math.sqrt(max(sums[1] / paths - p_exit * p_exit, 0.0) / (paths - 1)))


def _joint(out):
    return out["lhs"], out["lhs_stderr"], out["p_exit"], out["p_exit_stderr"]


@pytest.mark.parametrize("start", [(0.0, 0.0), (2.0, 0.0)])
def test_joint_bound_matches_block_bridge_reference(start):
    x = np.array(start)
    box = box_region((-1.0, -1.0), (1.0, 1.0))
    out = joint_bound_check(x, box, 0.5, paths=2000, seed=5)
    assert _joint(out) == _reference_joint(x, box, 0.5, 2000, 5)
    assert 0.0 < out["lhs"] < out["p_exit"]


def test_sweep_boundary_matches_block_references():
    # four full blocks fill the first sweep; a ragged block sits alone in the second
    paths = 4 * br._PATH_BLOCK + 1000
    assert [[b.stop - b.start for b, _ in sw] for sw in br._sweeps((0.5,), paths, 3)] \
        == [[br._PATH_BLOCK] * 4, [1000]]
    x = np.zeros(2)
    # at this key, summing the hit chances over a whole sweep at once moves the
    # mean and standard error of the axis-0 estimate in their last bits
    regions = [half_space(0, 0.5), half_space(1, -0.5, side=-1)]
    ests, = simulate_hitting(x, regions, [0.25], paths=paths, seed=3)
    for r, est in zip(regions, ests):
        assert (est.p_hat, est.stderr) == _reference_p_hat(x, r, 0.25, paths, 3)
    box = box_region((-1.0, -1.0), (1.0, 1.0))
    for start in ((0.0, 0.0), (2.0, 0.0)):
        out = joint_bound_check(np.array(start), box, 0.5, paths=paths, seed=3)
        assert _joint(out) == _reference_joint(np.array(start), box, 0.5, paths, 3)


def _bridge_stay_by_eigenfunctions(u, v, w, dt):
    """P(bridge from u to v over dt stays in (0, w)) at variance 2 dt, as the
    killed transition density (sine series) over the free one."""
    n = np.arange(1, 400)
    killed = np.sum(2.0 / w * np.sin(n * np.pi * u / w) * np.sin(n * np.pi * v / w)
                    * np.exp(-n * n * np.pi ** 2 * dt / w ** 2))
    return killed / (math.exp(-(v - u) ** 2 / (4.0 * dt)) / math.sqrt(4.0 * math.pi * dt))


def test_box_bridge_factor_matches_eigenfunction_series():
    # (u, v) pairs in a width-2 interval, from deep inside to next to a face,
    # at step lengths from 1/32 to 2 (the image series then needs K = 2); the
    # sine series loses its accuracy at shorter steps
    for dt in (1.0 / 32, 0.5, 2.0):
        u = np.array([1.0, 0.3, 0.05, 1.9, 0.6, 1.2])
        v = np.array([1.0, 0.7, 0.08, 1.95, 0.1, 1.4])
        survive = np.ones(u.size)
        br._stay_in_box(u[:, None] - 1.0, v[:, None] - 1.0, (-1.0,), (1.0,), dt, survive)
        want = [_bridge_stay_by_eigenfunctions(a, b, 2.0, dt) for a, b in zip(u, v)]
        assert np.allclose(survive, want, rtol=1e-9, atol=1e-15)
    # an end point outside the interval, or on a face, leaves nothing
    survive = np.ones(3)
    br._stay_in_box(np.array([[0.0], [0.0], [1.0]]), np.array([[1.5], [-1.0], [0.5]]),
                    (-1.0,), (1.0,), 0.1, survive)
    assert survive.tolist() == [0.0, 0.0, 0.0]


def _full_k_factor(u, v, w, dt):
    """The box bridge factor on (0, w) with every image term up to K evaluated
    on every path, in _stay_in_box's operation order."""
    f = 1.0 - np.exp(-(u * v) / dt) - np.exp(-((w - u) * (w - v)) / dt)
    K = next(k for k in itertools.count(1) if k * (k + 1) * w * w >= 45.0 * dt)
    for kw in w * np.arange(1.0, K + 1):
        f += np.exp(-kw * (kw + v - u) / dt) + np.exp(-kw * (kw - v + u) / dt)
        f -= np.exp(-(kw + u) * (kw + v) / dt) + np.exp(-(kw + w - u) * (kw + w - v) / dt)
    return np.where((u * v <= 0.0) | ((w - u) * (w - v) <= 0.0), 0.0, np.maximum(f, 0.0))


def _stay_by_eigenfunctions_decimal(u, v, w, dt):
    """_bridge_stay_by_eigenfunctions in 60-digit decimals: when a step nearly
    crosses the interval both densities are tiny, and the float sine series
    loses most of its digits to cancellation."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        pi = D("3.14159265358979323846264338327950288419716939937510582097494459")

        def sin(x):  # Taylor series after reduction to [0, 2 pi)
            x = x % (2 * pi)
            term = total = x
            for k in itertools.count(1):
                term *= -x * x / ((2 * k) * (2 * k + 1))
                total += term
                if abs(term) < D(10) ** -70:
                    return total

        u, v, w, dt = map(D, (u, v, w, dt))
        killed = sum(2 / w * sin(n * pi * u / w) * sin(n * pi * v / w)
                     * (-n * n * pi * pi * dt / (w * w)).exp() for n in range(1, 150))
        return float(killed / ((-(v - u) ** 2 / (4 * dt)).exp() / (4 * pi * dt).sqrt()))


def test_step_nearly_across_the_box_keeps_its_image_terms():
    # from next to one face to next to the other in one step: the first image
    # term is about exp(-1.9), so dropping it would lose 0.147 of the factor
    u, v, w, dt = 0.01, 1.98, 2.0, 1.0 / 32
    assert w * (w - abs(v - u)) < br._TAIL * dt
    survive = np.ones(1)
    br._stay_in_box(np.array([[u]]), np.array([[v]]), (0.0,), (w,), dt, survive)
    assert survive[0] == _full_k_factor(np.array([u]), np.array([v]), w, dt)[0]
    assert survive[0] == pytest.approx(_stay_by_eigenfunctions_decimal(u, v, w, dt), rel=1e-12)
    face_terms_only = 1.0 - math.exp(-u * v / dt) - math.exp(-(w - u) * (w - v) / dt)
    assert survive[0] - face_terms_only > 0.1


@pytest.mark.parametrize("dt", [1.0 / 64, 1.0 / 32, 0.5, 2.0])
def test_image_term_cut_within_its_bound(dt):
    # random steps from within 0.3 of a face of (0, 2), every path evaluated
    # (_FAR = inf): half Gaussian steps, half landing near the other face;
    # at dt = 2 the series needs K = 5
    rng = np.random.default_rng(11)
    w = 2.0
    u = np.where(rng.random(4000) < 0.5, 0.3, w - 0.3) + rng.uniform(-0.3, 0.3, 4000)
    v = np.where(rng.random(4000) < 0.5, u + math.sqrt(2.0 * dt) * rng.standard_normal(4000),
                 w - u + rng.uniform(-0.05, 0.05, 4000))
    survive = np.ones(u.size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(br, "_FAR", math.inf)
        br._stay_in_box(u[:, None], v[:, None], (0.0,), (w,), dt, survive)
    full = _full_k_factor(u, v, w, dt)
    assert np.all(np.abs(survive - full) <= 2.0 ** -54)
    live = (0.0 < v) & (v < w)
    near = w * (w - np.abs(v - u)) < br._TAIL * dt
    # live steps keep their image terms, bitwise as the full evaluation, and
    # drop them wherever the cut can apply at all (w^2 >= _TAIL dt)
    assert np.any(live & near)
    assert np.any(live & ~near) == (w * w >= br._TAIL * dt)
    assert np.array_equal(survive[near], full[near])


def test_start_outside_the_box_evaluates_no_box_factor(monkeypatch):
    box = box_region((-1.0, -1.0), (1.0, 1.0))
    starts = ((2.0, 0.0), (0.0, 0.0))
    want = [_reference_joint(np.array(s), box, 0.5, 2000, 5) for s in starts]
    calls = []
    stay = br._stay_in_box
    monkeypatch.setattr(br, "_stay_in_box", lambda *args: calls.append(1) or stay(*args))
    outside = joint_bound_check(np.array(starts[0]), box, 0.5, paths=2000, seed=5)
    assert calls == [] and _joint(outside) == want[0]
    assert outside["p_exit"] == 1.0 and 0.0 < outside["lhs"] < 1.0
    inside = joint_bound_check(np.array(starts[1]), box, 0.5, paths=2000, seed=5)
    assert len(calls) == br._N_STEPS and _joint(inside) == want[1]


def _lhs_closed_form(x, box, t) -> float:
    """lhs = P_x{X_t in B} - prod_j P_j(stay in (lo_j, hi_j) up to t), with
    P_x{X_t in B} = prod_j [Phi((hi_j - x_j)/sqrt(2t)) - Phi((lo_j - x_j)/sqrt(2t))]:
    E[1{X_t in B} S] = P_x{tau > t}, since a path that never left the box ends
    in it.  From a start outside the box the product of stays is 0."""
    sd = math.sqrt(2.0 * t)
    phi = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    c = list(zip(x.tolist(), box.lo, box.hi))
    return (math.prod(phi((hi - xj) / sd) - phi((lo - xj) / sd) for xj, lo, hi in c)
            - math.prod(br._interval_survival(*cj, t) for cj in c))


def _lhs_off_its_closed_form(x, box, t, paths, seed) -> bool:
    """Whether joint_bound_check's lhs lies more than 3 sigma from its closed form."""
    out = joint_bound_check(x, box, t, paths=paths, seed=seed)
    return abs(out["lhs"] - _lhs_closed_form(x, box, t)) > 3.0 * out["lhs_stderr"]


def test_outside_lhs_matches_its_closed_form(monkeypatch):
    x, box = np.array([2.0, 0.0]), box_region((-1.0, -1.0), (1.0, 1.0))
    assert not _lhs_off_its_closed_form(x, box, 0.5, 8192, 4)
    # planted defect: the step taken at sigma = sqrt(t), not sqrt(2t), by
    # scaling every normal by 1/sqrt(2)
    _wrap_generators(monkeypatch, scale=math.sqrt(0.5))
    assert _lhs_off_its_closed_form(x, box, 0.5, 8192, 4)


def test_inside_lhs_matches_its_closed_form(monkeypatch):
    x, box = np.zeros(2), box_region((-1.0, -1.0), (1.0, 1.0))
    assert _lhs_closed_form(x, box, 0.5) == pytest.approx(0.4661 - 0.1375, abs=1e-4)
    assert not _lhs_off_its_closed_form(x, box, 0.5, 8192, 4)
    step = br._step_to_t
    # planted defects in the step that takes a retired path to X_t: taken over
    # the whole t instead of the time left, and X_t frozen where the path was
    # retired (its normals still drawn)
    monkeypatch.setattr(br, "_step_to_t", lambda x0, rng, span: step(x0, rng, 0.5))
    assert _lhs_off_its_closed_form(x, box, 0.5, 8192, 4)
    monkeypatch.setattr(br, "_step_to_t", lambda x0, rng, span: (step(x0, rng, span), x0)[1])
    assert _lhs_off_its_closed_form(x, box, 0.5, 8192, 4)


def test_interval_survival_matches_eigenfunction_series():
    for x, t in ((0.0, 0.5), (0.3, 0.1), (0.9, 2.0), (-0.99, 0.01)):
        n = np.arange(1, 400, 2)
        want = np.sum(4.0 / (n * np.pi) * np.sin(n * np.pi * (x + 1.0) / 2.0)
                      * np.exp(-n * n * np.pi ** 2 * t / 4.0))
        assert br._interval_survival(x, -1.0, 1.0, t) == pytest.approx(want, abs=1e-13)
    assert br._interval_survival(1.0, -1.0, 1.0, 0.5) == 0.0
    assert br._interval_survival(2.0, -1.0, 1.0, 0.5) == 0.0


@pytest.mark.parametrize("n_steps", [1, 4, 16])
def test_bridged_exit_unbiased_at_any_step_count(n_steps, monkeypatch):
    # the bridge factors are exact, so p_exit matches 1 - P_1 P_2 at every
    # step count; discrete monitoring of the same paths misses it far outside 3 sigma
    monkeypatch.setattr(br, "_N_STEPS", n_steps)
    box = box_region((-1.0, -1.0), (1.0, 1.0))
    out = joint_bound_check(np.zeros(2), box, 0.5, paths=16384, seed=7)
    assert out["p_exit_exact"] == pytest.approx(1.0 - 0.37077742979952394 ** 2, rel=1e-12)
    assert abs(out["p_exit"] - out["p_exit_exact"]) <= 3.0 * out["p_exit_stderr"]
    monkeypatch.setattr(br, "_stay_in_box", _discrete_box_monitoring)
    plain = joint_bound_check(np.zeros(2), box, 0.5, paths=16384, seed=7)
    assert plain["p_exit"] - plain["p_exit_exact"] < -3.0 * plain["p_exit_stderr"]


def _discrete_box_monitoring(x0, x1, lo, hi, dt, survive):
    """Planted defect: a path exits only when a grid point lies outside the box."""
    survive *= np.all((x1 > np.asarray(lo)) & (x1 < np.asarray(hi)), axis=1)
