import math

import numpy as np
import pytest

from ssflab.brownian import (
    RegionError, box_complement, box_region,
    envelope_constant, gaussian_bound, half_space,
    halfspace_exact, joint_bound_check, simulate_hitting, slab_complement,
)


# -- regions ----------------------------------------------------------------

def test_region_distances():
    hs = half_space(0, 2.0)
    assert hs.distance(np.array([0.0])) == 2.0
    assert hs.distance(np.array([3.0])) == 0.0
    slab = slab_complement(0, -1.0, 1.0)
    assert slab.distance(np.array([0.25])) == pytest.approx(0.75)
    assert slab.distance(np.array([2.0])) == 0.0
    box = box_region((-1.0, -1.0), (1.0, 1.0))
    assert box.distance(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert box.distance(np.array([2.0, 2.0])) == pytest.approx(math.sqrt(2.0))
    comp = box_complement((-1.0, -1.0), (1.0, 1.0))
    assert comp.distance(np.array([0.0, 0.0])) == pytest.approx(1.0)


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
    est = simulate_hitting(np.array([3.0]), half_space(0, 2.0), 1.0, paths=1000)
    assert est.p_hat == 1.0 and est.stderr == 0.0


def test_halfspace_estimate_matches_exact():
    est = simulate_hitting(np.array([0.0]), half_space(0, 2.0), 1.0,
                           paths=40000, bridge=True, seed=11)
    exact = halfspace_exact(2.0, 1.0)
    assert abs(est.p_hat - exact) <= 3.0 * est.stderr
    assert est.stderr == pytest.approx(
        math.sqrt(est.p_hat * (1 - est.p_hat) / est.paths))


def test_monotone_in_time_up_to_noise():
    vals = []
    for t in (0.25, 1.0, 4.0):
        est = simulate_hitting(np.array([0.0]), half_space(0, 2.0), t,
                               paths=20000, bridge=True, seed=5)
        vals.append((est.p_hat, est.stderr))
    for (p1, s1), (p2, s2) in zip(vals, vals[1:]):
        assert p2 >= p1 - 3.0 * math.hypot(s1, s2)


def test_bridge_dominates_plain_pathwise():
    for seed in (0, 1, 2):
        b = simulate_hitting(np.array([0.0]), half_space(0, 1.5), 1.0,
                             paths=5000, bridge=True, seed=seed)
        p = simulate_hitting(np.array([0.0]), half_space(0, 1.5), 1.0,
                             paths=5000, bridge=False, seed=seed)
        assert b.p_hat >= p.p_hat


def test_slab_complement_bridge_supported():
    est = simulate_hitting(np.array([0.0]), slab_complement(0, -1.0, 1.0), 0.5,
                           paths=5000, bridge=True, seed=3)
    assert est.bridge and not est.bridge_warning
    assert 0.0 < est.p_hat < 1.0


def test_mirrored_halfspace_same_law():
    up = simulate_hitting(np.array([0.0]), half_space(0, 1.5, side=+1), 1.0,
                          paths=20000, bridge=True, seed=6)
    down = simulate_hitting(np.array([0.0]), half_space(0, -1.5, side=-1), 1.0,
                            paths=20000, bridge=True, seed=7)
    assert abs(up.p_hat - down.p_hat) <= 3.0 * math.hypot(up.stderr, down.stderr)
    exact = halfspace_exact(1.5, 1.0)
    assert abs(down.p_hat - exact) <= 3.0 * down.stderr


def test_box_falls_back_with_warning():
    est = simulate_hitting(np.array([2.0, 0.0]), box_region((-1.0, -1.0), (1.0, 1.0)),
                           0.5, paths=2000, bridge=True, seed=4)
    assert est.bridge_warning and not est.bridge


def test_dt_and_path_preconditions():
    with pytest.raises(RegionError):
        simulate_hitting(np.array([0.0]), half_space(0, 1.0), 1.0, paths=1000, dt=0.5)
    with pytest.raises(RegionError):
        simulate_hitting(np.array([0.0]), half_space(0, 1.0), 1.0, paths=10)


def test_simulation_deterministic_in_seed():
    a = simulate_hitting(np.array([0.0]), half_space(0, 1.0), 1.0,
                         paths=4000, seed=9)
    b = simulate_hitting(np.array([0.0]), half_space(0, 1.0), 1.0,
                         paths=4000, seed=9)
    assert a.p_hat == b.p_hat


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
