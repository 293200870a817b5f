"""Monte Carlo checks for the Brownian hitting-time machinery.

The process is the one generated by the discrete-free limit H0 = -Laplace:
per-coordinate increments have variance 2*dt and the transition density is
the kernel (4 pi t)^(-nu/2) exp(-|x-y|^2 / 4t).  Under this normalisation the
one-dimensional half-space hitting law is erfc(d / (2 sqrt(t))) and the
Gaussian envelope reads 2 nu exp(-d^2 / (4 nu t)).

A half-space at distance d from the start, in any dimension, is hit exactly
when the coordinate along its normal first reaches d, so a hitting estimate
walks that one coordinate and reads the target through d alone.
Paths are sampled exactly at the grid times, and each step multiplies a
path's survival by the chance that the Brownian bridge between its end points
misses the target (Glasserman, Monte Carlo Methods in Financial Engineering,
6.4; Borodin & Salminen, Handbook of Brownian Motion), so the estimates are
unbiased at any step count; endpoint detection alone (bridge=False) is not.
Work that cannot move a bit is skipped: image terms past the face terms only
on steps nearly across the box, and no step of a hitting estimate that exactly
rescales another (B_{s^2 t} = s B_t, s a power of two), which is copied.  A
dead path of the joint check leaves its sweep with one exact step to t (from
outside the box, all at once).

One call estimates many distances and times from one draw of the
counter-based paths (Philox keyed by seed and block), each bitwise as if
simulated alone.
Each step advances a sweep of up to _SWEEP blocks as one array, so memory is
bounded by the sweep, and estimates are bitwise those of block-by-block runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class RegionError(ValueError):
    """Raised on malformed region geometry or invalid inputs."""


_PATH_BLOCK = 4096  # fixed partition of paths into RNG blocks
_SWEEP = 4          # blocks advanced together per step; larger sweeps leave cache
# Time steps per path, each t / _N_STEPS long.  With exact bridge factors the
# count sets only speed and variance.  Fewer steps lower the traced mc-paths
# benchmark's trace.coverage (perfbench/README.md, gate 0.95), as fixed set-up
# time then dominates: at 16 it fell below the gate in 2 of 31 repetitions; at
# 32, with dead joint paths retired, its minimum was 0.954 over 140.
_N_STEPS = 32
_RETIRE = 4         # a block retires its dead rows once 1/_RETIRE of its rows are dead
_EPS = 1.0          # eps of the joint bound's envelope constant C_eps
_FAR = 40.0         # a face product a >= _FAR dt: exp(-a/dt) < 2^-54, a bridge factor of 1.0
_TAIL = 45.0        # box image terms below exp(-_TAIL) are dropped


# ---------------------------------------------------------------------------
# the joint bound's box


@dataclass(frozen=True)
class Box:
    """The closed box [lo, hi] of joint_bound_check."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise RegionError("box needs matching lo/hi tuples")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise RegionError("degenerate box")

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Membership for an (m, nu) array of points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= np.asarray(self.lo)) & (x <= np.asarray(self.hi)), axis=1)

    def distance(self, x) -> float:
        """Closed-form Euclidean distance from x to the box (0 inside)."""
        x = np.asarray(x, dtype=float)
        gap = np.maximum(np.maximum(np.asarray(self.lo) - x, x - np.asarray(self.hi)), 0.0)
        return float(np.sqrt(np.sum(gap ** 2)))


def box_region(lo, hi) -> Box:
    return Box(tuple(map(float, lo)), tuple(map(float, hi)))


# ---------------------------------------------------------------------------
# hitting estimates


@dataclass(frozen=True)
class HittingEstimate:
    """Monte Carlo hitting probability with its empirical standard error."""

    p_hat: float
    stderr: float
    paths: int
    bridge: bool

    def __post_init__(self):
        if not (0.0 <= self.p_hat <= 1.0):
            raise RegionError("estimate outside [0, 1]")


def _path_blocks(times, paths: int, seed: int) -> list:
    """Check the times and paths, then split the paths into fixed blocks: one
    (size, generator) pair per block, on a Philox stream keyed by (seed, block)."""
    if len(times) == 0 or not all(t > 0.0 for t in times):
        raise RegionError("need at least one time, and every t positive")
    if paths < 1000:
        raise RegionError("need at least 1e3 paths")
    return [(min(_PATH_BLOCK, paths - start),
             np.random.Generator(np.random.Philox(key=(seed << 20) + start // _PATH_BLOCK)))
            for start in range(0, paths, _PATH_BLOCK)]


def _sweeps(times, paths: int, seed: int) -> list:
    """_path_blocks grouped _SWEEP at a time: per sweep, one (slice, generator)
    pair per block, the slices tiling the sweep's arrays in block order."""
    blocks = _path_blocks(times, paths, seed)
    return [[(slice(j * _PATH_BLOCK, j * _PATH_BLOCK + m), rng)
             for j, (m, rng) in enumerate(blocks[first:first + _SWEEP])]
            for first in range(0, len(blocks), _SWEEP)]


def _stay_in_box(x0, x1, lo, hi, dt, survive) -> None:
    """Multiply each live path's survival by the exact chance that its Brownian
    bridge from x0 to x1 over a step dt stays in the open box (lo, hi): over the
    independent coordinates, the product of the image series (width w,
    u = x0 - lo, v = x1 - lo, s = 2 dt)
        sum_k exp(-2kw(kw + v - u)/s) - exp(-2(kw - u)(kw - v)/s),
    which is 0 when an end point leaves the interval.  Dead paths are skipped,
    and so are paths with both face products a, b >= _FAR dt: every term is
    then below exp(-40) and the factor rounds to 1.0.  The k >= 1 terms are
    evaluated only where a step nearly crosses the interval,
    w(w - |v - u|) < _TAIL dt, and there for k <= K, K the least with
    K(K+1) w^2 >= _TAIL dt.  Each dropped term is below exp(-_TAIL), and they
    fall off geometrically, so together they stay below 2^-54."""
    for j, (lo_j, hi_j) in enumerate(zip(lo, hi)):
        a = (x0[:, j] - lo_j) * (x1[:, j] - lo_j)
        b = (hi_j - x0[:, j]) * (hi_j - x1[:, j])
        idx = ((np.minimum(a, b) < _FAR * dt) & (survive > 0.0)).nonzero()[0]
        a, b, w = a[idx], b[idx], hi_j - lo_j
        u, v = x0[idx, j] - lo_j, x1[idx, j] - lo_j
        f = 1.0 - np.exp(-a / dt) - np.exp(-b / dt)  # the two faces' k = 0, 1 terms
        near = (w * (w - np.abs(v - u)) < _TAIL * dt).nonzero()[0]
        if near.size:  # the k >= 1 terms, term by term
            u, v = u[near], v[near]
            K = next(k for k in itertools.count(1) if k * (k + 1) * w * w >= _TAIL * dt)
            for kw in w * np.arange(1.0, K + 1):
                f[near] += np.exp(-kw * (kw + v - u) / dt) + np.exp(-kw * (kw - v + u) / dt)
                f[near] -= (np.exp(-(kw + u) * (kw + v) / dt)
                            + np.exp(-(kw + w - u) * (kw + w - v) / dt))
        f[(a <= 0.0) | (b <= 0.0)] = 0.0
        survive[idx] *= np.maximum(f, 0.0)


def _interval_survival(x: float, lo: float, hi: float, t: float) -> float:
    """P_x{lo < B_s < hi for all s <= t} at variance 2t by the image series in Phi
    (u = x - lo, w = hi - lo, sd = sqrt(2t)); the kept |k| <= K reach 2Kw >= 10 sd."""
    if not lo < x < hi:
        return 0.0
    w, u, sd = hi - lo, x - lo, math.sqrt(2.0 * t)
    m = math.ceil(5.0 * sd / w)
    ndtr = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))  # Phi(z)
    return math.fsum(ndtr((w - u + k) / sd) - ndtr((k - u) / sd)
                     - ndtr((w + u + k) / sd) + ndtr((u + k) / sd)
                     for k in (2.0 * w * j for j in range(-m, m + 1)))


def _mean_and_stderr(total: float, squares: float, paths: int) -> tuple:
    """Mean and empirical standard error of per-path values in [0, 1]."""
    p = min(max(float(total) / paths, 0.0), 1.0)
    return p, math.sqrt(max(squares / paths - p * p, 0.0) / (paths - 1))


def _plan_lanes(distances, steps) -> tuple:
    """Split the (time, distance) pairs into lanes, which are stepped, and
    twins, which copy a lane: (lanes, {twin: lane}).  Pair (i, k) is the twin
    of an earlier lane (i', k') when s = sigma_i / sigma_i' is a power of two,
    and dt_i = s^2 dt_i' and d_k = s d_k' exactly (then sigma_i = sqrt(2 dt_i)
    = s sigma_i' exactly too).  Scaling by s is exact outside the subnormal
    range, so the twin's positions and gaps are s times its lane's, and a / dt,
    the _FAR skip and the survival are bitwise its lane's."""
    lanes, twins = [], {}
    for i, k in itertools.product(range(len(steps)), range(len(distances))):
        (dt, sigma), d = steps[i], distances[k]
        for i0, k0 in lanes:
            (dt0, sigma0), d0 = steps[i0], distances[k0]
            s = sigma / sigma0
            if math.frexp(s)[0] == 0.5 and dt == s * s * dt0 and d == s * d0:
                twins[i, k] = (i0, k0)
                break
        else:
            lanes.append((i, k))
    return lanes, twins


def simulate_hitting(distances, times, paths: int = 100_000,
                     bridge: bool = True, seed: int = 0) -> list:
    """Estimate P_x{tau_B <= t} for a half-space B at each distance d > 0 from
    x, at each time t, by direct path simulation: per time, one
    HittingEstimate per distance.  All share one normal draw; each is bitwise
    what a call with its distance and time gives.

    Each path walks the coordinate along B's normal from 0, drawn from its
    block's generator, and B is hit once it reaches d.  With bridge=True each
    step multiplies a path's survival by the chance that the bridge between
    the step's end points stays below d, the exact factor 1 - exp(-a/dt),
    a = (d - x0)(d - x1) (0 if a <= 0), so the hit chance 1 - survival
    dominates plain endpoint detection pathwise.  The factor is evaluated
    only where a < _FAR dt (elsewhere it is 1.0 bitwise).

    Only the lanes of _plan_lanes are stepped; an exact-rescaling twin copies
    its lane's sums.  Each time that a lane reads advances one contiguous
    position array, and each lane carries its gap d - x from the end of one
    step to the start of the next.  Each block of a sweep draws into its own
    slice and sums its own hit chances and their squares, added in block
    order, so estimates are bitwise those of block-by-block runs.
    """
    sweeps = _sweeps(times, paths, seed)
    distances = [float(d) for d in distances]
    if not distances or not all(d > 0.0 for d in distances):
        raise RegionError("need at least one distance, and every d positive")
    steps = [(t / _N_STEPS, math.sqrt(2.0 * (t / _N_STEPS))) for t in times]
    lanes, twins = _plan_lanes(distances, steps)
    tracks = {}  # time -> the lanes reading its positions
    for lane, (i, _) in enumerate(lanes):
        tracks.setdefault(i, []).append(lane)
    # per time and distance: the sums of the hit chances and of their squares
    sums = np.zeros((2, len(times), len(distances)))

    for sweep in sweeps:
        n = sweep[-1][0].stop
        z = np.empty(n)  # every time scales z by its sigma
        pos = {i: np.zeros(n) for i in tracks}
        gaps = [np.full(n, distances[k]) for _, k in lanes]
        spare, spare_gap = np.empty(n), np.empty(n)
        survive = np.ones((len(lanes), n))
        for _ in range(_N_STEPS):
            for block, rng in sweep:
                rng.standard_normal(out=z[block])
            for i, readers in tracks.items():
                step_dt, sigma = steps[i]
                new = np.add(pos[i], np.multiply(z, sigma, out=spare), out=spare)
                pos[i], spare = new, pos[i]
                for lane in readers:
                    s = survive[lane]
                    gap = np.subtract(distances[lanes[lane][1]], new, out=spare_gap)
                    if not bridge:
                        s *= gap > 0.0
                    else:  # a crossing, a <= 0, makes exp >= 1 and the factor 0.0
                        a = gaps[lane] * gap
                        idx = (a < _FAR * step_dt).nonzero()[0]
                        s[idx] *= np.maximum(1.0 - np.exp(a[idx] / -step_dt), 0.0)
                    gaps[lane], spare_gap = gap, gaps[lane]
        for block, _ in sweep:
            for lane, (i, k) in enumerate(lanes):
                h = 1.0 - survive[lane, block]
                sums[:, i, k] += (float(np.sum(h)), float(np.sum(h * h)))
    for (i, k), (i0, k0) in twins.items():
        sums[:, i, k] = sums[:, i0, k0]

    return [[HittingEstimate(*_mean_and_stderr(total, squares, paths), paths, bridge)
             for total, squares in zip(*row)]
            for row in zip(sums[0].tolist(), sums[1].tolist())]


def gaussian_bound(d: float, t: float, nu: int) -> float:
    """Envelope 2 nu exp(-d^2 / (4 nu t)) for P_x{tau_B <= t}, d = dist(x, B)."""
    if not t > 0.0:
        raise RegionError("t must be positive")
    if not d > 0.0:
        raise RegionError("x must be strictly outside the region: d > 0")
    return 2.0 * nu * math.exp(-d * d / (4.0 * nu * t))


def halfspace_exact(d: float, t: float) -> float:
    """Closed-form 1D crossing law erfc(d / (2 sqrt(t))) (reflection principle
    under the variance-2t normalisation)."""
    return math.erfc(d / (2.0 * math.sqrt(t)))


# -- joint expectation bound -------------------------------------------------


def envelope_constant(eps: float, nu: int) -> float:
    """C_eps of the joint bound: square root of
    (4 pi)^(-nu/2) * integral exp(-eps y^2 / (4 eps + 16)) dy
    = ((4 + eps)/eps)^(nu/4) in closed form."""
    if not eps > 0.0:
        raise RegionError("eps must be positive")
    return ((4.0 + eps) / eps) ** (nu / 4.0)


def _step_to_t(x0, rng, span: float) -> np.ndarray:
    """X_t of paths at x0 with span = t - s left: by the Markov property, one
    Gaussian step of variance 2 span per axis, drawn from rng."""
    return x0 + rng.standard_normal(x0.shape) * math.sqrt(2.0 * span)


def _tiles(sizes) -> list:
    """Consecutive slices of the given sizes, from 0."""
    return [slice(*ends) for ends in itertools.pairwise(itertools.accumulate(sizes, initial=0))]


def joint_bound_check(x, box_b: Box, t: float, paths: int = 100_000,
                      seed: int = 0) -> dict:
    """Monte Carlo both sides of the joint expectation bound

        E_x{chi_B(X_t); tau_{B^c} <= t} <= sqrt(P_x{tau_{B^c} <= t}) * envelope

    with envelope 1 inside the box and C_eps exp(-d^2/(2(4+eps)t)) outside,
    eps = 1.  Each path carries its survival S, the product of the exact step
    factors of _stay_in_box, so p_exit = E[1 - S], lhs = E[1{X_t in B}(1 - S)].
    A dead path (S = 0) has h = 1, and lhs reads only its X_t: at the start of
    step k, a block with at least 1/_RETIRE of its rows dead retires them to
    integer counts, each by one exact step of length t - k dt (_step_to_t),
    and compacts its live rows into the other buffers.  From a start outside
    the box all paths retire before step 0, and no box factor is evaluated.
    Returns the estimates with their standard errors, the closed-form exit
    chance p_exit_exact, the analytic right side and a 3-sigma verdict.
    Paths advance in sweeps as in simulate_hitting; retirement reads only a
    block's own rows, so estimates are bitwise those of block-by-block runs.
    """
    x = np.asarray(x, dtype=float)
    nu = x.shape[0]
    dt = t / _N_STEPS
    sigma = math.sqrt(2.0 * dt)

    # sums of h = 1 - S, of h^2, of 1{X_t in B} h and of its square
    sums = np.zeros(4)
    for sweep in _sweeps((t,), paths, seed):
        rows = [block.stop - block.start for block, _ in sweep]  # live rows per block
        pos, new = np.tile(x, (sum(rows), 1)), np.empty((sum(rows), nu))
        # a start outside the box has left it at tau = 0
        survive, spare = np.full(len(pos), float(box_b.contains(x)[0])), np.empty(len(pos))
        retired = np.zeros((len(sweep), 2), dtype=int)  # per block: rows retired, of them in B
        for k in range(_N_STEPS):
            dead = survive[:sum(rows)] == 0.0
            for b, (block, (_, rng)) in enumerate(zip(_tiles(rows), sweep)):
                d = np.count_nonzero(dead[block])
                if d == 0 or _RETIRE * d < rows[b]:
                    dead[block] = False  # the block keeps its dead rows this step
                    continue
                x_t = _step_to_t(pos[block][dead[block]], rng, t - k * dt)
                retired[b] += d, np.count_nonzero(box_b.contains(x_t))
                rows[b] -= d
            live = sum(rows)
            if live < dead.size:
                keep = np.logical_not(dead, out=dead).nonzero()[0]
                np.take(pos, keep, axis=0, out=new[:live], mode="clip")  # "raise" would buffer out
                np.take(survive, keep, out=spare[:live], mode="clip")
                pos, new, survive, spare = new, pos, spare, survive
            if live == 0:
                break
            for block, (_, rng) in zip(_tiles(rows), sweep):
                rng.standard_normal(out=new[block])
            x0, x1 = pos[:live], new[:live]
            np.add(x0, np.multiply(x1, sigma, out=x1), out=x1)
            _stay_in_box(x0, x1, box_b.lo, box_b.hi, dt, survive[:live])
            pos, new = new, pos
        in_b = box_b.contains(pos[:live])
        for block, (r, r_in) in zip(_tiles(rows), retired.tolist()):
            h = 1.0 - survive[block]
            g = np.where(in_b[block], h, 0.0)
            sums += (r + float(np.sum(h)), r + float(np.sum(h * h)),
                     r_in + float(np.sum(g)), r_in + float(np.sum(g * g)))

    p_exit, exit_se = _mean_and_stderr(sums[0], sums[1], paths)
    lhs, lhs_se = _mean_and_stderr(sums[2], sums[3], paths)
    p_exit_exact = 1.0 - math.prod(_interval_survival(*c, t)
                                   for c in zip(x.tolist(), box_b.lo, box_b.hi))
    d = box_b.distance(x)
    if d == 0.0:
        env = 1.0
    else:
        env = envelope_constant(_EPS, nu) * math.exp(-d * d / (2.0 * (4.0 + _EPS) * t))
    rhs = math.sqrt(p_exit) * env
    # propagate the exit-probability error through the square root
    rhs_se = env * 0.5 * exit_se / math.sqrt(max(p_exit, 1e-12))
    return {
        "lhs": lhs, "lhs_stderr": lhs_se,
        "p_exit": p_exit, "p_exit_stderr": exit_se, "p_exit_exact": p_exit_exact,
        "envelope": env, "rhs": rhs, "rhs_stderr": rhs_se,
        "eps": _EPS, "c_eps": envelope_constant(_EPS, nu),
        "distance": d, "paths": paths, "t": t,
        "holds_3sigma": lhs - 3.0 * lhs_se <= rhs + 3.0 * rhs_se,
    }
