"""Monte Carlo checks for the Brownian hitting-time machinery.

The process is the one generated by the discrete-free limit H0 = -Laplace:
per-coordinate increments have variance 2*dt and the transition density is
the kernel (4 pi t)^(-nu/2) exp(-|x-y|^2 / 4t).  Under this normalisation the
one-dimensional half-space hitting law is erfc(d / (2 sqrt(t))) and the
Gaussian envelope reads 2 nu exp(-d^2 / (4 nu t)).

Discrete-time detection alone underestimates hitting probabilities, so for
half-space geometries every step adds the analytic Brownian-bridge crossing
probability; other geometries fall back to endpoint detection with a warning
flag in the estimate.

One call estimates many regions and times from one draw of the counter-based
paths (Philox keyed by seed and block), each bitwise as if simulated alone.
Each step advances a sweep of up to _SWEEP blocks as one array, so memory is
bounded by the sweep, and estimates are bitwise those of block-by-block runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc


class RegionError(ValueError):
    """Raised on malformed region geometry or invalid inputs."""


_PATH_BLOCK = 4096  # fixed partition of paths into RNG blocks
_SWEEP = 4          # blocks advanced together per step; larger sweeps leave cache
_N_STEPS = 512      # time steps per path, each of length t / _N_STEPS
_EPS = 1.0          # eps of the joint bound's envelope constant C_eps


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class RegionSpec:
    """Target set B for the first hitting time.

    kinds:
      * half_space(axis, threshold, side): B = {x : side*(x_axis - threshold) >= 0}
      * box(lo, hi):                       the closed box
    """

    kind: str
    axis: int = 0
    threshold: float = 0.0
    side: int = +1
    lo: tuple = ()
    hi: tuple = ()

    def __post_init__(self):
        if self.kind == "half_space":
            if self.axis < 0:
                raise RegionError("axis must be >= 0")
            if self.side not in (+1, -1):
                raise RegionError("half_space side must be +1 or -1")
        elif self.kind == "box":
            if len(self.lo) != len(self.hi) or not self.lo:
                raise RegionError("box needs matching lo/hi tuples")
            if any(a >= b for a, b in zip(self.lo, self.hi)):
                raise RegionError("degenerate box")
        else:
            raise RegionError(f"unknown region kind {self.kind!r}")

    @property
    def bridge_supported(self) -> bool:
        return self.kind == "half_space"

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Membership for an (m, nu) array of points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "half_space":
            return self.side * (x[:, self.axis] - self.threshold) >= 0.0
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((x >= lo) & (x <= hi), axis=1)

    def distance(self, x) -> float:
        """Closed-form Euclidean distance from x to the region."""
        x = np.asarray(x, dtype=float)
        if self.contains(x[None, :])[0]:
            return 0.0
        if self.kind == "half_space":
            return float(self.side * (self.threshold - x[self.axis]))
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        return float(np.sqrt(np.sum(gap ** 2)))


def half_space(axis: int, threshold: float, side: int = +1) -> RegionSpec:
    return RegionSpec("half_space", axis=axis, threshold=float(threshold), side=side)


def box_region(lo, hi) -> RegionSpec:
    return RegionSpec("box", lo=tuple(map(float, lo)), hi=tuple(map(float, hi)))


# ---------------------------------------------------------------------------
# hitting estimates


@dataclass(frozen=True)
class HittingEstimate:
    """Monte Carlo hitting probability with its binomial standard error."""

    p_hat: float
    stderr: float
    paths: int
    bridge: bool
    bridge_warning: bool

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


def simulate_hitting(x, regions, times, paths: int = 100_000,
                     bridge: bool = True, seed: int = 0) -> list:
    """Estimate P_x{tau_B <= t} for each region B and time t by direct path
    simulation: per time, one HittingEstimate per region.  All share one
    normal draw; each is bitwise what a call with its region and time gives.

    Starting inside B counts as an immediate hit (tau = 0 convention).  With
    bridge=True and a half-space geometry each step contributes the
    analytic crossing probability exp(-a/dt), a = (b - x0)(b - x1), of the
    Brownian bridge between the step endpoints; per-path survival
    probabilities multiply, so bridge-corrected estimates dominate plain
    endpoint detection pathwise.  Only steps with a < 40 dt are evaluated:
    otherwise exp(-a/dt) <= exp(-40) < 2^-54, so 1 - exp(-a/dt) rounds to
    exactly 1.0 and the survival product is bitwise unchanged.

    Each block of a sweep draws into its own slice and sums its own survival,
    added in block order, so estimates are bitwise those of block-by-block runs.
    """
    x = np.asarray(x, dtype=float)
    nu = x.shape[0]
    sweeps = _sweeps(times, paths, seed)
    steps = [(t / _N_STEPS, math.sqrt(2.0 * (t / _N_STEPS))) for t in times]
    # a start inside B is a hit at tau = 0 on every path and needs no draw
    inside = [bool(r.contains(x[None, :])[0]) for r in regions]
    outside = [k for k, hit in enumerate(inside) if not hit]
    hits = np.tile(np.where(inside, float(paths), 0.0), (len(times), 1))

    for sweep in sweeps if outside else ():
        n = sweep[-1][0].stop
        z = np.empty((n, nu))  # every time scales it by its sigma
        pos = [np.tile(x, (n, 1)) for _ in times]
        spare = [np.empty((n, nu)) for _ in times]
        survive = np.ones((len(times), len(regions), n))
        for _ in range(_N_STEPS):
            for block, rng in sweep:
                rng.standard_normal(out=z[block])
            for i, (step_dt, sigma) in enumerate(steps):
                new = np.add(pos[i], np.multiply(z, sigma, out=spare[i]), out=spare[i])
                for k in outside:
                    r, s = regions[k], survive[i, k]
                    if bridge and r.bridge_supported:
                        # flipping the signs of b, x0 and x1 (side -1) leaves
                        # a bitwise unchanged, so one formula serves both sides
                        a = (r.threshold - pos[i][:, r.axis]) * (r.threshold - new[:, r.axis])
                        idx = (a < 40.0 * step_dt).nonzero()[0]
                        a = a[idx]
                        s[idx] *= 1.0 - np.where(a <= 0.0, 1.0, np.exp(-a / step_dt))
                    else:
                        s *= ~r.contains(new)
                pos[i], spare[i] = new, pos[i]
        for block, _ in sweep:
            hits += [[float(np.sum(1.0 - s[block])) for s in row] for row in survive]

    return [[HittingEstimate(p, math.sqrt(p * (1.0 - p) / paths), paths,
                             bridge and r.bridge_supported, bridge and not r.bridge_supported)
             for p, r in zip(row, regions)]
            for row in np.clip(hits / paths, 0.0, 1.0).tolist()]


def gaussian_bound(x, region: RegionSpec, t: float, nu: int) -> float:
    """Envelope 2 nu exp(-dist(x,B)^2 / (4 nu t)) for P_x{tau_B <= t}."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != nu:
        raise RegionError("x dimension must equal nu")
    if not t > 0.0:
        raise RegionError("t must be positive")
    d = region.distance(x)
    if d <= 0.0:
        raise RegionError("x must be strictly outside the region")
    return 2.0 * nu * math.exp(-d * d / (4.0 * nu * t))


def halfspace_exact(d: float, t: float) -> float:
    """Closed-form 1D crossing law erfc(d / (2 sqrt(t))) (reflection principle
    under the variance-2t normalisation)."""
    return float(erfc(d / (2.0 * math.sqrt(t))))


# -- joint expectation bound -------------------------------------------------


def envelope_constant(eps: float, nu: int) -> float:
    """C_eps of the joint bound: square root of
    (4 pi)^(-nu/2) * integral exp(-eps y^2 / (4 eps + 16)) dy
    = ((4 + eps)/eps)^(nu/4) in closed form."""
    if not eps > 0.0:
        raise RegionError("eps must be positive")
    return ((4.0 + eps) / eps) ** (nu / 4.0)


def joint_bound_check(x, box_b: RegionSpec, t: float, paths: int = 100_000,
                      seed: int = 0) -> dict:
    """Monte Carlo both sides of the joint expectation bound

        E_x{chi_B(X_t); tau_{B^c} <= t} <= sqrt(P_x{tau_{B^c} <= t}) * envelope

    with envelope 1 inside the box and C_eps exp(-d^2/(2(4+eps)t)) outside,
    eps = 1.
    Returns the raw estimates, the analytic right side and a 3-sigma verdict.
    Paths advance in sweeps as in simulate_hitting, bitwise as block by block.
    """
    if box_b.kind != "box":
        raise RegionError("joint bound expects a box region")
    x = np.asarray(x, dtype=float)
    nu = x.shape[0]
    lo, hi = np.asarray(box_b.lo), np.asarray(box_b.hi)
    sigma = math.sqrt(2.0 * (t / _N_STEPS))

    hits_exit = 0
    hits_joint = 0
    for sweep in _sweeps((t,), paths, seed):
        n = sweep[-1][0].stop
        pos, new = np.tile(x, (n, 1)), np.empty((n, nu))
        # a path has left the open box iff its running extremes have
        low, high = pos.copy(), pos.copy()
        for _ in range(_N_STEPS):
            for block, rng in sweep:
                rng.standard_normal(out=new[block])
            pos, new = np.add(pos, np.multiply(new, sigma, out=new), out=new), pos
            np.minimum(low, pos, out=low)
            np.maximum(high, pos, out=high)
        exited = np.any(low < lo, axis=1) | np.any(high > hi, axis=1)
        in_b = box_b.contains(pos)
        hits_exit += int(np.sum(exited))
        hits_joint += int(np.sum(exited & in_b))

    p_exit = hits_exit / paths
    lhs = hits_joint / paths
    d = box_b.distance(x)
    if d == 0.0:
        env = 1.0
    else:
        env = envelope_constant(_EPS, nu) * math.exp(-d * d / (2.0 * (4.0 + _EPS) * t))
    rhs = math.sqrt(p_exit) * env
    lhs_se = math.sqrt(max(lhs * (1 - lhs), 1e-12) / paths)
    exit_se = math.sqrt(max(p_exit * (1 - p_exit), 1e-12) / paths)
    # propagate the exit-probability error through the square root
    rhs_se = env * 0.5 * exit_se / math.sqrt(max(p_exit, 1e-12))
    return {
        "lhs": lhs, "lhs_stderr": lhs_se,
        "p_exit": p_exit, "p_exit_stderr": exit_se,
        "envelope": env, "rhs": rhs, "rhs_stderr": rhs_se,
        "eps": _EPS, "c_eps": envelope_constant(_EPS, nu),
        "distance": d, "paths": paths, "t": t,
        "holds_3sigma": lhs - 3.0 * lhs_se <= rhs + 3.0 * rhs_se,
    }
