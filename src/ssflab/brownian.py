"""Monte Carlo checks for the Brownian hitting-time machinery.

The process is the one generated by the discrete-free limit H0 = -Laplace:
per-coordinate increments have variance 2*dt and the transition density is
the kernel (4 pi t)^(-nu/2) exp(-|x-y|^2 / 4t).  Under this normalisation the
one-dimensional half-space hitting law is erfc(d / (2 sqrt(t))) and the
Gaussian envelope reads 2 nu exp(-d^2 / (4 nu t)).

Discrete-time detection alone underestimates hitting probabilities, so for
half-space and slab geometries every step adds the analytic Brownian-bridge
crossing probability (slabs combine the two one-sided face corrections per
step); other geometries fall back to endpoint detection with a warning flag
in the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc


class RegionError(ValueError):
    """Raised on malformed region geometry or invalid inputs."""


_PATH_BLOCK = 4096  # fixed partition of paths into RNG blocks


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class RegionSpec:
    """Target set B for the first hitting time.

    kinds:
      * half_space(axis, threshold, side): B = {x : side*(x_axis - threshold) >= 0}
      * slab_complement(axis, lo, hi):     B = {x : x_axis <= lo or x_axis >= hi}
      * box(lo, hi):                       the closed box
      * box_complement(lo, hi):            everything outside the open box
    """

    kind: str
    axis: int = 0
    threshold: float = 0.0
    side: int = +1
    lo: tuple = ()
    hi: tuple = ()

    def __post_init__(self):
        if self.kind in ("half_space", "slab_complement"):
            if self.axis < 0:
                raise RegionError("axis must be >= 0")
            if self.kind == "slab_complement":
                if not (len(self.lo) == len(self.hi) == 1) or not self.lo[0] < self.hi[0]:
                    raise RegionError("slab_complement needs scalar lo < hi")
            if self.kind == "half_space" and self.side not in (+1, -1):
                raise RegionError("half_space side must be +1 or -1")
        elif self.kind in ("box", "box_complement"):
            if len(self.lo) != len(self.hi) or not self.lo:
                raise RegionError("box needs matching lo/hi tuples")
            if any(a >= b for a, b in zip(self.lo, self.hi)):
                raise RegionError("degenerate box")
        else:
            raise RegionError(f"unknown region kind {self.kind!r}")

    @property
    def bridge_supported(self) -> bool:
        return self.kind in ("half_space", "slab_complement")

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Membership for an (m, nu) array of points."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "half_space":
            return self.side * (x[:, self.axis] - self.threshold) >= 0.0
        if self.kind == "slab_complement":
            return (x[:, self.axis] <= self.lo[0]) | (x[:, self.axis] >= self.hi[0])
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        inside = np.all((x >= lo) & (x <= hi), axis=1)
        return inside if self.kind == "box" else ~inside

    def distance(self, x) -> float:
        """Closed-form Euclidean distance from x to the region."""
        x = np.asarray(x, dtype=float)
        if self.contains(x[None, :])[0]:
            return 0.0
        if self.kind == "half_space":
            return float(self.side * (self.threshold - x[self.axis]))
        if self.kind == "slab_complement":
            return float(min(x[self.axis] - self.lo[0], self.hi[0] - x[self.axis]))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if self.kind == "box":
            gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
            return float(np.sqrt(np.sum(gap ** 2)))
        return float(np.min(np.minimum(x - lo, hi - x)))


def half_space(axis: int, threshold: float, side: int = +1) -> RegionSpec:
    return RegionSpec("half_space", axis=axis, threshold=float(threshold), side=side)


def slab_complement(axis: int, lo: float, hi: float) -> RegionSpec:
    return RegionSpec("slab_complement", axis=axis, lo=(float(lo),), hi=(float(hi),))


def box_region(lo, hi) -> RegionSpec:
    return RegionSpec("box", lo=tuple(map(float, lo)), hi=tuple(map(float, hi)))


def box_complement(lo, hi) -> RegionSpec:
    return RegionSpec("box_complement", lo=tuple(map(float, lo)), hi=tuple(map(float, hi)))


# ---------------------------------------------------------------------------
# hitting estimates


@dataclass(frozen=True)
class HittingEstimate:
    """Monte Carlo hitting probability with its binomial standard error."""

    p_hat: float
    stderr: float
    paths: int
    dt: float
    bridge: bool
    bridge_warning: bool
    x: tuple
    t: float
    region: RegionSpec

    def __post_init__(self):
        if not (0.0 <= self.p_hat <= 1.0):
            raise RegionError("estimate outside [0, 1]")


def _bridge_upper(x0, x1, level, dt):
    """P(bridge from x0 to x1 crosses the level from below within one step);
    increments have variance 2*dt, so the exponent is -(b-x0)(b-x1)/dt."""
    a = (level - x0) * (level - x1)
    return np.where(a <= 0.0, 1.0, np.exp(-a / dt))


def simulate_hitting(x, region: RegionSpec, t: float, paths: int = 100_000,
                     dt: float | None = None, bridge: bool = True,
                     seed: int = 0) -> HittingEstimate:
    """Estimate P_x{tau_B <= t} by direct path simulation.

    Starting inside B counts as an immediate hit (tau = 0 convention).  With
    bridge=True and a half-space/slab geometry each step contributes the
    analytic crossing probability of the Brownian bridge between the step
    endpoints; per-path survival probabilities multiply, so bridge-corrected
    estimates dominate plain endpoint detection pathwise.
    """
    x = np.asarray(x, dtype=float)
    nu = x.shape[0]
    if not t > 0.0:
        raise RegionError("t must be positive")
    if dt is None:
        dt = t / 512.0
    if dt > t / 10.0 + 1e-15:
        raise RegionError("dt must be at most t/10")
    if paths < 1000:
        raise RegionError("need at least 1e3 paths")

    if region.contains(x[None, :])[0]:
        return HittingEstimate(1.0, 0.0, paths, dt, bridge, False,
                               tuple(x), t, region)

    warn = bridge and not region.bridge_supported
    use_bridge = bridge and region.bridge_supported
    n_steps = max(int(math.ceil(t / dt - 1e-12)), 10)
    step_dt = t / n_steps
    sigma = math.sqrt(2.0 * step_dt)

    total = 0.0
    for block_start in range(0, paths, _PATH_BLOCK):
        m = min(_PATH_BLOCK, paths - block_start)
        rng = np.random.Generator(
            np.random.Philox(key=(seed << 20) + block_start // _PATH_BLOCK))
        pos = np.tile(x, (m, 1))
        survive = np.ones(m)
        for _ in range(n_steps):
            new = pos + sigma * rng.standard_normal((m, nu))
            if use_bridge:
                c = pos[:, region.axis]
                d = new[:, region.axis]
                if region.kind == "half_space":
                    if region.side > 0:
                        p_cross = _bridge_upper(c, d, region.threshold, step_dt)
                    else:
                        p_cross = _bridge_upper(-c, -d, -region.threshold, step_dt)
                else:
                    p_lo = _bridge_upper(-c, -d, -region.lo[0], step_dt)
                    p_hi = _bridge_upper(c, d, region.hi[0], step_dt)
                    p_cross = 1.0 - (1.0 - p_lo) * (1.0 - p_hi)
                survive *= 1.0 - p_cross
            else:
                survive *= ~region.contains(new)
            pos = new
        total += float(np.sum(1.0 - survive))

    p_hat = min(max(total / paths, 0.0), 1.0)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / paths)
    return HittingEstimate(p_hat, stderr, paths, step_dt, use_bridge, warn,
                           tuple(x), t, region)


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
                      dt: float | None = None, seed: int = 0,
                      eps: float = 1.0) -> dict:
    """Monte Carlo both sides of the joint expectation bound

        E_x{chi_B(X_t); tau_{B^c} <= t} <= sqrt(P_x{tau_{B^c} <= t}) * envelope

    with envelope 1 inside the box and C_eps exp(-d^2/(2(4+eps)t)) outside.
    Returns the raw estimates, the analytic right side and a 3-sigma verdict.
    """
    if box_b.kind != "box":
        raise RegionError("joint bound expects a box region")
    x = np.asarray(x, dtype=float)
    nu = x.shape[0]
    if not t > 0.0:
        raise RegionError("t must be positive")
    if dt is None:
        dt = t / 512.0
    if paths < 1000:
        raise RegionError("need at least 1e3 paths")
    comp = box_complement(box_b.lo, box_b.hi)

    n_steps = max(int(math.ceil(t / dt - 1e-12)), 10)
    step_dt = t / n_steps
    sigma = math.sqrt(2.0 * step_dt)

    hits_exit = 0
    hits_joint = 0
    for block_start in range(0, paths, _PATH_BLOCK):
        m = min(_PATH_BLOCK, paths - block_start)
        rng = np.random.Generator(
            np.random.Philox(key=(seed << 20) + block_start // _PATH_BLOCK))
        pos = np.tile(x, (m, 1))
        exited = comp.contains(pos)
        for _ in range(n_steps):
            pos = pos + sigma * rng.standard_normal((m, nu))
            exited |= comp.contains(pos)
        in_b = box_b.contains(pos)
        hits_exit += int(np.sum(exited))
        hits_joint += int(np.sum(exited & in_b))

    p_exit = hits_exit / paths
    lhs = hits_joint / paths
    d = box_b.distance(x)
    if d == 0.0:
        env = 1.0
    else:
        env = envelope_constant(eps, nu) * math.exp(-d * d / (2.0 * (4.0 + eps) * t))
    rhs = math.sqrt(p_exit) * env
    lhs_se = math.sqrt(max(lhs * (1 - lhs), 1e-12) / paths)
    exit_se = math.sqrt(max(p_exit * (1 - p_exit), 1e-12) / paths)
    # propagate the exit-probability error through the square root
    rhs_se = env * 0.5 * exit_se / math.sqrt(max(p_exit, 1e-12))
    return {
        "lhs": lhs, "lhs_stderr": lhs_se,
        "p_exit": p_exit, "p_exit_stderr": exit_se,
        "envelope": env, "rhs": rhs, "rhs_stderr": rhs_se,
        "eps": eps, "c_eps": envelope_constant(eps, nu),
        "distance": d, "paths": paths, "t": t,
        "holds_3sigma": lhs - 3.0 * lhs_se <= rhs + 3.0 * rhs_se,
    }
