"""Surface states: interactions concentrated on a line inside a 2D strip.

Couplings live on the 1D sublattice {(j, c)} of a strip of fixed transverse
extent; the shift function per unit interaction *length* converges along a
schedule of line cutoffs, the signed decomposition through the positive and
negative coupling parts is exact counting arithmetic at every grid energy,
and the per-length Laplace functional is recorded across the t grid.
"""

from __future__ import annotations

import numpy as np

from .. import spectral
from ..harness.parallel import parallel_map
from ..model import IntBox, build_grid
from ..model import assemble_hamiltonian, assemble_potential, free_hamiltonian
from ..randomfield import sample_couplings, split_signs
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    mean_and_var


def _strip(config: ExperimentConfig, line_len: int, transverse: int):
    margin = int(config.opt("margin", 16))
    extents = (line_len + 2 * margin, transverse)
    grid = build_grid(2, config.spacing, extents)
    origin = (margin + line_len // 2,)
    trans = (transverse // 2,)
    window = IntBox((-(line_len // 2),), (line_len - line_len // 2 - 1,))
    return grid, origin, trans, window


def _one_length(config: ExperimentConfig, line_len: int, realization: int,
                transverse: int | None = None):
    """Counts, chain-rule split and Laplace functional for one line cutoff."""
    transverse = transverse or int(config.opt("transverse", 11))
    grid, origin, trans, window = _strip(config, line_len, transverse)
    profile = config.build_profile()
    field = sample_couplings(config.distribution, window, config.seed, realization)
    _, minus = split_signs(field)  # the chain rule splits through H0 + V_minus

    def ham(f):
        pot = assemble_potential(grid, profile, f, "lattice_sum", window,
                                 transverse=trans, origin=origin)
        return assemble_hamiltonian(grid, pot)

    h_full = ham(field)
    h_minus = ham(minus)
    h0 = free_hamiltonian(grid)

    lam_grid = np.asarray(config.energies)
    c0 = np.array([spectral.count_below(h0, lam) for lam in lam_grid])
    cf = np.array([spectral.count_below(h_full, lam) for lam in lam_grid])
    cm = np.array([spectral.count_below(h_minus, lam) for lam in lam_grid])
    xi_full = c0 - cf
    xi_plus = cm - cf     # xi(lam; H, H0 + V-)
    xi_minus = c0 - cm    # xi(lam; H0 + V-, H0)

    dl = config.dense_limit
    f_vals = []
    if config.times:
        ev_h = spectral.eig_all(h_full, dense_limit=dl).eigenvalues
        ev_0 = spectral.eig_all(h0, dense_limit=dl).eigenvalues
        for t in config.times:
            f_vals.append(float(np.sum(np.exp(-t * ev_h)) - np.sum(np.exp(-t * ev_0))))
    return xi_full, xi_plus, xi_minus, f_vals


def run_surface(config: ExperimentConfig) -> ResultRecord:
    if config.dimension != 2:
        raise ExperimentError("surface campaign uses a 2D strip (nu1 = 1)")
    if not config.schedule or not config.energies:
        raise ExperimentError("surface needs a line schedule and energies")
    transverse = int(config.opt("transverse", 11))
    profile_width = max(config.build_profile().values.shape)
    if transverse < 8 * profile_width:
        raise ExperimentError("transverse extent must be >= 8x the profile width")
    h = config.spacing

    rec = ResultRecord("surface", config.seed, config.digest())
    lam_grid = np.asarray(config.energies)
    lam_star = float(config.opt("convergence_energy", -0.5))
    star = int(np.argmin(np.abs(lam_grid - lam_star)))
    reals = list(range(config.realizations))

    chain_exact = True
    per_len_mean = []
    per_len_var = []
    for line_len in config.schedule:
        vals = parallel_map(lambda r, L=line_len: _one_length(config, L, r),
                            reals, config.workers)
        meas1 = line_len * h
        per_real = []
        for r, (xi_full, xi_plus, xi_minus, f_vals) in zip(reals, vals):
            chain_exact &= bool(np.all(xi_full == xi_plus + xi_minus))
            per_real.append(xi_full / meas1)
            for lam, x, xp, xm in zip(lam_grid, xi_full, xi_plus, xi_minus):
                rec.rows.append({"L1": line_len, "realization": r, "lam": float(lam),
                                 "xi": int(x), "xi_plus": int(xp), "xi_minus": int(xm),
                                 "xi_per_length": float(x / meas1)})
            for t, f in zip(config.times, f_vals):
                rec.rows.append({"L1": line_len, "realization": r, "t": float(t),
                                 "laplace_per_length": float(f / meas1)})
        arr = np.stack(per_real, axis=0)
        m, v = mean_and_var(arr[:, star])
        per_len_mean.append(m)
        per_len_var.append(v)
        rec.series.setdefault("xi_per_length_vs_L1", []).append([line_len, m])

    rec.add_check("chain_rule_exact", "hard", chain_exact, chain_exact, None,
                  "xi = xi_plus + xi_minus exactly at every grid energy")

    tol = config.tol("relative_change", 0.05)
    if len(config.schedule) >= 2:
        prev, last = per_len_mean[-2], per_len_mean[-1]
        change = abs(last - prev) / max(abs(prev), 1e-300)
        rec.aggregates["relative_change_last"] = change
        rec.add_check("per_length_convergence", "hard", change <= tol, change, tol,
                      f"xi({lam_grid[star]})/length change between the last two cutoffs")
    rec.aggregates["xi_per_length"] = dict(zip(map(str, config.schedule), per_len_mean))
    rec.aggregates["variance"] = dict(zip(map(str, config.schedule), per_len_var))

    if config.opt("check_transverse", True):
        l0 = config.schedule[0]
        base = _one_length(config, l0, 0)[0][star]
        wide = _one_length(config, l0, 0, transverse=2 * transverse + 1)[0][star]
        meas1 = l0 * h
        shift = abs(base - wide) / meas1
        denom = max(abs(base) / meas1, 1e-300)
        rec.aggregates["transverse_doubling_shift"] = float(shift)
        ttol = config.tol("transverse_tol", 0.05)
        if shift / denom > ttol:
            raise ExperimentError(
                f"transverse boundary contamination: doubling shifts xi by {shift}")
        rec.add_check("transverse_adequate", "hard", True, float(shift / denom), ttol,
                      "doubling the transversal extent leaves xi/length unchanged")
    return rec
