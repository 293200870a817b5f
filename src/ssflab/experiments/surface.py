"""Surface states: interactions concentrated on a line inside a 2D strip.

Couplings live on the 1D sublattice {(j, 0)} of a strip of fixed transverse
extent around that line; the shift function per unit interaction *length*
converges along a schedule of line cutoffs, the signed decomposition through
the positive and negative coupling parts is exact counting arithmetic at
every grid energy, and the per-length Laplace functional is recorded across
the t grid.  The spectra behind that functional must meet the first two
moment sum rules, sum(lam) = tr H and sum(lam^2) = ||H||_F^2.
"""

from __future__ import annotations

import numpy as np

from .. import spectral, ssf
from ..harness.parallel import parallel_map
from ..model import IntBox, PotentialField, assemble_hamiltonian, \
    assemble_potential, free_hamiltonian
from ..randomfield import sample_couplings, split_signs
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, mean_and_var

# the grid energy nearest this one carries the convergence and transverse checks
CONVERGENCE_ENERGY = -0.5


def _strip(config: ExperimentConfig, line_len: int, transverse: int):
    """(grid, line window) of one strip around the line x_2 = 0."""
    margin = config.opt("margin")
    grid = ambient_for(IntBox.centered((line_len + 2 * margin, transverse)), 0,
                       config.spacing)
    return grid, IntBox.centered((line_len,))


def _moment_residual(h, ev) -> float:
    """The larger relative residual of sum(ev) = tr H (to sqrt(n) ||H||_F) and
    sum(ev^2) = ||H||_F^2 = sum d_i^2 + 2 (#bonds) offdiag^2."""
    bonds = sum(h.n - h.n // n for n in h.grid.extents)
    fro2 = float(np.sum(h.diag ** 2)) + 2.0 * bonds * h.offdiag ** 2
    first = abs(float(np.sum(ev)) - float(np.sum(h.diag))) / np.sqrt(h.n * fro2)
    return max(first, abs(float(np.sum(ev ** 2)) - fro2) / fro2)


def _shifts(config: ExperimentConfig, strip, reals) -> tuple:
    """xi, the chain-rule parts xi_plus and xi_minus, each (R, n_lam), and the
    potentials V (R, n) of the realizations, from one count of the stack
    [H0, then H0 + V and H0 + V_minus for each realization]."""
    grid, window = strip
    fields = []
    for r in reals:
        field = sample_couplings(config.distribution, window, config.seed, r)
        fields += [field, split_signs(field)[1]]  # the chain rule splits through H0 + V_minus
    pot = assemble_potential(grid, config.build_profile(), fields, "lattice_sum", window)
    stack = PotentialField(grid, np.concatenate([np.zeros((1, grid.n_sites)), pot.values]))
    counts = spectral.count_below(assemble_hamiltonian(grid, stack), np.asarray(config.energies))
    c0, cf, cm = counts[0], counts[1::2], counts[2::2]
    return c0 - cf, cm - cf, c0 - cm, pot.values[::2]   # xi_plus = xi(lam; H, H0 + V-)


def _laplace(grid, v, free, times) -> tuple:
    """Laplace functional of (H0 + v, H0) at the given times and the worst
    sum-rule residual of the two spectra; free is (H0, its spectrum)."""
    h0, ev_0 = free
    h_full = assemble_hamiltonian(grid, PotentialField(grid, v))
    ev_h = spectral.eig_all(h_full)[0]
    residual = max(_moment_residual(h_full, ev_h), _moment_residual(h0, ev_0))
    return [ssf.trace_difference(ev_h, ev_0, spectral.ExpWeight(t)) for t in times], residual


def run_surface(config: ExperimentConfig) -> ResultRecord:
    transverse = config.opt("transverse")
    profile_width = max(config.build_profile().values.shape)
    if transverse < 8 * profile_width:
        raise ExperimentError("transverse extent must be >= 8x the profile width")
    h = config.spacing

    rec = ResultRecord("surface", config.seed, config.digest())
    lam_grid = np.asarray(config.energies)
    star = int(np.argmin(np.abs(lam_grid - CONVERGENCE_ENERGY)))
    reals = list(range(config.realizations))

    chain_exact = True
    worst_residual = 0.0
    per_len_mean = []
    per_len_var = []
    for line_len in config.schedule:
        strip = _strip(config, line_len, transverse)
        xi_full, xi_plus, xi_minus, pots = _shifts(config, strip, reals)
        h0 = free_hamiltonian(strip[0])
        free = h0, spectral.eig_all(h0)[0]
        laplace = parallel_map(lambda v: _laplace(strip[0], v, free, config.times),
                               list(pots), config.workers)
        if line_len == config.schedule[0]:
            base = xi_full[0][star]
        meas1 = line_len * h
        chain_exact &= bool(np.all(xi_full == xi_plus + xi_minus))
        for r, xi, xp_r, xm_r, (f_vals, residual) in zip(reals, xi_full, xi_plus, xi_minus,
                                                       laplace):
            worst_residual = max(worst_residual, residual)
            for lam, x, xp, xm in zip(lam_grid, xi, xp_r, xm_r):
                rec.rows.append({"L1": line_len, "realization": r, "lam": float(lam),
                                 "xi": int(x), "xi_plus": int(xp), "xi_minus": int(xm),
                                 "xi_per_length": float(x / meas1)})
            for t, f in zip(config.times, f_vals):
                rec.rows.append({"L1": line_len, "realization": r, "t": float(t),
                                 "laplace_per_length": float(f / meas1)})
        arr = xi_full / meas1
        m, v = mean_and_var(arr[:, star])
        per_len_mean.append(m)
        per_len_var.append(v)
        rec.series.setdefault("xi_per_length_vs_L1", []).append([line_len, m])

    rec.add_check("chain_rule_exact", "hard", chain_exact, chain_exact, None,
                  "xi = xi_plus + xi_minus exactly at every grid energy")
    rec.aggregates["sum_rule_residual"] = worst_residual
    tol = config.tol("sum_rule")
    rec.add_check("spectrum_sum_rules", "hard", worst_residual <= tol, worst_residual,
                  tol, "Laplace spectra meet sum(lam) = tr H and sum(lam^2) = ||H||_F^2")

    tol = config.tol("relative_change")
    if len(config.schedule) >= 2:
        prev, last = per_len_mean[-2], per_len_mean[-1]
        change = abs(last - prev) / max(abs(prev), 1e-300)
        rec.aggregates["relative_change_last"] = change
        rec.add_check("per_length_convergence", "hard", change <= tol, change, tol,
                      f"xi({lam_grid[star]})/length change between the last two cutoffs")
    rec.aggregates["xi_per_length"] = dict(zip(map(str, config.schedule), per_len_mean))
    rec.aggregates["variance"] = dict(zip(map(str, config.schedule), per_len_var))

    if config.opt("check_transverse"):
        l0 = config.schedule[0]
        wide_strip = _strip(config, l0, 2 * transverse + 1)
        wide = _shifts(config, wide_strip, [0])[0][0][star]
        meas1 = l0 * h
        shift = abs(base - wide) / meas1
        denom = max(abs(base) / meas1, 1e-300)
        rec.aggregates["transverse_doubling_shift"] = float(shift)
        ttol = config.tol("transverse_tol")
        if shift / denom > ttol:
            raise ExperimentError(
                f"transverse boundary contamination: doubling shifts xi by {shift}")
        rec.add_check("transverse_adequate", "hard", True, float(shift / denom), ttol,
                      "doubling the transversal extent leaves xi/length unchanged")
    return rec
