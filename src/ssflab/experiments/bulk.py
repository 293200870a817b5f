"""Bulk limit: spectral shift per interaction volume against Dirichlet counting.

For a growing family of cutoff boxes Lambda the normalised shift
xi(lam; H0 + V_Lambda, H0) / meas(Lambda) must approach -N(lam), where N is
the integrated density of states computed from eigenvalue counting of the
Dirichlet restriction at the largest box.  Both operators are realised on one
ambient Dirichlet box several times larger than the biggest cutoff; the
adequacy of that proxy is verified by a doubling test, never assumed.
"""

from __future__ import annotations

import numpy as np

from .. import spectral
from ..harness.parallel import parallel_map
from ..model import SiteBox, assemble_hamiltonian, assemble_potential, \
    dirichlet_restriction, free_hamiltonian
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, centered_absolute_box, gershgorin_window_check, \
    mean_and_var


def _xi_per_meas(config, ambient_factor, length, realization, lam_grid):
    """xi(lam)/meas(Lambda) for one cutoff length and realization."""
    dim, h = config.dimension, config.spacing
    lmax = max(config.schedule)
    window = centered_absolute_box(ambient_factor * lmax, dim)
    grid, origin = ambient_for(window, 0, h)
    profile = config.build_profile()
    cut = centered_absolute_box(length, dim)
    field = sample_couplings(config.distribution, window, config.seed, realization)
    pot = assemble_potential(grid, profile, field, "lattice_sum", cut, origin=origin)
    gershgorin_window_check(lam_grid, pot.values, dim, h)
    ham = assemble_hamiltonian(grid, pot)
    h0 = free_hamiltonian(grid)
    meas = cut.count * h ** dim
    xi = np.array([spectral.count_below(h0, lam) - spectral.count_below(ham, lam)
                   for lam in lam_grid], dtype=np.int64)
    return xi, meas


def _dirichlet_reference(config, ambient_factor, realization, lam_grid):
    """-N(lam) proxy: Dirichlet counting per volume at the largest box."""
    dim, h = config.dimension, config.spacing
    lmax = max(config.schedule)
    window = centered_absolute_box(ambient_factor * lmax, dim)
    grid, origin = ambient_for(window, 0, h)
    profile = config.build_profile()
    field = sample_couplings(config.distribution, window, config.seed, realization)
    pot = assemble_potential(grid, profile, field, origin=origin)
    ham = assemble_hamiltonian(grid, pot)
    box = SiteBox.centered(grid, lmax)
    restricted = dirichlet_restriction(ham, box)
    meas = box.measure
    return np.array([spectral.count_below(restricted, lam) / meas
                     for lam in lam_grid])


def run_bulk_limit(config: ExperimentConfig) -> ResultRecord:
    if config.dimension not in (1, 2):
        raise ExperimentError("bulk limit runs in 1D or 2D")
    if not config.schedule or not config.energies:
        raise ExperimentError("bulk limit needs a schedule and energies")
    if any(lam >= 0.0 for lam in config.energies):
        raise ExperimentError("bulk-limit energies must be negative (below the free spectrum)")
    factor = int(config.opt("ambient_factor", 4))
    if factor < 4:
        raise ExperimentError("ambient grid must be at least 4x the largest box")

    rec = ResultRecord("bulk-limit", config.seed, config.digest())
    lam_grid = np.asarray(config.energies)
    reals = range(config.realizations)

    per_length = {}
    for length in config.schedule:
        results = parallel_map(
            lambda r, L=length: _xi_per_meas(config, factor, L, r, lam_grid),
            reals, config.workers)
        per_length[length] = results
        for r, (xi, meas) in zip(reals, results):
            for lam, x in zip(lam_grid, xi):
                rec.rows.append({"L": length, "realization": r, "lam": float(lam),
                                 "xi": int(x), "xi_per_meas": float(x / meas)})

    refs = parallel_map(lambda r: _dirichlet_reference(config, factor, r, lam_grid),
                        reals, config.workers)
    ref_n = np.mean(np.stack(refs, axis=0), axis=0)
    for i, lam in enumerate(lam_grid):
        rec.aggregates[f"reference_N[{lam}]"] = float(ref_n[i])

    dev_tol = config.tol("bulk_deviation", 0.02)
    variances = []
    for k, length in enumerate(config.schedule):
        vals = np.array([xi / meas for xi, meas in per_length[length]])  # (R, n_lam)
        mean = vals.mean(axis=0)
        dev = np.abs(mean + ref_n)
        _, var0 = mean_and_var(vals[:, 0])
        variances.append(var0)
        rec.aggregates[f"deviation[L={length}]"] = dev.tolist()
        rec.aggregates[f"variance[L={length}]"] = var0
        rec.series.setdefault("deviation_vs_L", []).append([length, float(dev[0])])
        rec.series.setdefault("variance_vs_L", []).append([length, var0])

    last = config.schedule[-1]
    vals_last = np.array([xi / meas for xi, meas in per_length[last]])
    dev_last = float(np.abs(vals_last.mean(axis=0) + ref_n).max())
    rec.add_check("bulk_deviation", "hard", dev_last <= dev_tol, dev_last, dev_tol,
                  f"max over energies of |mean xi/meas + N| at L={last}")

    if len(config.schedule) >= 2 and config.realizations >= 2:
        rec.add_check("variance_endpoints", "hard",
                      variances[-1] <= variances[0] or variances[0] == 0.0,
                      variances[-1], variances[0],
                      "across-realization variance shrinks from first to last box")
        slack = config.tol("variance_slack", 1.2)
        mono = all(variances[k + 1] <= slack * variances[k] or variances[k] == 0.0
                   for k in range(len(variances) - 1))
        rec.add_check("variance_monotone", "hard", mono, variances, slack,
                      "one-step slack self-averaging decay")

    if config.realizations >= 4:
        half = config.realizations // 2
        a = vals_last[:half, 0]
        b = vals_last[half:, 0]
        pooled = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        gap = abs(a.mean() - b.mean())
        rec.add_check("seed_block_agreement", "soft",
                      gap <= 3.0 * pooled + 1e-15, gap, 3.0 * pooled,
                      "disjoint realization blocks agree within 3 sigma")

    if config.opt("check_ambient", True):
        xi_a, meas = _xi_per_meas(config, factor, last, 0, lam_grid)
        xi_b, _ = _xi_per_meas(config, 2 * factor, last, 0, lam_grid)
        shift = float(np.abs(xi_a - xi_b).max() / meas)
        rec.aggregates["ambient_doubling_shift"] = shift
        if shift > dev_tol:
            raise ExperimentError(
                f"ambient box too small: doubling shifts xi/meas by {shift}")
        rec.add_check("ambient_adequate", "hard", True, shift, dev_tol,
                      "doubling the ambient box leaves xi/meas unchanged within tolerance")

    return rec
