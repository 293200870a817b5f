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
from ..model import IntBox, assemble_hamiltonian, assemble_potential, dirichlet_restriction
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, gershgorin_window_check, mean_and_var


def _xi_per_meas(config, grid, fields, length, lam_grid):
    """(xi(lam) per field, (k, n_lam), and meas(Lambda)) for the cutoff box of
    one length: the fields' Hamiltonians counted as one stack.  Every lam is
    negative and H0 > 0, so N(lam; H0) = 0 and xi = -N(lam; H)."""
    cut = IntBox.centered((length,) * config.dimension)
    pot = assemble_potential(grid, config.build_profile(), fields, "lattice_sum", cut)
    # the lowest upper spectral edge of the stack bounds every energy
    gershgorin_window_check(lam_grid, pot.values.max(axis=1).min(), config.dimension,
                            config.spacing)
    xi = -spectral.count_below(assemble_hamiltonian(grid, pot), lam_grid)
    return xi, cut.measure(config.spacing)


def run_bulk_limit(config: ExperimentConfig) -> ResultRecord:
    if any(lam >= 0.0 for lam in config.energies):
        raise ExperimentError("bulk-limit energies must be negative (below the free spectrum)")

    rec = ResultRecord("bulk-limit", config.seed, config.digest())
    lam_grid = np.asarray(config.energies)
    reals = range(config.realizations)

    side = config.opt("ambient_factor") * max(config.schedule)
    grid = ambient_for(IntBox.centered((side,) * config.dimension), 0, config.spacing)
    fields = [sample_couplings(config.distribution, grid.box, config.seed, r) for r in reals]
    per_length = {length: _xi_per_meas(config, grid, fields, length, lam_grid)
                  for length in config.schedule}
    for length in config.schedule:
        xis, meas = per_length[length]
        for r, xi in zip(reals, xis):
            for lam, x in zip(lam_grid, xi):
                rec.rows.append({"L": length, "realization": r, "lam": float(lam),
                                 "xi": int(x), "xi_per_meas": float(x / meas)})

    # the -N(lam) proxy: Dirichlet counting per volume at the largest box, on
    # the full potential there, which only anchors within the profile's reach add to
    box = IntBox.centered((max(config.schedule),) * config.dimension)
    profile = config.build_profile()
    reach = max(max(-o, n - 1 + o) for o, n in zip(profile.offset, profile.values.shape))
    pot = assemble_potential(grid, profile, fields, "lattice_sum", box.padded(reach))
    restricted = dirichlet_restriction(assemble_hamiltonian(grid, pot), box)
    ref_n = np.mean(spectral.count_below(restricted, lam_grid) / box.measure(config.spacing),
                    axis=0)
    for i, lam in enumerate(lam_grid):
        rec.aggregates[f"reference_N[{lam}]"] = float(ref_n[i])

    dev_tol = config.tol("bulk_deviation")
    variances = []
    for k, length in enumerate(config.schedule):
        xis, meas = per_length[length]
        vals = xis / meas  # (R, n_lam)
        mean = vals.mean(axis=0)
        dev = np.abs(mean + ref_n)
        _, var0 = mean_and_var(vals[:, 0])
        variances.append(var0)
        rec.aggregates[f"deviation[L={length}]"] = dev.tolist()
        rec.aggregates[f"variance[L={length}]"] = var0
        rec.series.setdefault("deviation_vs_L", []).append([length, float(dev[0])])
        rec.series.setdefault("variance_vs_L", []).append([length, var0])

    last = config.schedule[-1]
    xis, meas = per_length[last]
    vals_last = xis / meas
    dev_last = float(np.abs(vals_last.mean(axis=0) + ref_n).max())
    rec.add_check("bulk_deviation", "hard", dev_last <= dev_tol, dev_last, dev_tol,
                  f"max over energies of |mean xi/meas + N| at L={last}")

    if len(config.schedule) >= 2 and config.realizations >= 2:
        rec.add_check("variance_endpoints", "hard",
                      variances[-1] <= variances[0] or variances[0] == 0.0,
                      variances[-1], variances[0],
                      "across-realization variance shrinks from first to last box")
        slack = config.tol("variance_slack")
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

    wide = ambient_for(IntBox.centered((2 * side,) * config.dimension), 0, config.spacing)
    field = sample_couplings(config.distribution, wide.box, config.seed, 0)
    xi_b, _ = _xi_per_meas(config, wide, [field], last, lam_grid)
    shift = float(np.abs(xis[0] - xi_b[0]).max() / meas)
    rec.aggregates["ambient_doubling_shift"] = shift
    if shift > dev_tol:
        raise ExperimentError(
            f"ambient box too small: doubling shifts xi/meas by {shift}")
    rec.add_check("ambient_adequate", "hard", True, shift, dev_tol,
                  "doubling the ambient box leaves xi/meas unchanged within tolerance")

    return rec
