"""Cluster properties: interface scaling of the four-term heat combination
and the 1D additivity defect of the shift function.

2D part: for a box Lambda split by a hyperplane into Lambda_1, Lambda_2 the
trace norm of

    exp(-t(H0+V)) - exp(-t(H0+chi_1 V)) - exp(-t(H0+chi_2 V)) + exp(-tH0)

scales with the length of the common interface; the fitted log-log slope is
the verdict.  1D part: for potentials with disjoint supports the defect
|xi(V1+V2) - xi(V1) - xi(V2)| is reported against the soft bound 1.
"""

from __future__ import annotations

import numpy as np

from .. import spectral, ssf
from ..harness.parallel import parallel_map
from ..model import IntBox, PotentialField, SingleSiteProfile, \
    assemble_hamiltonian, assemble_potential, free_hamiltonian, interface_measure
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    ambient_for, fit_loglog, halve


def _geometry(config: ExperimentConfig, width: int) -> tuple:
    """(grid, (Lambda, Lambda_1, Lambda_2)) for one width: everything of the
    four-term combination but the field and t."""
    lam = IntBox.centered((config.opt("box_side"), width))
    grid = ambient_for(lam, config.opt("margin"), config.spacing)
    return grid, (lam, *halve(lam))


def _four_term_norm(config: ExperimentConfig, geometry, realization: int,
                    t: float) -> tuple:
    grid, (lam, lam1, lam2) = geometry
    field = sample_couplings(config.distribution, grid.box, config.seed, realization)
    profile = config.build_profile()

    def semigroup(box):
        return spectral.heat_semigroup(assemble_hamiltonian(grid, assemble_potential(
            grid, profile, field, "sharp", box)), t)

    comb = semigroup(lam)  # in place, left to right as S - S1 - S2 + S0
    comb -= semigroup(lam1)
    comb -= semigroup(lam2)
    comb += spectral.heat_semigroup(free_hamiltonian(grid), t)  # closed form, O(n^2)
    return spectral.trace_norm(comb), interface_measure(lam1, lam2, config.spacing)


def _additivity_defect(config: ExperimentConfig, realization: int) -> int:
    """1D: max over an off-spectrum grid of |xi_12 - xi_1 - xi_2|."""
    h = config.spacing
    sites = config.opt("additivity_sites")
    block = config.opt("additivity_block")
    gap = config.opt("additivity_gap")
    grid = ambient_for(IntBox.centered((sites,)), 0, h)
    field = sample_couplings(config.distribution, grid.box, config.seed,
                             1000 + realization)
    # the additivity instance is one-dimensional regardless of the 2D campaign
    profile = SingleSiteProfile.point(config.amplitude, 1)

    half_gap = gap // 2
    b1 = IntBox((-half_gap - block,), (-half_gap - 1,))
    b2 = IntBox((half_gap,), (half_gap + block - 1,))

    h0 = free_hamiltonian(grid)
    v1, v2 = (assemble_potential(grid, profile, field, "sharp", b) for b in (b1, b2))
    h1, h2, h12 = (assemble_hamiltonian(grid, v) for v in
                   (v1, v2, PotentialField(grid, v1.values + v2.values)))

    spectra = [spectral.eig_all(x)[0] for x in (h0, h1, h2, h12)]
    lo = min(s.min() for s in spectra) - 0.5
    hi = max(s.max() for s in spectra) + 0.5
    grid_lam = ssf.midpoint_energy_grid(spectra, lo, hi, max_points=240)
    # xi_12 - xi_1 - xi_2 = (N_1 - N_12) - (N_0 - N_2): four counts, not six
    defect = np.abs(ssf.ssf_counting(h12, h1, grid_lam).xi_raw
                    - ssf.ssf_counting(h2, h0, grid_lam).xi_raw)
    return int(defect.max())


def run_cluster(config: ExperimentConfig) -> ResultRecord:
    t = config.opt("t")

    rec = ResultRecord("cluster", config.seed, config.digest())
    reals = list(range(config.realizations))

    norms = []
    interfaces = []
    for width in config.schedule:
        geometry = _geometry(config, width)
        vals = parallel_map(lambda r: _four_term_norm(config, geometry, r, t),
                            reals, config.workers)
        mean = float(np.mean([v for v, _ in vals]))
        interfaces.append(vals[0][1])
        norms.append(mean)
        for r, (v, iface) in zip(reals, vals):
            rec.rows.append({"interface": float(iface), "width": width,
                             "realization": r, "trace_norm": float(v)})
        rec.series.setdefault("norm_vs_interface", []).append([float(vals[0][1]), mean])

    fit = fit_loglog(interfaces, norms)
    rec.fits["interface"] = fit
    lo = config.tol("slope_low")
    hi = config.tol("slope_high")
    rec.add_check("interface_slope", "hard", lo <= fit["slope"] <= hi,
                  fit["slope"], [lo, hi], "four-term trace norm vs interface length")

    times = sorted(config.times)
    if len(times) >= 2:
        # the main loop's realization 0 of the last width (vals) ran at t
        geometry = _geometry(config, config.schedule[-1])
        tn = [vals[0][0] if tt == t else _four_term_norm(config, geometry, 0, tt)[0]
              for tt in times]
        rec.aggregates["norm_vs_t"] = dict(zip(map(str, times), tn))
        # decay toward t -> infinity needs positive spectra, i.e. V >= 0
        smin, smax = config.distribution.support_bounds()
        pvals = config.build_profile().values
        vmin = min(smin * pvals.max(), smin * pvals.min(),
                   smax * pvals.max(), smax * pvals.min())
        if vmin >= 0.0:
            rec.add_check("norm_decay_in_t", "soft",
                          all(b < a for a, b in zip(tn, tn[1:])), tn, None,
                          "combination norm decays across the t grid")
        else:
            rec.notes.append("norm_vs_t recorded only: decay check needs V >= 0")

    defects = parallel_map(lambda r: _additivity_defect(config, r), reals,
                           config.workers)
    worst = int(max(defects))
    rec.aggregates["additivity_defect"] = worst
    tol = config.tol("additivity")
    rec.add_check("additivity_defect", "soft", worst <= tol, worst, tol,
                  "1D shift-function additivity defect on disjoint supports")
    for r, d in zip(reals, defects):
        rec.rows.append({"additivity_realization": r, "defect": int(d)})
    return rec
