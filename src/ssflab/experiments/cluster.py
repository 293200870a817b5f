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
from ..model import PotentialField, Provenance, SiteBox, \
    assemble_hamiltonian, assemble_potential, free_hamiltonian, interface_measure
from ..randomfield import sample_couplings
from .base import ExperimentConfig, ExperimentError, ResultRecord, \
    absolute_site_window, ambient_for, center_origin, centered_absolute_box, \
    centered_rect_box, fit_loglog


def _four_term_norm(config: ExperimentConfig, width: int, realization: int,
                    t: float) -> tuple:
    dim, h = config.dimension, config.spacing
    margin = int(config.opt("margin", 8))
    side = int(config.opt("box_side", 8))
    if side % 2:
        raise ExperimentError("box_side must be even for the hyperplane split")
    grid, _ = ambient_for(centered_rect_box(side, width), margin, h)
    origin = center_origin(grid)
    field = sample_couplings(config.distribution, absolute_site_window(grid),
                             config.seed, realization)
    profile = config.build_profile()

    lam = SiteBox.centered(grid, (side, width))
    lam1 = SiteBox(grid, lam.lo, (lam.lo[0] + side // 2 - 1, lam.hi[1]))
    lam2 = SiteBox(grid, (lam.lo[0] + side // 2, lam.lo[1]), lam.hi)

    dl = config.dense_limit
    h0 = free_hamiltonian(grid)
    hv = assemble_hamiltonian(grid, assemble_potential(
        grid, profile, field, "sharp", lam, origin=origin))
    h1 = assemble_hamiltonian(grid, assemble_potential(
        grid, profile, field, "sharp", lam1, origin=origin))
    h2 = assemble_hamiltonian(grid, assemble_potential(
        grid, profile, field, "sharp", lam2, origin=origin))
    comb = (spectral.heat_semigroup(hv, t, dl) - spectral.heat_semigroup(h1, t, dl)
            - spectral.heat_semigroup(h2, t, dl) + spectral.heat_semigroup(h0, t, dl))
    return spectral.trace_norm(comb, dl), interface_measure(lam1, lam2)


def _additivity_defect(config: ExperimentConfig, realization: int) -> int:
    """1D: max over an off-spectrum grid of |xi_12 - xi_1 - xi_2|."""
    h = config.spacing
    sites = int(config.opt("additivity_sites", 320))
    block = int(config.opt("additivity_block", 48))
    gap = int(config.opt("additivity_gap", 32))
    grid, _ = ambient_for(centered_absolute_box(sites, 1), 0, h)
    origin = center_origin(grid)
    field = sample_couplings(config.distribution, absolute_site_window(grid),
                             config.seed, 1000 + realization)
    # the additivity instance is one-dimensional regardless of the 2D campaign
    from ..model import SingleSiteProfile
    profile = SingleSiteProfile.point(float(config.profile.get("amplitude", -1.0)), 1)

    half_gap = gap // 2
    b1 = SiteBox(grid, (grid.extents[0] // 2 - half_gap - block,),
                 (grid.extents[0] // 2 - half_gap - 1,))
    b2 = SiteBox(grid, (grid.extents[0] // 2 + half_gap,),
                 (grid.extents[0] // 2 + half_gap + block - 1,))
    if b1.hi[0] >= b2.lo[0]:
        raise ExperimentError("additivity supports overlap")

    h0 = free_hamiltonian(grid)
    mk = lambda box: assemble_hamiltonian(grid, assemble_potential(
        grid, profile, field, "sharp", box, origin=origin))
    h1, h2 = mk(b1), mk(b2)
    v12 = assemble_potential(grid, profile, field, "sharp", b1, origin=origin).values \
        + assemble_potential(grid, profile, field, "sharp", b2, origin=origin).values
    h12 = assemble_hamiltonian(grid, PotentialField(
        grid, v12, Provenance(profile.name, field.field_id(), "sharp-union")))

    dl = config.dense_limit
    spectra = [spectral.eig_all(x, dense_limit=dl).eigenvalues
               for x in (h0, h1, h2, h12)]
    lo = min(s.min() for s in spectra) - 0.5
    hi = max(s.max() for s in spectra) + 0.5
    grid_lam = ssf.midpoint_energy_grid(spectra, lo, hi, max_points=240)
    xi = {}
    for name, ham in (("h1", h1), ("h2", h2), ("h12", h12)):
        xi[name] = ssf.ssf_counting(ham, h0, grid_lam).xi_raw
    defect = np.abs(xi["h12"] - xi["h1"] - xi["h2"])
    return int(defect.max())


def run_cluster(config: ExperimentConfig) -> ResultRecord:
    if config.dimension != 2:
        raise ExperimentError("cluster interface scaling is two-dimensional")
    if len(config.schedule) < 2:
        raise ExperimentError("cluster needs an interface-length schedule")
    t = float(config.opt("t", 1.0))

    rec = ResultRecord("cluster", config.seed, config.digest())
    reals = list(range(config.realizations))

    norms = []
    interfaces = []
    for width in config.schedule:
        vals = parallel_map(lambda r, w=width: _four_term_norm(config, w, r, t),
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
    lo = config.tol("slope_low", 0.7)
    hi = config.tol("slope_high", 1.3)
    rec.add_check("interface_slope", "hard", lo <= fit["slope"] <= hi,
                  fit["slope"], [lo, hi], "four-term trace norm vs interface length")

    times = sorted(config.times)
    if len(times) >= 2:
        tn = [_four_term_norm(config, config.schedule[-1], 0, tt)[0] for tt in times]
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
    tol = config.tol("additivity", 1.1)
    rec.add_check("additivity_defect", "soft", worst <= tol, worst, tol,
                  "1D shift-function additivity defect on disjoint supports")
    for r, d in zip(reals, defects):
        rec.rows.append({"additivity_realization": r, "defect": int(d)})
    return rec
