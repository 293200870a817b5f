"""Quick invariant battery behind the ``selftest`` subcommand.

One line per check; a healthy build passes all of them in a few seconds.
These are smoke-level versions of the module invariants, not the full
acceptance campaigns.
"""

from __future__ import annotations

import numpy as np

from .. import brownian as br
from .. import spectral, ssf
from ..model import IntBox, SiteBox, assemble_hamiltonian, assemble_potential, \
    build_grid, dirichlet_restriction, free_hamiltonian, SingleSiteProfile
from ..randomfield import DistributionSpec, sample_couplings, shift_field, split_signs


def _alloy_1d(n: int, seed: int, amplitude: float = -1.0):
    grid = build_grid(1, 1.0, n)
    window = IntBox((0,), (n - 1,))
    field = sample_couplings(DistributionSpec("bernoulli", p=0.5), window, seed)
    pot = assemble_potential(grid, SingleSiteProfile.point(amplitude, 1), field)
    return free_hamiltonian(grid), assemble_hamiltonian(grid, pot)


def _checks(seed: int):
    rng = np.random.default_rng(seed)

    def stencil():
        h0 = free_hamiltonian(build_grid(1, 1.0, 3))
        dense = h0.to_dense()
        return np.array_equal(np.diag(dense), [2.0, 2.0, 2.0]) and dense[0, 1] == -1.0

    def counting_vs_oracle():
        a = rng.standard_normal((40, 40))
        a = 0.5 * (a + a.T)
        w = spectral.eig_all(a).eigenvalues
        lams = rng.uniform(w.min() - 0.5, w.max() + 0.5, size=8)
        return all(spectral.count_below(a, lam) ==
                   int(np.searchsorted(w, lam, side="left")) for lam in lams)

    def sign_split():
        f = sample_couplings(DistributionSpec("uniform", low=-1, high=1),
                             IntBox((0,), (499,)), seed)
        p, m = split_signs(f)
        return bool(np.all(p.values_flat() + m.values_flat() == f.values_flat()))

    def shift_action():
        f = sample_couplings(DistributionSpec("uniform", low=0, high=1),
                             IntBox((-5,), (5,)), seed)
        g = shift_field(shift_field(f, (3,)), (-3,))
        return bool(np.all(g.values_flat() == f.values_flat()))

    def birman_krein():
        h0, h = _alloy_1d(80, seed)
        g = spectral.BumpFunction(-1.0, 0.5)
        res = ssf.birman_krein_residual(h, h0, g)
        return abs(res) <= 1e-8 * 80 * g.max_abs_derivative()

    def laplace_identity():
        h0, h = _alloy_1d(60, seed + 1)
        a = ssf.laplace_functional(h, h0, 1.0)
        b = ssf.laplace_via_xi(h, h0, 1.0)
        return abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-300)

    def invariance_principle():
        # xi(lam; H, H0) = -xi(exp(-t lam); exp(-tH), exp(-tH0)) off the spectra
        h0, h = _alloy_1d(30, seed + 5)
        spectra = [spectral.eig_all(x).eigenvalues for x in (h, h0)]
        grid = ssf.midpoint_energy_grid(spectra, -1.5, 4.5, max_points=8)
        return all(ssf.invariance_residual(h, h0, 0.7, lam) == 0 for lam in grid.values)

    def semigroup_property():
        h0, h = _alloy_1d(30, seed + 2)
        e1 = spectral.heat_semigroup(h, 0.7)
        e2 = spectral.heat_semigroup(h, 0.3)
        e3 = spectral.heat_semigroup(h, 1.0)
        return np.max(np.abs(e1 @ e2 - e3)) <= 1e-10 * np.max(np.abs(e3))

    def domination():
        h0, h = _alloy_1d(30, seed + 3)   # V <= 0, so exp(-tH) >= exp(-tH0)
        f = rng.uniform(0.1, 1.0, size=30)
        lhs = spectral.heat_semigroup(h0, 0.8) @ f
        rhs = spectral.heat_semigroup(h, 0.8) @ f
        return bool(np.all(lhs <= rhs + 1e-12))

    def interlacing():
        h0, h = _alloy_1d(50, seed + 4)
        box = SiteBox(h.grid, (10,), (39,))
        wa = spectral.eig_all(h).eigenvalues
        wb = spectral.eig_all(dirichlet_restriction(h, box)).eigenvalues
        return bool(np.all(wb >= wa[: wb.size] - 1e-11))

    def bridge_dominates():
        est_b = br.simulate_hitting(np.zeros(1), br.half_space(0, 1.0), 1.0,
                                    paths=2000, bridge=True, seed=seed)
        est_p = br.simulate_hitting(np.zeros(1), br.half_space(0, 1.0), 1.0,
                                    paths=2000, bridge=False, seed=seed)
        return est_b.p_hat >= est_p.p_hat

    return [
        ("free_stencil", stencil),
        ("counting_vs_oracle", counting_vs_oracle),
        ("sign_split_exact", sign_split),
        ("shift_group_action", shift_action),
        ("birman_krein_residual", birman_krein),
        ("laplace_identity", laplace_identity),
        ("invariance_principle", invariance_principle),
        ("semigroup_property", semigroup_property),
        ("semigroup_domination", domination),
        ("dirichlet_interlacing", interlacing),
        ("bridge_dominates", bridge_dominates),
    ]


def run_selftest(seed: int = 0, out=print) -> int:
    """Run the battery; returns 0 on a healthy build, 1 otherwise."""
    failures = 0
    for name, fn in _checks(seed):
        try:
            ok = bool(fn())
        except Exception as exc:  # pragma: no cover - defensive
            ok = False
            out(f"FAIL {name}: {exc}")
            failures += 1
            continue
        out(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
