"""One-stop bundle of everything a law's asymptotic formulas need.

build_kernels precomputes the potential table, harmonic pair, entrance
laws, and constants for a law.  The bundle also keeps the DP route to
the free kernel: it caches exact free distributions p^n(0, .) per step
count (p_n), and reads one free value p^n(0, z) as the
Chapman-Kolmogorov dot of two half-length windows (p_n_at), which costs
about a third of the full-length DP.  The right-hand sides read p^n from
the DP-free route, potential.p_fourier, so no library code calls p_n or
p_n_at; they stay until the benchmark, which traces p_n, is refreshed
(ROADMAP item 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ladder, potential
from .dp import DPResult, Window, run_dp
from .errors import ConstraintViolation, InconsistentEstimates
from .laws import LatticeStructure, Moments, StepLaw, lattice_structure, moments

# relative gap allowed between the root-solve and entrance-sum C+-; both
# routes are exact, and over 102 random laws of span up to 64 they agreed
# within 5.4e-12
ROUTE_TOL = 1e-9


@dataclass
class WalkKernels:
    law: StepLaw
    moments: Moments
    structure: LatticeStructure
    table: potential.PotentialTable
    pair: ladder.HarmonicPair
    h_inf_plus: Window
    h_minus_inf: Window
    constants: potential.WalkConstants
    c_plus_entrance: float
    c_minus_entrance: float
    _free_cache: dict[int, DPResult] = field(
        default_factory=dict, repr=False)

    def p_n(self, n: int) -> DPResult:
        """Exact free n-step distribution from 0 (cached).  A miss extends
        the largest cached p^m, m < n, by n - m steps, and its cut adds the
        cut mass of the first m steps.  When m is a multiple of
        dp.BLOCK_STEPS the extension takes the blocks of a run from 0, so
        its window is the n-step run's bit for bit; otherwise it is that
        run's to float rounding."""
        if n not in self._free_cache:
            m = max((k for k in self._free_cache if k < n), default=0)
            start = self._free_cache.get(m, DPResult(0, np.ones(1)))
            zmin, pmf = self.law.pmf_array()
            res = run_dp(start.offset, start.weights, zmin, pmf, n - m)
            res.cut += start.cut
            self._free_cache[n] = res
        return self._free_cache[n]

    def p_n_at(self, n: int, displacement: int) -> float:
        """p^n(0, z) = sum_w p^ceil(n/2)(w) p^floor(n/2)(z - w), z the
        displacement, from the two cached half windows: the floor(n/2)
        window is requested first, so that for odd n the ceil(n/2) one
        extends it by one step.  It agrees with p_n(n).prob(z) to float
        rounding, and is exactly 0.0, with no DP, on the sites the walk
        cannot reach."""
        if not self.structure.reachable(n, displacement):
            return 0.0
        p_lo = self.p_n(n // 2)
        return self.p_n(n - n // 2).dot(p_lo.reflected(displacement))

    def sigma2(self) -> float:
        return float(self.moments.sigma2)


def build_kernels(law: StepLaw, table_X: int = 80,
                  pair_X: int = 400) -> WalkKernels:
    # the entrance sums read a(y) for |y| < reach and f_+-(j) for j <= reach
    reach = max(-law.zmin, law.zmax)
    for name, X, need in (("table", table_X, reach - 1),
                          ("pair", pair_X, reach)):
        if X < need:
            raise ConstraintViolation(
                f"{name} window {X} is narrower than the {need} sites the "
                f"entrance sums read for {law.name}")
    m = moments(law)
    table = potential.build_potential_table(law, X=table_X)
    consts = potential.constants(law, table)
    pair = ladder.build_harmonic_pair(law, X=pair_X)
    h_inf = ladder.entrance_law_inf(law, pair)
    h_minf = ladder.entrance_law_minus_inf(law, pair)
    cpe = ladder.c_entrance_route(h_inf, table, float(m.sigma2))
    cme = ladder.c_entrance_route(h_minf, table, float(m.sigma2))
    for name, solved, entrance in (("C^+", consts.c_plus, cpe),
                                   ("C^-", consts.c_minus, cme)):
        scale = max(abs(solved), abs(entrance), 0.05)
        if abs(solved - entrance) > ROUTE_TOL * scale:
            raise InconsistentEstimates(
                f"{name} routes disagree: root solve {solved!r}, "
                f"entrance sum {entrance!r}")
    return WalkKernels(
        law=law, moments=m, structure=lattice_structure(law), table=table,
        pair=pair, h_inf_plus=h_inf, h_minus_inf=h_minf, constants=consts,
        c_plus_entrance=cpe, c_minus_entrance=cme,
    )
