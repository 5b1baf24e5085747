"""One-stop bundle of everything a law's asymptotic formulas need.

build_kernels precomputes the potential table, harmonic pair, entrance
laws, and constants for a law.  The right-hand sides read the free kernel
p^n from the DP-free route, potential.p_fourier; p_n, the exact free
n-step distribution from 0 by one DP run, has no library caller and stays
until the benchmark, which traces it, is refreshed (ROADMAP item 7).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def p_n(self, n: int) -> DPResult:
        """Exact free n-step distribution from 0: one DP run."""
        zmin, pmf = self.law.pmf_array()
        return run_dp(0, np.ones(1), zmin, pmf, n)

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
