"""walklab: exact kernels and asymptotic laws for mean-zero lattice
random walks with absorption at a point, on a half line, or partial."""

from .laws import StepLaw, build_law, lattice_structure, load_law, moments

__all__ = [
    "StepLaw", "build_law", "lattice_structure", "load_law", "moments",
]

__version__ = "0.1.0"
