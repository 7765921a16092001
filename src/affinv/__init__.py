"""Numerical invariants of affine SL(n,R) actions on sl(n,R): Jordan and
Cartan projections, Margulis invariants, affine cross and triple ratios, and
properness diagnostics for representations of free groups."""

from . import cartan, freegroup, fuchsian, invariants, numkernel, spectra

__all__ = ["cartan", "freegroup", "fuchsian", "invariants", "numkernel",
           "spectra"]
__version__ = "0.1.0"
