"""Interval analysis for finite-group subgroup lattices.

Classify intervals (distributive, boolean, bottom-boolean), compute Euler
and dual Euler totients, decide linear primitivity through exact character
theory, and certify primitivity by chaining structural reduction rules.
"""

# perfbench/make_pool.py reads these modules and CapExceeded off the package
from . import certifier, characters, intervals, lattice, perm, totients  # noqa: F401
from .errors import CapExceeded  # noqa: F401

__version__ = "0.1.0"
