"""Optimal atom-centered basis sets for a 1D double-well diatomic model.

Minimizes density-matrix-projection and energy-error criteria over the
spans of orthonormal coefficient matrices (the Grassmannian) expressed in a
truncated Hermite function basis, against 3-point finite-difference
references. The modules
are the API: grid, hermite, reference, galerkin, criteria, stiefel,
evaluate and cli.
"""

__version__ = "0.1.0"

# the one package-level name in use: the benchmark's tracer test checks
# that names re-exported here are traced too
from .galerkin import reduced_overlap
