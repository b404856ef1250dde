"""Exact spectral data and sharp discrete Sobolev constants for the C60
buckyball graph.

The graph is built by truncating a canonical icosahedron; every constant
(the characteristic polynomial factorization, C0 = 239741/376200, the
rational function C(a)) is computed in exact rational arithmetic by
independent routes that are required to agree.

Importing the package makes BLAS single-threaded unless the environment
already says otherwise: OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS default to "1" before numpy is first imported. A value the
user set wins, and the default has no effect if numpy was imported first.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from buckysob._modular import KERNEL_LANE
from buckysob.graph import (FaceCensus, PolyhedralGraph, buckyball,
                            canonical_icosahedron, face_census,
                            find_antipodal_involution, girth, laplacian,
                            relabel, truncate)
from buckysob.polynomials import (IntPolynomial, RationalFunction,
                                  fit_rational_function)
from buckysob.ratmat import (PivotCounter, RationalMatrix, bareiss_solve,
                             charpoly, inverse, parse_rat, rat_str)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_LANE", "FaceCensus", "PolyhedralGraph", "buckyball",
    "canonical_icosahedron", "face_census",
    "find_antipodal_involution", "girth", "laplacian", "relabel", "truncate",
    "IntPolynomial", "RationalFunction", "fit_rational_function",
    "PivotCounter", "RationalMatrix", "bareiss_solve", "charpoly",
    "inverse", "parse_rat", "rat_str", "__version__",
]
