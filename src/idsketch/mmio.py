"""Matrix Market file I/O.

Sparse matrices use the coordinate format, dense matrices the array format.
Values are written with 17 significant digits so float64 entries survive a
write/read round trip exactly.
"""

import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .linalg import as_csc, as_dense


def write_matrix_market(path, a):
    """Write a matrix to `path`; coordinate format if sparse, array if dense."""
    if sp.issparse(a):
        mmwrite(path, as_csc(a), precision=17, symmetry="general")
    else:
        mmwrite(path, as_dense(a), precision=17, symmetry="general")


def read_matrix_market(path):
    """Read a matrix from `path`; returns CSC if coordinate, ndarray if array."""
    a = mmread(path)
    if sp.issparse(a):
        return as_csc(a)
    return as_dense(a)
