"""Matrix Market file I/O.

Sparse matrices use the coordinate format, dense matrices the array format.
Values are written with 17 significant digits so float64 entries survive a
write/read round trip exactly. `scipy.io` is imported by the first read
or write, so `import idsketch` does not pay its 15-18 ms of import time.
"""

from .linalg import as_matrix


def write_matrix_market(path, a):
    """Write a matrix to `path`; coordinate format if sparse, array if dense."""
    from scipy.io import mmwrite

    mmwrite(path, as_matrix(a), precision=17, symmetry="general")


def read_matrix_market(path):
    """Read a matrix from `path`; returns CSC if coordinate, ndarray if array."""
    from scipy.io import mmread

    return as_matrix(mmread(path))
