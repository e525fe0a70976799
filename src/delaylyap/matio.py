"""Matrix Market exchange in the dense "array" format.

All matrices cross the process boundary as ``array real general`` or
``array complex general`` files; values are written with enough digits to
round-trip float64 exactly.  ``scipy.io`` is imported on first use, so
``import delaylyap`` does not pay for it.
"""

import numpy as np

from .errors import SolverError


def write_matrix(path, A, comment=""):
    """Write a dense matrix as a Matrix Market array file."""
    A = np.asarray(A)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {A.ndim}")
    if not np.all(np.isfinite(A)):
        raise SolverError("matrix-not-finite", f"refusing to write non-finite entries to {path}")
    import scipy.io

    field = "complex" if np.iscomplexobj(A) else "real"
    scipy.io.mmwrite(str(path), A, comment=comment, field=field,
                     precision=17, symmetry="general")


def read_matrix(path):
    """Read a Matrix Market file into a dense ndarray.

    Raises
    ------
    ValueError
        on a zero dimension, read off the header: ``mmread`` dies of SIGFPE.
    SolverError
        ``"matrix-not-finite"`` when the file carries NaN or Inf entries.
    """
    import scipy.io

    if 0 in scipy.io.mminfo(str(path))[:2]:
        raise ValueError(f"{path} has a zero dimension: a matrix needs at least one entry")
    A = scipy.io.mmread(str(path))
    if hasattr(A, "todense"):
        A = np.asarray(A.todense())
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise SolverError("matrix-not-finite", f"{path} contains NaN/Inf entries")
    if np.iscomplexobj(A) and np.allclose(A.imag, 0.0, atol=0.0):
        A = A.real
    return A
