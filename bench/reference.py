"""Independent reference solutions of the shifted delay Lyapunov operator.

Built from SciPy alone: the vectorized coupled generator is assembled as a
sparse matrix, every unit matrix is propagated to t = tau/2 with
``scipy.sparse.linalg.expm_multiply``, the exact (undiscretized) operator is
assembled column by column, and X is found by a dense solve of
L(X) = -W.  Nothing here imports ``delaylyap``; the program's own
propagation, operator and solvers are what this reference checks.

The solutions are cached in ``reference.npz`` next to this file, together
with the problem data they were computed from, so a changed problem
generator invalidates its entry instead of silently reusing it.
"""

from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

CACHE = Path(__file__).resolve().parent / "reference.npz"
_FIELDS = ("A0", "A1", "W", "tau")
# Unit matrices propagated per expm_multiply call; bounds the working set
# at n = 50 to a few tens of MB.
_CHUNK = 256


def coupled_generator(A0, A1):
    """Sparse generator of d/dt [vec Z1; vec Z2^T] (column-major vec).

    Z1' = Z1 A0 + Z2^T A1 and (Z2^T)' = -A1^T Z1 - A0^T Z2^T.
    """
    n = A0.shape[0]
    I = sp.identity(n, format="csr")
    A0t = sp.csr_matrix(A0.T)
    A1t = sp.csr_matrix(A1.T)
    return sp.bmat([[sp.kron(A0t, I), sp.kron(A1t, I)],
                    [-sp.kron(I, A1t), -sp.kron(I, A0t)]], format="csr")


def exact_operator(A0, A1, tau, shift=1.0):
    """Dense n^2 x n^2 matrix of X -> Z2^T (A0 - cI) + (A0^T + cI) Z2
    + Z1^T A1 + A1^T Z1 with (Z1, Z2) propagated exactly from X to tau/2."""
    n = A0.shape[0]
    m = n * n
    G = (0.5 * tau) * coupled_generator(A0, A1)
    # Column-major index r + c n of E_rc maps to c + r n for its transpose.
    transposed = np.arange(m).reshape(n, n).T.ravel()
    I = np.eye(n)
    L = np.empty((m, m))
    for lo in range(0, m, _CHUNK):
        cols = np.arange(lo, min(lo + _CHUNK, m))
        B = np.zeros((2 * m, cols.size))
        B[cols, np.arange(cols.size)] = 1.0
        B[m + transposed[cols], np.arange(cols.size)] = 1.0
        out = expm_multiply(G, B)
        # Column j of `out` holds [vec Z1; vec Z2^T]; unvec is a transpose
        # of the row-major reshape.
        Z1 = out[:m].T.reshape(-1, n, n).transpose(0, 2, 1)
        S = out[m:].T.reshape(-1, n, n).transpose(0, 2, 1)
        Lj = (S @ (A0 - shift * I) + (A0.T + shift * I) @ S.transpose(0, 2, 1)
              + Z1.transpose(0, 2, 1) @ A1 + A1.T @ Z1)
        L[:, cols] = Lj.transpose(0, 2, 1).reshape(cols.size, m).T
    return L


def reference_solution(A0, A1, tau, W):
    """X = U(tau/2) from the exact operator, by a dense LU solve."""
    n = A0.shape[0]
    L = exact_operator(A0, A1, tau)
    x = np.linalg.solve(L, -W.T.ravel())
    return x.reshape(n, n).T


def load(problems):
    """Cached reference X per label, or None for a label whose cached
    problem data is missing or differs from ``problems[label]``."""
    cached = {}
    if CACHE.is_file():
        with np.load(CACHE, allow_pickle=False) as data:
            cached = {key: data[key] for key in data.files}
    out = {}
    for label, p in problems.items():
        same = all(
            f"{label}/{f}" in cached
            and np.array_equal(cached[f"{label}/{f}"], np.asarray(getattr(p, f)))
            for f in _FIELDS)
        out[label] = cached[f"{label}/X"] if same else None
    return out


def store(problems):
    """Compute every reference in ``problems`` and rewrite the cache."""
    arrays = {}
    for label, p in problems.items():
        for f in _FIELDS:
            arrays[f"{label}/{f}"] = np.asarray(getattr(p, f))
        arrays[f"{label}/X"] = reference_solution(p.A0, p.A1, p.tau, p.W)
    np.savez_compressed(CACHE, **arrays)
