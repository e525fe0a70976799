"""Shared test oracles and data: characteristic-polynomial eigenvalues,
pencil eigenvalues by determinant interpolation, multiset matching, and a
seeded generator of delay-stable problems."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from delaylyap import TdsProblem

# Reference midpoint solution of the 4x4 example at coupling 1 (entries are
# 4-decimal prints of the matrix scaled by 100, so each carries an absolute
# rounding of at most 5e-7).
SMALL_EXAMPLE_MIDPOINT = 0.01 * np.array([
    [0.2302, -0.0156, 0.0101, -0.3729],
    [-0.0885, 0.0044, -0.0038, 0.1380],
    [0.1466, -0.0057, 0.0056, -0.2263],
    [-0.5485, 0.0331, -0.0238, 0.8755],
])


def char_poly_coeffs(A):
    """Coefficients of det(lambda I - A) by the Faddeev-LeVerrier recursion."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    Nk = np.zeros_like(A)
    c = 1.0
    for k in range(1, n + 1):
        Nk = A @ (Nk + c * np.eye(n))
        c = -np.trace(Nk) / k
        coeffs.append(c)
    return np.array(coeffs)


def eigs_by_char_poly(A):
    """Eigenvalues via the characteristic polynomial's companion matrix."""
    return np.roots(char_poly_coeffs(A))


def pencil_eigs_by_det(M, NT):
    """Roots of det(M - lambda NT) by interpolation of the determinant."""
    n = M.shape[0]
    nodes = np.linspace(-2.0, 2.0, n + 1)
    dets = [np.linalg.det(M - lam * NT) for lam in nodes]
    return np.roots(np.polyfit(nodes, dets, n))


def max_multiset_distance(a, b):
    """Best-case pairing distance between two complex multisets."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    return cost[r, c].max()


def random_stable_problem(n, rng, coupling=0.3, tau=1.0):
    """Random delay-stable problem: log-norm of A0 pushed below -(coupling + margin).

    mu_2(A0) + ||A1||_2 < 0 guarantees exponential stability for every delay,
    which also rules out Hamiltonian eigenpairings of A0.
    """
    A0 = rng.standard_normal((n, n))
    mu2 = float(np.linalg.eigvalsh(0.5 * (A0 + A0.T)).max())
    A0 = A0 - (mu2 + 0.5 + coupling) * np.eye(n)
    A1 = rng.standard_normal((n, n))
    norm1 = np.linalg.norm(A1, 2)
    if norm1 > 0:
        A1 *= coupling / norm1
    B = rng.standard_normal((n, n))
    W = 0.5 * (B + B.T)
    return TdsProblem(A0=A0, A1=A1, tau=tau, W=W)
