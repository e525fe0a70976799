"""Shared test oracles and data: characteristic-polynomial eigenvalues,
pencil eigenvalues by determinant interpolation, multiset matching, a
seeded generator of delay-stable problems, fixed-step plans, a
propagation that concatenates [B, B^T] for every Taylor term and the
sampled deviation of the preconditioned operator from the identity."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from delaylyap import (PropagationPlan, TdsProblem, apply_operator, apply_preconditioner,
                       frobenius)

# Reference midpoint solution of the 4x4 example at coupling 1 (entries are
# 4-decimal prints of the matrix scaled by 100, so each carries an absolute
# rounding of at most 5e-7).
SMALL_EXAMPLE_MIDPOINT = 0.01 * np.array([
    [0.2302, -0.0156, 0.0101, -0.3729],
    [-0.0885, 0.0044, -0.0038, 0.1380],
    [0.1466, -0.0057, 0.0056, -0.2263],
    [-0.5485, 0.0331, -0.0238, 0.8755],
])


def rk4_plan(steps):
    """The plan of ``OdeConfig(steps=steps)``: ``steps`` degree-4 Taylor steps."""
    return PropagationPlan(degree=4, steps=steps)


def reference_propagate(A0, A1, X, tau, plan):
    """The terminal pair (Z1, Z2) of ``plan`` from Z1(0) = Z2(0) = X, for an
    n x n X, with every Taylor term a fresh product [B, B^T] S-+ of the
    concatenated n x 2n matrix and the stacked S-+ = [A0; -+A1], and the
    steps combined by the Chebyshev recurrence in difference form."""
    A0 = np.asarray(A0, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    S = (np.concatenate((A0, -A1)), np.concatenate((A0, A1)))
    h = 0.5 * tau / plan.steps
    U = D = np.asarray(X, dtype=float)
    for _ in range(plan.steps):
        sums = [np.zeros_like(U), np.zeros_like(U)]  # W U and O_h U
        B = U
        for j in range(1, plan.degree + 1):
            B = np.dot(np.concatenate((B, B.T), axis=1), S[j % 2])
            B *= h / j
            sums[j % 2] += B
        D_prev, D = D, D + 2.0 * sums[0]
        U = U + D
        P = 0.5 * (D + D_prev)
    return P + sums[1], P - sums[1]


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


def preconditioner_quality(ctx, factors, trials=20, seed=0):
    """Largest observed deviation of the preconditioned operator from identity.

    Returns max over random unit-Frobenius X of
    ||apply_preconditioner(apply_operator(X)) - X||_F, a lower bound on the
    operator-norm deviation of the preconditioned system from the identity.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    X = np.random.default_rng(seed).standard_normal((trials, ctx.problem.n, ctx.problem.n))
    X /= np.linalg.norm(X, axis=(-2, -1), keepdims=True)
    return max(frobenius(apply_preconditioner(factors, Y) - Xk)
               for Xk, Y in zip(X, apply_operator(ctx, X)))
