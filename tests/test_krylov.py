import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    KrylovConfig,
    OdeConfig,
    SolverError,
    bicgstab,
    frobenius,
    gmres,
    lu_solve,
    small_example,
    solve_delay_lyapunov,
    unvec,
    vec,
)


def dense_operator(rng, n, spd=False):
    """Random well-conditioned operator on n x n matrices via a dense matrix."""
    A = rng.standard_normal((n * n, n * n))
    if spd:
        A = A @ A.T + n * n * np.eye(n * n)
    else:
        A = A + n * n * np.eye(n * n)

    def op(X):
        return unvec(A @ vec(X), n)

    return op, A


class TestGmres:
    def test_identity_operator_one_iteration(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 4))
        report = gmres(lambda X: X, b, cfg=KrylovConfig(tol=1e-12))
        assert report.iterations == 1
        assert report.converged
        assert_allclose(report.X, b, rtol=1e-12)
        assert len(report.residual_history) == report.iterations + 1

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        op, A = dense_operator(rng, 4, spd=True)
        b = rng.standard_normal((4, 4))
        report = gmres(op, b, cfg=KrylovConfig(tol=1e-13, maxit=16))
        X_direct = unvec(lu_solve(A, vec(b)), 4)
        assert frobenius(report.X - X_direct) <= 1e-10 * frobenius(X_direct)

    def test_history_non_increasing(self):
        rng = np.random.default_rng(2)
        op, _ = dense_operator(rng, 5)
        b = rng.standard_normal((5, 5))
        report = gmres(op, b, cfg=KrylovConfig(tol=1e-12, maxit=25))
        h = report.residual_history
        assert all(a >= b_ - 1e-15 for a, b_ in zip(h, h[1:]))

    def test_arnoldi_basis_orthonormal(self):
        rng = np.random.default_rng(3)
        op, _ = dense_operator(rng, 4)
        b = rng.standard_normal((4, 4))
        report = gmres(op, b, cfg=KrylovConfig(tol=1e-13, maxit=16), collect_basis=True)
        V = np.array([vec(v) for v in report.basis])
        G = V @ V.T
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 1e-10

    def test_basis_orthonormal_past_initial_capacity(self):
        rng = np.random.default_rng(12)
        op, _ = dense_operator(rng, 6)
        b = rng.standard_normal((6, 6))
        report = gmres(op, b, cfg=KrylovConfig(tol=1e-300, maxit=34), collect_basis=True)
        assert not report.converged
        V = np.array([vec(v) for v in report.basis])
        assert V.shape == (35, 36)
        assert np.abs(V @ V.T - np.eye(35)).max() <= 1e-12

    def test_left_precond_equals_composed_operator(self):
        rng = np.random.default_rng(4)
        op, _ = dense_operator(rng, 4)
        M, _ = dense_operator(rng, 4, spd=True)
        b = rng.standard_normal((4, 4))
        cfg = KrylovConfig(tol=1e-11, maxit=16)
        left = gmres(op, b, precond=M, cfg=cfg)
        composed = gmres(lambda X: M(op(X)), M(b), cfg=cfg)
        assert left.iterations == composed.iterations
        assert frobenius(left.X - composed.X) <= 1e-10 * max(frobenius(composed.X), 1e-300)
        for a, c in zip(left.residual_history, composed.residual_history):
            assert abs(a - c) <= 1e-10

    def test_maxit_reported_not_converged(self):
        rng = np.random.default_rng(5)
        op, _ = dense_operator(rng, 5)
        b = rng.standard_normal((5, 5))
        report = gmres(op, b, cfg=KrylovConfig(tol=1e-14, maxit=3))
        assert not report.converged
        assert report.iterations == 3
        assert len(report.residual_history) == 4

    def test_breakdown_on_singular_operator(self):
        b = np.eye(3)
        with pytest.raises(SolverError) as err:
            gmres(lambda X: np.zeros((3, 3)), b, cfg=KrylovConfig(tol=1e-12))
        assert err.value.code == "krylov-breakdown"

    def test_happy_breakdown_returns_exact_solution(self):
        # operator acts as identity on the Krylov space of b
        b = np.eye(3)
        report = gmres(lambda X: X.copy(), b, cfg=KrylovConfig(tol=1e-15))
        assert report.converged
        assert report.iterations == 1

    def test_zero_rhs_rejected(self):
        with pytest.raises(ValueError):
            gmres(lambda X: X, np.zeros((3, 3)))


class TestBicgstab:
    def test_identity_operator_one_iteration(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((4, 4))
        report = bicgstab(lambda X: X, b, cfg=KrylovConfig(method="bicgstab", tol=1e-12))
        assert report.converged
        assert report.iterations == 1

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        op, A = dense_operator(rng, 4)
        b = rng.standard_normal((4, 4))
        report = bicgstab(op, b, cfg=KrylovConfig(method="bicgstab", tol=1e-10, maxit=64))
        X_direct = unvec(lu_solve(A, vec(b)), 4)
        assert frobenius(report.X - X_direct) <= 1e-8 * frobenius(X_direct)

    def test_agrees_with_gmres(self):
        rng = np.random.default_rng(8)
        op, _ = dense_operator(rng, 4)
        b = rng.standard_normal((4, 4))
        tol = 1e-10
        xg = gmres(op, b, cfg=KrylovConfig(tol=tol, maxit=32)).X
        xb = bicgstab(op, b, cfg=KrylovConfig(method="bicgstab", tol=tol, maxit=64)).X
        assert frobenius(xg - xb) <= 10 * tol * max(frobenius(xg), 1.0)

    def test_small_example_converges_before_dimension_bound(self):
        ode = OdeConfig()
        krylov = KrylovConfig(method="bicgstab", tol=1e-12, maxit=64)
        report = solve_delay_lyapunov(small_example(1.0).problem, ode=ode, krylov=krylov)
        assert report.converged
        assert report.iterations < 16
        # the n^2 bound is exact-arithmetic finite termination; at alpha = 5
        # the preconditioned operator has condition ~1.6e8 and eigenvalues
        # 15.3 +/- 50.4i, and BiCGStab plateaus near 2.4e-3 for ~10 iterations
        p = small_example(5.0).problem
        report = solve_delay_lyapunov(p, ode=ode, krylov=krylov)
        assert report.converged
        reference = solve_delay_lyapunov(p, ode=ode, krylov=KrylovConfig(tol=1e-12))
        assert frobenius(report.X - reference.X) <= 1e-10 * frobenius(reference.X)
        assert report.r_alg <= 1e-8


def nan_on_call(f, bad):
    """Wrap f so that its ``bad``-th call returns NaN; ``calls`` counts calls."""

    def wrapped(X):
        wrapped.calls += 1
        out = f(X)
        return np.full_like(out, np.nan) if wrapped.calls == bad else out

    wrapped.calls = 0
    return wrapped


@pytest.mark.parametrize("solve", [gmres, bicgstab])
@pytest.mark.parametrize("faulty", ["operator", "preconditioner"])
def test_nonfinite_output_stops_at_first_bad_call(solve, faulty):
    rng = np.random.default_rng(9)
    op, _ = dense_operator(rng, 4)
    b = rng.standard_normal((4, 4))
    op = nan_on_call(op, 3 if faulty == "operator" else 0)
    pc = nan_on_call(lambda X: X, 3 if faulty == "preconditioner" else 0)
    cfg = KrylovConfig(method=solve.__name__, tol=1e-14, maxit=64)
    with pytest.raises(SolverError) as err:
        solve(op, b, precond=pc, cfg=cfg)
    assert err.value.code == "krylov-nonfinite"
    assert faulty in str(err.value)
    assert (op if faulty == "operator" else pc).calls == 3


@pytest.mark.parametrize("solve", [gmres, bicgstab])
def test_iteration_seconds_measured(solve):
    rng = np.random.default_rng(10)
    op, _ = dense_operator(rng, 4)
    b = rng.standard_normal((4, 4))
    report = solve(op, b, cfg=KrylovConfig(method=solve.__name__, tol=1e-12, maxit=64))
    stamps = report.iteration_seconds
    assert len(stamps) == len(report.residual_history)
    assert all(0.0 <= a <= b_ for a, b_ in zip(stamps, stamps[1:]))
    assert stamps[-1] <= report.timings.total_seconds


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(tol=2.0)
    with pytest.raises(ValueError):
        KrylovConfig(maxit=0)
    with pytest.raises(ValueError):
        KrylovConfig(method="qmr")
