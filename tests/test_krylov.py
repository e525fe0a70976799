import re
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    KrylovConfig,
    OperatorContext,
    SolverError,
    apply_operator,
    apply_preconditioner,
    bicgstab,
    build_preconditioner,
    frobenius,
    gmres,
    lu_solve,
    small_example,
    solve_delay_lyapunov,
    unvec,
    vec,
)
from delaylyap.krylov import ArnoldiRelation, _require_finite, _rotate


def dense_operator(rng, n, spd=False):
    """Random well-conditioned operator on n x n matrices via a dense matrix."""
    A = rng.standard_normal((n * n, n * n))
    if spd:
        A = A @ A.T + n * n * np.eye(n * n)
    else:
        A = A + n * n * np.eye(n * n)

    def op(X):
        return unvec(A @ vec(X))

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
        X_direct = unvec(lu_solve(A, vec(b)))
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
        report = gmres(op, b, cfg=KrylovConfig(tol=1e-13, maxit=16))
        V = report.relation.V
        G = V @ V.T
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 1e-10

    def test_basis_orthonormal_past_initial_capacity(self):
        rng = np.random.default_rng(12)
        op, _ = dense_operator(rng, 6)
        b = rng.standard_normal((6, 6))
        report = gmres(op, b, cfg=KrylovConfig(tol=1e-300, maxit=34))
        assert not report.converged
        V = report.relation.V
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


def ravel_system(rng, N):
    """Random non-symmetric N x N matrix A and a callable applying it to a
    matrix through its row-major ravel, the kernels' vector coordinates."""
    A = rng.standard_normal((N, N)) / np.sqrt(N) + 2.0 * np.eye(N)

    def op(X):
        return (A @ X.ravel()).reshape(X.shape)

    return op, A


class TestRecycle:
    """GCRO with the Arnoldi relation of an earlier solve as a fixed space,
    on a 16 x 16 system (4 x 4 matrices) with a random left preconditioner."""

    @staticmethod
    def system(seed):
        rng = np.random.default_rng(seed)
        op, A = ravel_system(rng, 16)
        pc, M = ravel_system(rng, 16)
        first = gmres(op, rng.standard_normal((4, 4)), precond=pc, cfg=KrylovConfig(tol=1e-4))
        return op, pc, A, M @ A, first, rng

    def test_new_rhs_reaches_tol_and_matches_dense_solve(self):
        op, pc, A, _, first, rng = self.system(20)
        b = rng.standard_normal((4, 4))
        cfg = KrylovConfig(tol=1e-12)
        fresh = gmres(op, b, precond=pc, cfg=cfg)
        recycled = gmres(op, b, precond=pc, cfg=cfg, recycle=first.relation)
        assert recycled.converged
        assert 0 < recycled.iterations < fresh.iterations
        assert recycled.residual_history[-1] <= 1e-12
        X_direct = np.linalg.solve(A, b.ravel()).reshape(4, 4)
        assert frobenius(recycled.X - X_direct) <= 1e-10 * frobenius(X_direct)

    def test_same_rhs_converges_in_zero_iterations(self):
        op, pc, _, _, _, rng = self.system(21)
        b = rng.standard_normal((4, 4))
        cfg = KrylovConfig(tol=1e-8)
        first = gmres(op, b, precond=pc, cfg=cfg)
        again = gmres(op, b, precond=pc, cfg=cfg, recycle=first.relation)
        assert again.converged
        assert again.iterations == 0
        assert len(again.residual_history) == len(again.iteration_seconds) == 1
        assert again.residual_history[0] <= 1e-8
        assert frobenius(again.X - first.X) <= 1e-12 * frobenius(first.X)

    def test_implicit_spaces(self):
        # C = V_{k+1} Q_k is orthonormal and K U = C for U = V_k R_k^-1,
        # with K = P^-1 L; C^T agrees with the product by the formed C
        _, _, _, K, first, rng = self.system(22)
        relation = first.relation
        k = len(relation.cs)
        assert 0 < k < 16
        C = np.column_stack([relation.c(e) for e in np.eye(k)])
        U = np.column_stack([relation.u(e) for e in np.eye(k)])
        assert np.abs(C.T @ C - np.eye(k)).max() <= 1e-12
        assert np.abs(K @ U - C).max() <= 1e-12
        w = rng.standard_normal(16)
        assert_allclose(relation.ct(w), C.T @ w, rtol=0, atol=1e-12 * np.linalg.norm(w))


class TestKernelHelpers:
    def test_empty_space_projects_nothing(self):
        w = np.arange(5.0)
        space = ArnoldiRelation.empty(5)
        assert space.ct(w).shape == (0,)
        assert np.array_equal(w - space.c(space.ct(w)), w)

    def test_rotations_match_the_numpy_scalar_loop(self):
        # the loop runs on Python floats; the same operations on NumPy
        # scalars give the same bits
        rng = np.random.default_rng(23)
        t = rng.standard_normal(12)
        theta = rng.uniform(0, 2 * np.pi, 11)
        cs, sn = np.cos(theta), np.sin(theta)
        want = t.copy()
        for i in range(11):
            want[i], want[i + 1] = (cs[i] * want[i] + sn[i] * want[i + 1],
                                    -sn[i] * want[i] + cs[i] * want[i + 1])
        _rotate(t, cs.tolist(), sn.tolist())
        assert np.array_equal(t, want)

    def test_one_finiteness_check_names_the_first_bad_quantity(self):
        finite = (("empty", np.zeros(0)), ("column", np.ones(3)), ("norm", np.float64(2.0)))
        _require_finite(4, *finite)
        with pytest.raises(SolverError, match="column is not finite at iteration 4"):
            _require_finite(4, ("empty", np.zeros(0)), ("column", np.array([1.0, np.inf])),
                            ("norm", np.float64(np.nan)))
        with pytest.raises(SolverError, match="norm is not finite at iteration 4") as err:
            _require_finite(4, *finite[:2], ("norm", np.float64(np.nan)))
        assert err.value.code == "krylov-nonfinite"


class TestBicgstab:
    def test_identity_operator_one_iteration(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((4, 4))
        report = bicgstab(lambda X: X, b, cfg=KrylovConfig(tol=1e-12))
        assert report.converged
        assert report.iterations == 1

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        op, A = dense_operator(rng, 4)
        b = rng.standard_normal((4, 4))
        report = bicgstab(op, b, cfg=KrylovConfig(tol=1e-10, maxit=64))
        X_direct = unvec(lu_solve(A, vec(b)))
        assert frobenius(report.X - X_direct) <= 1e-8 * frobenius(X_direct)

    def test_agrees_with_gmres(self):
        rng = np.random.default_rng(8)
        op, _ = dense_operator(rng, 4)
        b = rng.standard_normal((4, 4))
        tol = 1e-10
        xg = gmres(op, b, cfg=KrylovConfig(tol=tol, maxit=32)).X
        xb = bicgstab(op, b, cfg=KrylovConfig(tol=tol, maxit=64)).X
        assert frobenius(xg - xb) <= 10 * tol * max(frobenius(xg), 1.0)

    def test_zero_rhs_rejected(self):
        with pytest.raises(ValueError, match="right-hand side is zero"):
            bicgstab(lambda X: X, np.zeros((3, 3)), cfg=KrylovConfig())

    @pytest.mark.parametrize("M, b, what", [
        # a 90 degree rotation moves r0 = e1 onto e2, so <r0, v> = 0
        ([[0, -1], [1, 0]], [1, 0], "<r0, v> = 0 at iteration 1"),
        # the oblique projection onto e1 along (1, -1) takes b = (1, 1) to
        # 2 e1, so alpha = 1 and s = (-1, 1) is in its kernel: t = K s = 0
        ([[1, 1], [0, 0]], [1, 1], "||t|| = 0 at iteration 1"),
        # s = -e3, omega = -1/4 and r = (0, 1/2, -1/2), orthogonal to r0 = e1
        ([[-2, -1, 0], [0, 0, -2], [-2, -2, -2]], [1, 0, 0], "rho=0, omega=-0.25 at iteration 2"),
    ], ids=["r0-orthogonal-to-v", "t-vanishes", "rho-vanishes"])
    def test_breakdown_raises(self, M, b, what):
        M = np.array(M, dtype=float)
        cfg = KrylovConfig(tol=1e-12)
        with pytest.raises(SolverError, match=re.escape(what)) as err:
            bicgstab(lambda x: M @ x, np.array(b, dtype=float), cfg=cfg)
        assert err.value.code == "bicgstab-breakdown"

    def test_small_example_converges_before_dimension_bound(self):
        # the kernel on the 4x4 example's preconditioned operator, on the
        # 2^-53 plan; the driver solves this n by LU.  The n^2 = 16 bound
        # is exact-arithmetic finite termination; at alpha = 5 the
        # preconditioned operator has condition ~1.6e8 and eigenvalues
        # 15.3 +/- 50.4i, and BiCGStab takes about 50 iterations
        for alpha, maxit in ((1.0, 15), (5.0, 64)):
            p = small_example(alpha).problem
            ctx = OperatorContext(p)
            factors = build_preconditioner(p.A0, tau=p.tau)
            report = bicgstab(lambda X: apply_operator(ctx, X), -p.W,
                              precond=lambda X: apply_preconditioner(factors, X),
                              cfg=KrylovConfig(tol=1e-12, maxit=maxit))
            assert report.converged
            reference = solve_delay_lyapunov(p)
            assert frobenius(report.X - reference.X) <= 1e-9 * frobenius(reference.X)


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
    cfg = KrylovConfig(tol=1e-14, maxit=64)
    with pytest.raises(SolverError) as err:
        solve(op, b, precond=pc, cfg=cfg)
    assert err.value.code == "krylov-nonfinite"
    assert faulty in str(err.value)
    assert (op if faulty == "operator" else pc).calls == 3


@pytest.mark.parametrize("solve", [gmres, bicgstab])
def test_overflowing_norm_is_nonfinite(solve):
    # |b| = 4e300 is finite, but its square is not: the kernels' norm
    # overflows and must raise instead of warning and iterating on inf
    b = np.full((4, 4), 1e300)
    cfg = KrylovConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as err:
            solve(lambda X: X, b, cfg=cfg)
    assert err.value.code == "krylov-nonfinite"
    assert "iteration 0" in str(err.value)


@pytest.mark.parametrize("solve", [gmres, bicgstab])
def test_iteration_seconds_measured(solve):
    rng = np.random.default_rng(10)
    op, _ = dense_operator(rng, 4)
    b = rng.standard_normal((4, 4))
    t0 = time.perf_counter()
    report = solve(op, b, cfg=KrylovConfig(tol=1e-12, maxit=64))
    wall = time.perf_counter() - t0
    stamps = report.iteration_seconds
    assert len(stamps) == len(report.residual_history)
    assert all(0.0 <= a <= b_ for a, b_ in zip(stamps, stamps[1:]))
    assert stamps[-1] <= wall


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(tol=2.0)
    with pytest.raises(ValueError):
        KrylovConfig(maxit=0)
    for maxit in (2.5, "8"):  # a TypeError in range() or np.empty when unchecked
        with pytest.raises(ValueError, match="maxit must be an integer >= 1"):
            KrylovConfig(maxit=maxit)
