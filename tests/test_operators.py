import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    KrylovConfig,
    OdeConfig,
    OperatorContext,
    TdsProblem,
    apply_operator,
    apply_preconditioner,
    assemble_operator,
    boundary_residuals,
    build_preconditioner,
    exact_propagate,
    frobenius,
    kron,
    lu_solve,
    reconstruct_solution,
    rk4_propagate,
    small_example,
    solve_delay_lyapunov,
    unvec,
    vec,
)
from helpers import SMALL_EXAMPLE_MIDPOINT, random_stable_problem


def make_ctx(problem, shift=1.0, steps=100):
    return OperatorContext(problem=problem, shift=shift, ode=OdeConfig(steps=steps))


class TestProblemValidation:
    def test_asymmetric_cost_rejected(self):
        W = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            TdsProblem(A0=np.eye(2), A1=np.eye(2), tau=1.0, W=W)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            TdsProblem(A0=np.eye(2), A1=np.eye(2), tau=-1.0, W=np.eye(2))

    def test_zero_shift_rejected(self):
        p = TdsProblem(A0=np.eye(2), A1=np.eye(2), tau=1.0, W=np.eye(2))
        with pytest.raises(ValueError):
            OperatorContext(problem=p, shift=0.0)


class TestApply:
    def test_zero_input(self):
        rng = np.random.default_rng(0)
        p = random_stable_problem(4, rng)
        out = apply_operator(make_ctx(p), np.zeros((4, 4)))
        assert not out.any()

    def test_tau_zero_closed_form_on_symmetric_input(self):
        rng = np.random.default_rng(1)
        A0 = rng.standard_normal((4, 4))
        A1 = rng.standard_normal((4, 4))
        p = TdsProblem(A0=A0, A1=A1, tau=0.0, W=np.eye(4))
        B = rng.standard_normal((4, 4))
        X = 0.5 * (B + B.T)
        out = apply_operator(make_ctx(p, steps=1), X)
        S = A0 + A1
        assert_allclose(out, X @ S + S.T @ X, rtol=1e-13, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        p = random_stable_problem(5, rng)
        ctx = make_ctx(p)
        X, Y = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        a, b = 0.37, -1.21
        lhs = apply_operator(ctx, a * X + b * Y)
        rhs = a * apply_operator(ctx, X) + b * apply_operator(ctx, Y)
        assert frobenius(lhs - rhs) <= 1e-12 * frobenius(rhs)

    def test_linearity_with_planned_taylor(self):
        rng = np.random.default_rng(11)
        p = random_stable_problem(5, rng)
        ctx = OperatorContext(problem=p)
        X, Y = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        a, b = 0.37, -1.21
        lhs = apply_operator(ctx, a * X + b * Y)
        rhs = a * apply_operator(ctx, X) + b * apply_operator(ctx, Y)
        assert frobenius(lhs - rhs) <= 1e-13 * frobenius(rhs)

    def test_plan_computed_once_per_context(self, monkeypatch):
        import delaylyap.operators as ops

        calls = []
        original = ops.plan_propagation

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ops, "plan_propagation", counting)
        ex = small_example(1.0)
        ctx = OperatorContext(problem=ex.problem)
        for _ in range(3):
            apply_operator(ctx, np.eye(4))
        reconstruct_solution(ctx, np.eye(4), samples=5)
        assert len(calls) == 1
        reused = OperatorContext(problem=ex.problem, plan=ctx.plan)
        apply_operator(reused, np.eye(4))
        assert len(calls) == 1

    def test_symmetric_antisymmetric_split(self):
        rng = np.random.default_rng(3)
        p = random_stable_problem(4, rng)
        c = 1.7
        X = rng.standard_normal((4, 4))
        Lc = apply_operator(make_ctx(p, shift=c), X)
        res = rk4_propagate(p.A0, p.A1, X, p.tau, OdeConfig(steps=100))
        Z1, Z2 = res.Z1_end, res.Z2_end
        S = Z2.T @ p.A0 + p.A0.T @ Z2 + Z1.T @ p.A1 + p.A1.T @ Z1
        K = (Lc - S) / c
        scale = max(frobenius(Lc), 1.0)
        assert frobenius(S - S.T) <= 1e-12 * scale
        assert frobenius(K + K.T) <= 1e-12 * scale
        # apply_operator's docstring: Z2^T (A0 - cI) + (A0^T + cI) Z2 = S + c (Z2 - Z2^T)
        assert_allclose(K, Z2 - Z2.T, atol=1e-12 * scale)

    def test_printed_reference_solution_is_consistent(self):
        # the tabulated midpoint matrix carries ~5e-7 absolute rounding per
        # entry; pushed through the operator this is amplified by ||L||, and
        # in the preconditioned metric it stays at the rounding scale
        ex = small_example(1.0)
        ctx = make_ctx(ex.problem, steps=500)
        factors = build_preconditioner(ex.problem.A0, shift=1.0, tau=ex.problem.tau)
        residual = apply_operator(ctx, SMALL_EXAMPLE_MIDPOINT) + ex.problem.W
        dense = assemble_operator(ctx)
        rounding = 4 * 0.5e-6
        assert frobenius(residual) <= np.linalg.norm(dense, 2) * rounding
        pre = apply_preconditioner(factors, residual)
        b = apply_preconditioner(factors, -ex.problem.W)
        assert frobenius(pre) / frobenius(b) <= 0.05


class TestAssemble:
    def test_scalar_closed_form(self):
        a, tau = 0.3, 0.7
        p = TdsProblem(A0=np.array([[a]]), A1=np.array([[0.0]]), tau=tau,
                       W=np.array([[1.0]]))
        A = assemble_operator(make_ctx(p, steps=500))
        assert_allclose(A, [[2.0 * a * np.exp(-0.5 * tau * a)]], rtol=1e-12)

    def test_consistency_with_apply(self):
        rng = np.random.default_rng(4)
        p = random_stable_problem(4, rng)
        ctx = make_ctx(p)
        A = assemble_operator(ctx)
        for _ in range(10):
            X = rng.standard_normal((4, 4))
            direct = vec(apply_operator(ctx, X))
            assert np.linalg.norm(A @ vec(X) - direct) <= 1e-13 * np.linalg.norm(direct)

    def test_small_example_nonsingular(self):
        ctx = make_ctx(small_example(1.0).problem, steps=200)
        A = assemble_operator(ctx)
        assert np.linalg.svd(A, compute_uv=False).min() > 0

    def test_cap(self):
        rng = np.random.default_rng(5)
        p = random_stable_problem(4, rng)
        with pytest.raises(ValueError):
            assemble_operator(make_ctx(p), max_n=3)


class TestReconstruct:
    def test_endpoint_identities(self):
        rng = np.random.default_rng(6)
        p = random_stable_problem(3, rng)
        X = rng.standard_normal((3, 3))
        grid = reconstruct_solution(make_ctx(p), X, samples=9)
        ts = [t for t, _ in grid]
        assert ts == sorted(ts)
        by_t = {round(t, 12): U for t, U in grid}
        assert_allclose(by_t[round(p.tau / 2, 12)], X, atol=0)
        assert_allclose(by_t[round(-p.tau / 2, 12)], X.T, atol=0)

    def test_midpoint_symmetry_after_solve(self):
        ex = small_example(1.0)
        report = solve_delay_lyapunov(ex.problem, krylov=KrylovConfig(tol=1e-12))
        ctx = make_ctx(ex.problem, steps=500)
        grid = reconstruct_solution(ctx, report.X, samples=5)
        U0 = dict((round(t, 12), U) for t, U in grid)[0.0]
        assert frobenius(U0 - U0.T) <= 1e-8

    def test_planned_taylor_samples(self):
        rng = np.random.default_rng(12)
        p = random_stable_problem(4, rng, tau=1.3)
        X = rng.standard_normal((4, 4))
        grid = reconstruct_solution(OperatorContext(problem=p), X, samples=9)
        by_t = {round(t, 12): U for t, U in grid}
        assert np.array_equal(by_t[round(p.tau / 2, 12)], X)
        want = exact_propagate(p.A0, p.A1, X, p.tau).Z2_end
        assert frobenius(by_t[0.0] - want) <= 1e-12 * frobenius(want)

    def test_too_few_samples(self):
        rng = np.random.default_rng(7)
        p = random_stable_problem(3, rng)
        with pytest.raises(ValueError):
            reconstruct_solution(make_ctx(p), np.eye(3), samples=2)


class TestBoundaryResiduals:
    def test_lyapunov_oracle_when_decoupled(self):
        rng = np.random.default_rng(8)
        A0 = random_stable_problem(5, rng).A0
        B = rng.standard_normal((5, 5))
        W = B @ B.T + np.eye(5)
        K = kron(np.eye(5), A0.T) + kron(A0.T, np.eye(5))
        U0 = unvec(lu_solve(K, -vec(W)), 5)
        p = TdsProblem(A0=A0, A1=np.zeros((5, 5)), tau=1.0, W=W)
        r_alg, r_sym = boundary_residuals(p, U0, rng.standard_normal((5, 5)))
        assert r_alg <= 1e-10
        assert r_sym <= 1e-10

    def test_zero_guess_gives_unit_residual(self):
        rng = np.random.default_rng(9)
        p = random_stable_problem(4, rng)
        r_alg, _ = boundary_residuals(p, np.zeros((4, 4)), np.zeros((4, 4)))
        assert r_alg == pytest.approx(1.0)

    def test_converged_solve_residuals(self):
        ex = small_example(1.0)
        report = solve_delay_lyapunov(ex.problem)
        assert report.r_alg <= 1e-8
        assert report.r_sym <= 1e-8


def test_gmres_agrees_with_dense_solve_small():
    rng = np.random.default_rng(10)
    for n in (2, 4, 6):
        p = random_stable_problem(n, rng)
        ctx = make_ctx(p)
        report = solve_delay_lyapunov(p, ode=ctx.ode, krylov=KrylovConfig(tol=1e-12))
        X_direct = unvec(lu_solve(assemble_operator(ctx), -vec(p.W)), n)
        assert frobenius(report.X - X_direct) <= 1e-8 * frobenius(X_direct)
