import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    KrylovConfig,
    OdeConfig,
    OperatorContext,
    SolverError,
    TdsProblem,
    apply_operator,
    apply_preconditioner,
    assemble_operator,
    boundary_residuals,
    build_preconditioner,
    exact_propagate,
    frobenius,
    lu_solve,
    pdde_generate,
    preconditioned_spectrum,
    reconstruct_solution,
    rk4_propagate,
    small_example,
    solve_delay_lyapunov,
    unvec,
    vec,
)
from helpers import SMALL_EXAMPLE_MIDPOINT, random_stable_problem, rk4_plan


def make_ctx(problem, steps=100):
    return OperatorContext(problem=problem, plan=rk4_plan(steps))


class TestProblemValidation:
    def test_asymmetric_cost_rejected(self):
        W = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            TdsProblem(A0=np.eye(2), A1=np.eye(2), tau=1.0, W=W)

    def test_empty_system_rejected(self):
        Z = np.zeros((0, 0))
        with pytest.raises(ValueError, match="n >= 1"):
            TdsProblem(A0=Z, A1=Z, tau=1.0, W=Z)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            TdsProblem(A0=np.eye(2), A1=np.eye(2), tau=-1.0, W=np.eye(2))

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            TdsProblem(A0=np.eye(2), A1=np.eye(2), tau=tau, W=np.eye(2))

    @pytest.mark.parametrize("name", ["A0", "A1", "W"])
    def test_complex_matrix_rejected(self, name):
        # a complex entry is refused, not truncated to its real part
        data = {"A0": -np.eye(2), "A1": np.zeros((2, 2)), "W": np.eye(2)}
        data[name] = data[name] + 0.5j * np.eye(2)
        with pytest.raises(ValueError, match=f"{name} must be real"):
            TdsProblem(tau=1.0, **data)

    @pytest.mark.parametrize("name", ["A1", "W"])
    def test_non_finite_matrix_rejected(self, name):
        data = {"A0": -np.eye(2), "A1": np.zeros((2, 2)), "W": np.eye(2)}
        data[name] = np.full((2, 2), np.inf)
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            TdsProblem(tau=1.0, **data)

    def test_output_matrix_shapes_checked(self):
        data = {"A0": -np.eye(2), "A1": np.zeros((2, 2)), "tau": 1.0, "W": np.eye(2)}
        with pytest.raises(ValueError, match="B0 must have n rows"):
            TdsProblem(B0=np.ones((3, 1)), **data)
        with pytest.raises(ValueError, match="C0 must have n columns"):
            TdsProblem(C0=np.ones((1, 3)), **data)
        TdsProblem(B0=np.ones((2, 1)), C0=np.ones((1, 2)), **data)

    @pytest.mark.parametrize("name, value, message", [
        ("B0", np.ones(2), "B0 must have n rows"),
        ("B0", np.float64(1.0), "B0 must have n rows"),
        ("B0", np.ones((2, 1)) + 0.5j, "B0 must be real"),
        ("B0", np.full((2, 1), np.inf), "B0 has non-finite entries"),
        ("C0", np.ones(2), "C0 must have n columns"),
        ("C0", np.ones((1, 2, 1)), "C0 must have n columns"),
        ("C0", np.ones((1, 2)) - 1j, "C0 must be real"),
        ("C0", np.array([[1.0, np.nan]]), "C0 has non-finite entries"),
    ])
    def test_output_matrices_checked_like_the_coefficients(self, name, value, message):
        data = {"A0": -np.eye(2), "A1": np.zeros((2, 2)), "tau": 1.0, "W": np.eye(2)}
        with pytest.raises(ValueError, match=message):
            TdsProblem(**{name: value}, **data)

    def test_output_matrices_stored_as_float64(self):
        p = TdsProblem(A0=-np.eye(2), A1=np.zeros((2, 2)), tau=1.0, W=np.eye(2),
                       B0=[[1], [0]], C0=np.array([[0, 1]], dtype=np.int32))
        assert p.B0.dtype == p.C0.dtype == np.float64
        assert p.B0.shape == (2, 1) and p.C0.shape == (1, 2)

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

    def test_batch_equals_single_applies(self):
        rng = np.random.default_rng(9)
        ctx = OperatorContext(problem=random_stable_problem(4, rng))
        X = rng.standard_normal((3, 4, 4))
        out = apply_operator(ctx, X)
        assert out.shape == (3, 4, 4)
        for Xk, got in zip(X, out):
            want = apply_operator(ctx, Xk)
            assert frobenius(got - want) <= 1e-14 * frobenius(want)

    def test_two_batch_axes_equal_single_applies(self):
        # the whole batch runs as one 2-D product per Taylor term
        ctx = OperatorContext(problem=pdde_generate(3, 3).problem)
        n = ctx.problem.n
        X = np.random.default_rng(11).standard_normal((2, 2, n, n))
        out = apply_operator(ctx, X)
        assert out.shape == X.shape
        for index in np.ndindex(2, 2):
            want = apply_operator(ctx, X[index])
            assert frobenius(out[index] - want) <= 1e-14 * frobenius(want)

    def test_pair_is_the_propagation_the_value_was_read_from(self):
        # the default return is unchanged; the pair is the plan's terminal
        # pair, and a combination of a batch's pairs is the pair of the
        # same combination up to rounding
        p = small_example(5.0).problem
        ctx = OperatorContext(problem=p)
        X = np.random.default_rng(12).standard_normal((3, 4, 4))
        value, pair = apply_operator(ctx, X, return_pair=True)
        assert np.array_equal(value, apply_operator(ctx, X))
        want = rk4_propagate(p.A0, p.A1, X, p.tau, plan=ctx.plan)
        assert np.array_equal(pair.Z1_end, want.Z1_end)
        assert np.array_equal(pair.Z2_end, want.Z2_end)
        w = np.array([0.5, -2.0, 3.0])
        mixed = rk4_propagate(p.A0, p.A1, np.tensordot(w, X, axes=1), p.tau, plan=ctx.plan)
        for got, Z in ((mixed.Z1_end, pair.Z1_end), (mixed.Z2_end, pair.Z2_end)):
            combined = np.tensordot(w, Z, axes=1)
            assert frobenius(got - combined) <= 1e-13 * frobenius(got)

    def test_shape_checked_on_last_two_axes(self):
        rng = np.random.default_rng(10)
        ctx = make_ctx(random_stable_problem(4, rng))
        with pytest.raises(ValueError):
            apply_operator(ctx, np.zeros((3, 4, 3)))

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
        original = ops.plan_propagations

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ops, "plan_propagations", counting)
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
        X = rng.standard_normal((4, 4))
        L = apply_operator(make_ctx(p), X)
        res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=rk4_plan(100))
        Z1, Z2 = res.Z1_end, res.Z2_end
        S = Z2.T @ p.A0 + p.A0.T @ Z2 + Z1.T @ p.A1 + p.A1.T @ Z1
        K = L - S
        scale = max(frobenius(L), 1.0)
        assert frobenius(S - S.T) <= 1e-12 * scale
        assert frobenius(K + K.T) <= 1e-12 * scale
        # apply_operator's docstring: Z2^T (A0 - I) + (A0^T + I) Z2 = S + (Z2 - Z2^T)
        assert_allclose(K, Z2 - Z2.T, atol=1e-12 * scale)

    def test_printed_reference_solution_is_consistent(self):
        # the tabulated midpoint matrix carries ~5e-7 absolute rounding per
        # entry; pushed through the operator this is amplified by ||L||, and
        # in the preconditioned metric it stays at the rounding scale
        ex = small_example(1.0)
        ctx = make_ctx(ex.problem, steps=500)
        factors = build_preconditioner(ex.problem.A0, tau=ex.problem.tau)
        residual = apply_operator(ctx, SMALL_EXAMPLE_MIDPOINT) + ex.problem.W
        dense = assemble_operator(ctx)
        rounding = 4 * 0.5e-6
        assert frobenius(residual) <= np.linalg.norm(dense, 2) * rounding
        pre = apply_preconditioner(factors, residual)
        b = apply_preconditioner(factors, -ex.problem.W)
        assert frobenius(pre) / frobenius(b) <= 0.05

    def test_overflowing_propagation_is_exp_overflow(self):
        # alpha = 1e4 plans an affordable 55 x 507 terms, but the pair
        # overflows on the way; no RuntimeWarning escapes
        ctx = OperatorContext(problem=small_example(1e4).problem)
        for propagate in (lambda X: apply_operator(ctx, X),
                          lambda X: reconstruct_solution(ctx, X, samples=5)):
            with pytest.raises(SolverError) as err:
                propagate(np.eye(4))
            assert err.value.code == "exp-overflow"


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

    def test_cap(self, monkeypatch):
        import delaylyap.operators

        monkeypatch.setattr(delaylyap.operators, "ORACLE_MAX_N", 3)
        rng = np.random.default_rng(5)
        p = random_stable_problem(4, rng)
        # one cap for both dense oracles
        for oracle in (assemble_operator,
                       lambda ctx: preconditioned_spectrum(
                           ctx, build_preconditioner(p.A0, tau=p.tau))):
            with pytest.raises(SolverError) as err:
                oracle(make_ctx(p))
            assert err.value.code == "oracle-too-large"


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

    @pytest.mark.parametrize("samples", [3, 5, 9, 10, 33])
    def test_planned_taylor_samples(self, samples):
        rng = np.random.default_rng(12)
        p = random_stable_problem(4, rng, tau=1.3)
        X = rng.standard_normal((4, 4))
        grid = reconstruct_solution(OperatorContext(problem=p), X, samples=samples)
        assert [t for t, _ in grid] == list(np.linspace(-p.tau, p.tau, samples))
        M = samples - 1
        for i, (t, U) in enumerate(grid):
            if 4 * i in (M, 3 * M):  # t = -+tau/2: the initial value itself
                assert np.array_equal(U, X.T if t < 0 else X)
            # U(t) = Z2(tau/2 - |t|) inside (-tau/2, tau/2), Z1(|t| - tau/2) outside
            sigma = abs(abs(t) - 0.5 * p.tau)
            pair = exact_propagate(p.A0, p.A1, X, 2.0 * sigma)
            want = pair.Z2_end if 2 * abs(2 * i - M) < M else pair.Z1_end
            want = want.T if t < 0 else want
            assert frobenius(U - want) <= 1e-12 * frobenius(want)

    def test_tau_zero_is_the_midpoint_everywhere(self):
        rng = np.random.default_rng(14)
        p = random_stable_problem(3, rng, tau=0.0)
        X = rng.standard_normal((3, 3))
        want = X.copy()
        for samples in (4, 9):
            grid = reconstruct_solution(OperatorContext(problem=p), X, samples=samples)
            assert [t for t, _ in grid] == [0.0] * samples
            # +0.0, so the CLI's t column reads 0, never -0
            assert all(math.copysign(1, t) == 1 for t, _ in grid)
            for _, U in grid:
                assert np.array_equal(U, want)
            for _, U in grid:  # each sample is its own copy, and none is X
                U += 1.0
            assert np.array_equal(X, want)
            assert all(np.array_equal(U, want + 1.0) for _, U in grid)

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
        K = np.kron(np.eye(5), A0.T) + np.kron(A0.T, np.eye(5))
        U0 = unvec(lu_solve(K, -vec(W)))
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


def test_gmres_agrees_with_dense_solve_small(krylov_route):
    rng = np.random.default_rng(10)
    for n in (2, 4, 6):
        p = random_stable_problem(n, rng)
        ctx = make_ctx(p)
        report = solve_delay_lyapunov(p, ode=OdeConfig(steps=100), krylov=KrylovConfig(tol=1e-12))
        assert report.plan == ctx.plan
        X_direct = unvec(lu_solve(assemble_operator(ctx), -vec(p.W)))
        assert frobenius(report.X - X_direct) <= 1e-8 * frobenius(X_direct)
