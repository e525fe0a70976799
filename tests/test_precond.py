import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import delaylyap.precond
import delaylyap.tsylv
from delaylyap import (
    OperatorContext,
    PrecondFactors,
    SolverError,
    apply_operator,
    apply_preconditioner,
    build_preconditioner,
    expm,
    frobenius,
    gmres,
    matrix_of,
    KrylovConfig,
    pdde_generate,
    preconditioned_spectrum,
    small_example,
    tsylv_solve_kron,
    unvec,
    vec,
)
from helpers import preconditioner_quality, random_stable_problem, rk4_plan


def tilde_apply(A0, tau, X):
    """Direct evaluation of the decoupled operator the preconditioner inverts."""
    Z2 = X @ expm(-0.5 * tau * A0)
    I = np.eye(A0.shape[0])
    return Z2.T @ (A0 - I) + (A0.T + I) @ Z2


class TestSetup:
    def test_negative_identity_closed_form(self):
        # T(Y) = -2 Y^T, so the inverse is -Z^T/2 scaled by e^{-tau/2}
        factors = build_preconditioner(-np.eye(3), tau=1.0)
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((3, 3))
        expected = -0.5 * Z.T * np.exp(-0.5)
        assert_allclose(apply_preconditioner(factors, Z), expected, rtol=1e-12, atol=1e-14)

    def test_small_example_setup_succeeds(self):
        p = small_example(1.0).problem
        factors = build_preconditioner(p.A0, tau=1.0)
        assert factors.exp_forward.shape == (4, 4)

    def test_exponential_inverse_pair(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = random_stable_problem(int(rng.integers(2, 7)), rng)
            factors = build_preconditioner(p.A0, tau=p.tau)
            E = factors.exp_forward @ expm(-0.5 * p.tau * p.A0)
            assert frobenius(E - np.eye(p.n)) <= 1e-9

    def test_pairing_failure_signalled(self):
        with pytest.raises(SolverError) as err:
            build_preconditioner(np.diag([1.0, -1.0]), tau=1.0)
        assert err.value.code == "precond-unsolvable"

    def test_shift_at_an_eigenvalue_is_solved(self):
        # c only scales the skew block 2cK, so c = 1 in spec(A0) is not degenerate
        A0 = np.diag([1.0, 3.0])  # eigenvalues all positive: no pairing
        factors = build_preconditioner(A0, tau=1.0)
        X = np.random.default_rng(10).standard_normal((2, 2))
        out = apply_preconditioner(factors, tilde_apply(A0, 1.0, X))
        assert frobenius(out - X) <= 1e-12 * frobenius(X)

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            build_preconditioner(-np.eye(2), shift=0.0, tau=1.0)

    def test_one_shift_rule_for_operator_and_preconditioner(self):
        # c = 1 is a constant: the keyword takes no other value, and neither
        # the context nor the factors store it
        p = small_example(1.0).problem
        messages = []
        for make in (lambda: OperatorContext(problem=p, shift=2.0),
                     lambda: build_preconditioner(p.A0, shift=2.0, tau=p.tau)):
            with pytest.raises(ValueError) as err:
                make()
            messages.append(str(err.value))
        assert messages == ["shift must be 1"] * 2
        ctx = OperatorContext(problem=p, shift=1.0)
        factors = build_preconditioner(p.A0, shift=1.0, tau=p.tau)
        assert "shift" not in vars(ctx) and "shift" not in vars(factors)
        assert [f.name for f in dataclasses.fields(ctx)] == ["problem", "plan"]
        assert "shift" not in [f.name for f in dataclasses.fields(factors)]

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_tau_rule_runs_first(self, tau):
        # the package's one tau rule, before the Schur form or expm(tau A0 / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tau must be finite and >= 0"):
                build_preconditioner(small_example(1.0).problem.A0, tau=tau)


class TestRealSchurSplit:
    def test_one_real_schur_and_no_other_factorization(self, monkeypatch):
        calls = {name: [] for name in ("schur", "qz", "lu_factor", "qr")}
        for name in calls:
            original = getattr(scipy.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(kwargs.get("output"))
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counted)
        p = random_stable_problem(6, np.random.default_rng(6))
        factors = build_preconditioner(p.A0, tau=p.tau)
        for _ in range(3):
            apply_preconditioner(factors, np.eye(6))
        assert calls == {"schur": ["real"], "qz": [], "lu_factor": [], "qr": []}

    def test_apply_is_real(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("complex substitution called")

        monkeypatch.setattr(delaylyap.tsylv, "_solve_reduced", forbidden)
        monkeypatch.setattr(delaylyap.precond, "solve_with_factors", forbidden)
        dtypes = []
        original = delaylyap.precond.dtrsyl

        def recorded(*args, **kwargs):
            dtypes.extend(np.asarray(a).dtype for a in args)
            return original(*args, **kwargs)

        monkeypatch.setattr(delaylyap.precond, "dtrsyl", recorded)
        p = random_stable_problem(6, np.random.default_rng(11))
        factors = build_preconditioner(p.A0, tau=p.tau)
        for name in ("U", "T", "A0", "exp_forward"):
            assert getattr(factors, name).dtype == np.float64
        out = apply_preconditioner(factors, np.random.default_rng(12).standard_normal((6, 6)))
        assert out.dtype == np.float64
        assert dtypes and all(dt == np.float64 for dt in dtypes)

    def test_skew_part_exact(self):
        rng = np.random.default_rng(13)
        p = random_stable_problem(6, rng)
        factors = build_preconditioner(p.A0, tau=0.0)
        Z = rng.standard_normal((6, 6))
        P = apply_preconditioner(factors, Z)
        skew = (Z - Z.T) / 2
        assert frobenius(P - P.T - skew) <= 1e-14 * frobenius(skew)

    def test_symmetric_part_exactly_symmetric(self):
        # a symmetric Z has K = 0, so P = S: its rounding asymmetry would leak into P - P^T
        p = random_stable_problem(6, np.random.default_rng(16))
        factors = build_preconditioner(p.A0, tau=0.0)
        Z = np.random.default_rng(17).standard_normal((6, 6))
        P = apply_preconditioner(factors, Z + Z.T)
        assert np.array_equal(P, P.T)

    def test_symmetric_part_exactly_symmetric_on_the_recursive_path(self):
        # n = 130 > 2 LEAF: _trlyap recurses twice, through _trsylv for the
        # off-diagonal blocks, so the exact symmetry is held on that path too
        n = 130
        assert n > 2 * LEAF
        p = random_stable_problem(n, np.random.default_rng(18))
        factors = build_preconditioner(p.A0, tau=0.0)
        Z = np.random.default_rng(19).standard_normal((n, n))
        P = apply_preconditioner(factors, Z + Z.T)
        assert np.array_equal(P, P.T)

    def test_linear(self):
        rng = np.random.default_rng(14)
        p = random_stable_problem(7, rng)
        factors = build_preconditioner(p.A0, tau=p.tau)
        Z1, Z2 = rng.standard_normal((2, 7, 7))
        lhs = apply_preconditioner(factors, 2.5 * Z1 - 0.7 * Z2)
        rhs = 2.5 * apply_preconditioner(factors, Z1) - 0.7 * apply_preconditioner(factors, Z2)
        assert frobenius(lhs - rhs) <= 1e-13 * frobenius(rhs)

    def test_matches_kron_oracle_on_complex_pair_and_jordan_block(self):
        B = np.zeros((5, 5))
        B[:2, :2] = [[-1.0, 2.0], [-2.0, -1.0]]  # eigenvalues -1 +- 2i
        B[2:4, 2:4] = [[-0.5, 1.0], [0.0, -0.5]]  # Jordan block
        B[4, 4] = -2.0
        rng = np.random.default_rng(15)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        A0 = Q @ B @ Q.T
        factors = build_preconditioner(A0, tau=0.0)
        assert np.diag(factors.T, -1).any()  # a 2x2 real-Schur block
        Z = rng.standard_normal((5, 5))
        Y = tsylv_solve_kron(A0.T + np.eye(5), A0 - np.eye(5), Z)
        assert frobenius(apply_preconditioner(factors, Z) - Y) <= 1e-12 * frobenius(Y)

    def test_dtrsyl_failure_signalled(self):
        # T = diag(1, -1) has the pair 1 + (-1) = 0: dtrsyl perturbs it and reports info = 1
        I = np.eye(2)
        factors = PrecondFactors(U=I, T=np.diag([1.0, -1.0]), A0=np.diag([1.0, -1.0]),
                                 exp_forward=I)
        with pytest.raises(SolverError) as err:
            apply_preconditioner(factors, np.ones((2, 2)))
        assert err.value.code == "tsylv-near-singular"


LEAF = delaylyap.precond.LEAF


def straddled_schur_form(n, rng):
    """Stable real Schur form with a 2x2 block across every split point n // 2 of the recursion."""
    starts = []

    def place(lo, hi):
        if hi - lo > LEAF:
            k = lo + (hi - lo) // 2
            starts.append(k - 1)  # a block on rows k-1, k: the recursion splits at k + 1
            place(lo, k + 1)
            place(k + 1, hi)

    place(0, n)
    T = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    T[np.diag_indices(n)] = -1.0 - rng.random(n)
    for j in starts:
        T[j + 1, j + 1] = T[j, j]
        T[j, j + 1], T[j + 1, j] = 1.5, -0.8  # eigenvalues T[j, j] +- 1.1i
    return T


def symmetric(rng, n):
    C = rng.standard_normal((n, n))
    return C + C.T


class TestRecursiveLyapunov:
    def test_matches_dtrsyl_and_kron_oracle_across_2x2_blocks(self):
        n = 2 * LEAF + 3
        rng = np.random.default_rng(20)
        T = straddled_schur_form(n, rng)
        C = symmetric(rng, n)
        X = delaylyap.precond._trlyap(T, C)
        R = T @ X + X @ T.T - C
        assert frobenius(R) <= 1e-14 * frobenius(C)
        X0, scale0, info = scipy.linalg.lapack.dtrsyl(T, T, C, tranb="T")
        assert info == 0 and scale0 == 1.0
        assert frobenius(X - X0) <= 1e-12 * frobenius(X0)
        # the trailing block of X solves the trailing block of the equation alone
        m = 8
        assert T[n - m, n - m - 1] == 0
        Tm, I = T[-m:, -m:], np.eye(m)
        oracle = unvec(np.linalg.solve(np.kron(I, Tm) + np.kron(Tm, I), vec(C[-m:, -m:])))
        assert frobenius(X[-m:, -m:] - oracle) <= 1e-13 * frobenius(oracle)

    def test_split_keeps_2x2_blocks_whole(self, monkeypatch):
        splits = []
        original = delaylyap.precond._split

        def recorded(T):
            k = original(T)
            splits.append((T, k))
            return k

        monkeypatch.setattr(delaylyap.precond, "_split", recorded)
        rng = np.random.default_rng(21)
        n = 2 * LEAF + 3
        delaylyap.precond._trlyap(straddled_schur_form(n, rng), symmetric(rng, n))
        assert splits
        for T, k in splits:
            half = T.shape[0] // 2
            assert T[half, half - 1] != 0  # the middle falls inside a 2x2 block ...
            assert k == half + 1 and T[k, k - 1] == 0  # ... so the split moves past it

    def test_scaled_leaf_refused(self, monkeypatch):
        # dtrsyl sets scale < 1 only to keep X from overflowing: the leaf is refused
        rng = np.random.default_rng(22)
        p = random_stable_problem(2 * LEAF + 3, rng)
        factors = build_preconditioner(p.A0, tau=p.tau)
        original = delaylyap.precond.dtrsyl

        def scaled(*args, **kwargs):
            X, _, info = original(*args, **kwargs)
            return X, 0.5, info

        monkeypatch.setattr(delaylyap.precond, "dtrsyl", scaled)
        with pytest.raises(SolverError) as err:
            apply_preconditioner(factors, rng.standard_normal((p.n, p.n)))
        assert err.value.code == "tsylv-near-singular"

    def test_near_singular_pair_in_sylvester_leaf_signalled(self, monkeypatch):
        # eigenvalues 1 (first row) and -1 (last row) meet only in X12's equation
        n = LEAF + 6
        rng = np.random.default_rng(23)
        T = np.triu(rng.standard_normal((n, n)), 1) / n
        T[np.diag_indices(n)] = -np.linspace(1.5, 3.0, n)
        T[0, 0], T[-1, -1] = 1.0, -1.0
        I = np.eye(n)
        factors = PrecondFactors(U=I, T=T, A0=T.T.copy(), exp_forward=I)
        original = delaylyap.precond.dtrsyl
        calls = []

        def recorded(A, B, C, **kwargs):
            X, scale, info = original(A, B, C, **kwargs)
            calls.append((A is B, info))
            return X, scale, info

        monkeypatch.setattr(delaylyap.precond, "dtrsyl", recorded)
        with pytest.raises(SolverError) as err:
            apply_preconditioner(factors, rng.standard_normal((n, n)))
        assert err.value.code == "tsylv-near-singular"
        assert calls == [(True, 0), (False, 1)]  # X22's Lyapunov leaf, then X12's Sylvester leaf

    @pytest.mark.parametrize("n", [5, LEAF])
    def test_one_dtrsyl_call_up_to_leaf(self, n, monkeypatch):
        rng = np.random.default_rng(24)
        T, _ = scipy.linalg.schur(rng.standard_normal((n, n)) - 3 * np.eye(n), output="real")
        C = symmetric(rng, n)
        calls = []
        original = delaylyap.precond.dtrsyl

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(delaylyap.precond, "dtrsyl", counted)
        X = delaylyap.precond._trlyap(T, C)
        X0, scale0, _ = original(T, T, C, tranb="T")
        assert len(calls) == 1
        assert scale0 == 1.0 and np.array_equal(X, X0)


class TestApply:
    def test_zero_input(self):
        factors = build_preconditioner(-np.eye(3), tau=1.0)
        assert not apply_preconditioner(factors, np.zeros((3, 3))).any()

    def test_inverts_decoupled_operator(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_stable_problem(int(rng.integers(2, 7)), rng)
            factors = build_preconditioner(p.A0, tau=p.tau)
            X = rng.standard_normal((p.n, p.n))
            Z = tilde_apply(p.A0, p.tau, X)
            assert frobenius(apply_preconditioner(factors, Z) - X) <= 1e-8 * frobenius(X)

    def test_identity_on_coupled_operator_without_coupling(self):
        rng = np.random.default_rng(3)
        p0 = random_stable_problem(5, rng, coupling=0.0)
        ctx = OperatorContext(problem=p0, plan=rk4_plan(500))
        factors = build_preconditioner(p0.A0, tau=p0.tau)
        X = rng.standard_normal((5, 5))
        X /= frobenius(X)
        out = apply_preconditioner(factors, apply_operator(ctx, X))
        assert frobenius(out - X) <= 1e-8

    def test_repeated_application_bitwise_identical(self):
        rng = np.random.default_rng(4)
        p = random_stable_problem(4, rng)
        factors = build_preconditioner(p.A0, tau=p.tau)
        Z = rng.standard_normal((4, 4))
        first = apply_preconditioner(factors, Z)
        second = apply_preconditioner(factors, Z)
        assert np.array_equal(first, second)

    def test_norm_bound_with_measured_constant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_stable_problem(int(rng.integers(2, 6)), rng)
            factors = build_preconditioner(p.A0, tau=p.tau)
            n = p.n
            I = np.eye(n)
            T = matrix_of(lambda Y: (p.A0.T + I) @ Y + Y.swapaxes(-1, -2) @ (p.A0 - I), n)
            K = np.linalg.norm(np.linalg.inv(T), 2)
            bound = K * np.exp(0.5 * p.tau * np.linalg.norm(p.A0, 2))
            Z = rng.standard_normal((n, n))
            assert frobenius(apply_preconditioner(factors, Z)) \
                <= bound * frobenius(Z) * (1 + 1e-8)

    def test_one_lyapunov_solve_per_apply(self, monkeypatch):
        # a top-level solve gets the cached Schur factor itself; the
        # recursion hands on slices of it
        rng = np.random.default_rng(25)
        p = random_stable_problem(2 * LEAF + 3, rng)
        factors = build_preconditioner(p.A0, tau=p.tau)
        calls = []
        original = delaylyap.precond._trlyap

        def counted(T, C):
            calls.append(T is factors.T)
            return original(T, C)

        monkeypatch.setattr(delaylyap.precond, "_trlyap", counted)
        for _ in range(3):
            apply_preconditioner(factors, rng.standard_normal((p.n, p.n)))
        assert sum(calls) == 3
        assert len(calls) > 3  # the recursive calls went through the counter too

    def test_backward_error_at_unit_roundoff_on_pdde(self):
        # the bench's gate: normwise backward error of T(Y) = Z with
        # Y = P expm(-tau A0 / 2), T(Y) = (A0^T + I) Y + Y^T (A0 - I)
        p = pdde_generate(11, 11).problem
        factors = build_preconditioner(p.A0, tau=p.tau)
        I = np.eye(p.n)
        M, N = p.A0.T + I, p.A0 - I
        E = scipy.linalg.expm((-0.5 * p.tau) * p.A0)
        rng = np.random.default_rng(26)
        for _ in range(8):
            Z = rng.standard_normal((p.n, p.n))
            Y = apply_preconditioner(factors, Z) @ E
            err = frobenius(M @ Y + Y.T @ N - Z) / (
                (frobenius(M) + frobenius(N)) * frobenius(Y) + frobenius(Z))
            assert err <= 1e-15

    @pytest.mark.parametrize("n, shape", [(4, (3, 3)), (4, (2, 4, 4)), (2, (2, 2, 2)), (4, (16,))])
    def test_wrong_shape_rejected(self, n, shape):
        factors = build_preconditioner(-np.eye(n), tau=1.0)
        with pytest.raises(ValueError, match=re.escape(f"Z must be ({n}, {n}), got {shape}")):
            apply_preconditioner(factors, np.ones(shape))

    @pytest.mark.parametrize("value", [np.nan, 1e308])
    def test_nonfinite_input_is_silent(self, value):
        p = small_example(1.0).problem
        factors = build_preconditioner(p.A0, tau=p.tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_preconditioner(factors, np.full((4, 4), value))
            assert not np.isfinite(out).all()
            # the Krylov kernel is left to report it, by its code alone
            with pytest.raises(SolverError) as err:
                gmres(lambda X: X, np.full((4, 4), value),
                      precond=lambda X: apply_preconditioner(factors, X))
        assert err.value.code == "krylov-nonfinite"


class TestQuality:
    def test_vanishes_without_coupling(self):
        ex = small_example(0.0)
        ctx = OperatorContext(problem=ex.problem, plan=rk4_plan(4000))
        factors = build_preconditioner(ex.problem.A0, tau=1.0)
        assert preconditioner_quality(ctx, factors, trials=20) <= 1e-8

    def test_grows_with_coupling(self):
        factors = build_preconditioner(small_example(0.0).problem.A0, tau=1.0)
        values = []
        for alpha in (1e-3, 1e-2, 1e-1):
            ctx = OperatorContext(problem=small_example(alpha).problem,
                                  plan=rk4_plan(500))
            values.append(preconditioner_quality(ctx, factors, trials=10))
        assert values[0] < values[1] < values[2]

    def test_trials_validated(self):
        ex = small_example(0.0)
        ctx = OperatorContext(problem=ex.problem)
        factors = build_preconditioner(ex.problem.A0, tau=1.0)
        with pytest.raises(ValueError):
            preconditioner_quality(ctx, factors, trials=0)


class TestSpectrum:
    def test_identity_when_no_coupling(self):
        ex = small_example(0.0)
        ctx = OperatorContext(problem=ex.problem, plan=rk4_plan(4000))
        factors = build_preconditioner(ex.problem.A0, tau=1.0)
        ev = preconditioned_spectrum(ctx, factors)
        assert len(ev) == 16
        assert np.abs(ev - 1.0).max() <= 1e-8

    def test_cluster_radius_grows_with_coupling(self):
        factors = build_preconditioner(small_example(0.0).problem.A0, tau=1.0)
        radii = []
        for alpha in (1e-3, 1e-2, 1e-1):
            ctx = OperatorContext(problem=small_example(alpha).problem,
                                  plan=rk4_plan(500))
            ev = preconditioned_spectrum(ctx, factors)
            radii.append(np.abs(ev - 1.0).max())
        assert radii[0] < radii[1] < radii[2]


def test_residual_bound_from_deviation_and_conditioning():
    # with deviation r < 1, full GMRES satisfies |r_m| <= cond(V) r^m |r_0|
    ex = small_example(1e-2)
    p = ex.problem
    ctx = OperatorContext(problem=p, plan=rk4_plan(500))
    factors = build_preconditioner(p.A0, tau=p.tau)
    r = preconditioner_quality(ctx, factors, trials=20)
    assert r < 1
    PA = matrix_of(lambda X: np.stack([apply_preconditioner(factors, Y)
                                       for Y in apply_operator(ctx, X)]), 4)
    lam, V = np.linalg.eig(PA)
    kappa = np.linalg.cond(V)
    report = gmres(lambda X: apply_operator(ctx, X), -p.W,
                   precond=lambda Z: apply_preconditioner(factors, Z),
                   cfg=KrylovConfig(tol=1e-12, maxit=16))
    for m, relres in enumerate(report.residual_history):
        assert relres <= kappa * r ** m * (1 + 1e-8)
