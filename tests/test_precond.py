import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import delaylyap.precond
import delaylyap.tsylv
from delaylyap import (
    OdeConfig,
    OperatorContext,
    SolverError,
    apply_operator,
    apply_preconditioner,
    build_preconditioner,
    commutation_matrix,
    expm,
    frobenius,
    gmres,
    KrylovConfig,
    kron,
    preconditioned_spectrum,
    preconditioner_quality,
    small_example,
)
from helpers import random_stable_problem


def tilde_apply(A0, c, tau, X):
    """Direct evaluation of the decoupled operator the preconditioner inverts."""
    n = A0.shape[0]
    Z2 = X @ expm(-0.5 * tau * A0)
    I = np.eye(n)
    return Z2.T @ (A0 - c * I) + (A0.T + c * I) @ Z2


class TestSetup:
    def test_negative_identity_closed_form(self):
        # T(Y) = -2 Y^T, so the inverse is -Z^T/2 scaled by e^{-tau/2}
        factors = build_preconditioner(-np.eye(3), shift=1.0, tau=1.0)
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((3, 3))
        expected = -0.5 * Z.T * np.exp(-0.5)
        assert_allclose(apply_preconditioner(factors, Z), expected, rtol=1e-12, atol=1e-14)

    def test_small_example_setup_succeeds(self):
        p = small_example(1.0).problem
        factors = build_preconditioner(p.A0, shift=1.0, tau=1.0)
        assert factors.exp_forward.shape == (4, 4)

    def test_exponential_inverse_pair(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = random_stable_problem(int(rng.integers(2, 7)), rng)
            factors = build_preconditioner(p.A0, shift=1.0, tau=p.tau)
            E = factors.exp_forward @ expm(-0.5 * p.tau * p.A0)
            assert frobenius(E - np.eye(p.n)) <= 1e-9

    def test_pairing_failure_signalled(self):
        with pytest.raises(SolverError) as err:
            build_preconditioner(np.diag([1.0, -1.0]), shift=1.0, tau=1.0)
        assert err.value.code == "precond-unsolvable"

    def test_shift_collision_signalled(self):
        A0 = np.diag([1.0, 3.0])  # eigenvalues all positive: no pairing
        with pytest.raises(SolverError) as err:
            build_preconditioner(A0, shift=1.0, tau=1.0)
        assert err.value.code == "precond-shift-degenerate"

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            build_preconditioner(-np.eye(2), shift=0.0, tau=1.0)


class TestStructuredPencil:
    def test_one_schur_and_no_other_factorization(self, monkeypatch):
        calls = {name: 0 for name in ("schur", "qz", "lu_factor", "qr")}
        for name in calls:
            original = getattr(scipy.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counted)
        p = random_stable_problem(6, np.random.default_rng(6))
        build_preconditioner(p.A0, shift=1.0, tau=p.tau)
        assert calls == {"schur": 1, "qz": 0, "lu_factor": 0, "qr": 0}

    def test_pair_check_once_per_build_and_never_per_apply(self, monkeypatch):
        checks = []
        original = delaylyap.tsylv._check_pair_determinants

        def counted(TM, TN):
            checks.append(1)
            return original(TM, TN)

        monkeypatch.setattr(delaylyap.tsylv, "_check_pair_determinants", counted)
        monkeypatch.setattr(delaylyap.precond, "_check_pair_determinants", counted)
        p = random_stable_problem(5, np.random.default_rng(7))
        factors = build_preconditioner(p.A0, shift=1.0, tau=p.tau)
        assert len(checks) == 1
        Z = np.random.default_rng(8).standard_normal((5, 5))
        for _ in range(3):
            apply_preconditioner(factors, Z)
        assert len(checks) == 1

    def test_shared_unitary_triangularizes_both(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 9):
            p = random_stable_problem(n, rng)
            pencil = build_preconditioner(p.A0, shift=1.0, tau=p.tau).pencil
            Q, Z = pencil.Q, pencil.Z
            assert np.array_equal(Q, Z)
            assert frobenius(Q.conj().T @ Q - np.eye(n)) <= 1e-12 * n
            assert not np.tril(pencil.TM, -1).any()
            assert not np.tril(pencil.TN, -1).any()
            M = p.A0.T + np.eye(n)
            NT = p.A0.T - np.eye(n)
            assert frobenius(Q.conj().T @ M @ Z - pencil.TM) <= 1e-10 * frobenius(M)
            assert frobenius(Q.conj().T @ NT @ Z - pencil.TN) <= 1e-10 * frobenius(NT)


class TestApply:
    def test_zero_input(self):
        factors = build_preconditioner(-np.eye(3), shift=1.0, tau=1.0)
        assert not apply_preconditioner(factors, np.zeros((3, 3))).any()

    def test_inverts_decoupled_operator(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_stable_problem(int(rng.integers(2, 7)), rng)
            factors = build_preconditioner(p.A0, shift=1.0, tau=p.tau)
            X = rng.standard_normal((p.n, p.n))
            Z = tilde_apply(p.A0, 1.0, p.tau, X)
            assert frobenius(apply_preconditioner(factors, Z) - X) <= 1e-8 * frobenius(X)

    def test_identity_on_coupled_operator_without_coupling(self):
        rng = np.random.default_rng(3)
        p0 = random_stable_problem(5, rng, coupling=0.0)
        ctx = OperatorContext(problem=p0, shift=1.0, ode=OdeConfig(steps=500))
        factors = build_preconditioner(p0.A0, shift=1.0, tau=p0.tau)
        X = rng.standard_normal((5, 5))
        X /= frobenius(X)
        out = apply_preconditioner(factors, apply_operator(ctx, X))
        assert frobenius(out - X) <= 1e-8

    def test_repeated_application_bitwise_identical(self):
        rng = np.random.default_rng(4)
        p = random_stable_problem(4, rng)
        factors = build_preconditioner(p.A0, shift=1.0, tau=p.tau)
        Z = rng.standard_normal((4, 4))
        first = apply_preconditioner(factors, Z)
        second = apply_preconditioner(factors, Z)
        assert np.array_equal(first, second)

    def test_norm_bound_with_measured_constant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_stable_problem(int(rng.integers(2, 6)), rng)
            factors = build_preconditioner(p.A0, shift=1.0, tau=p.tau)
            n = p.n
            I = np.eye(n)
            T = kron(I, p.A0.T + I) + kron((p.A0 - I).T, I) @ commutation_matrix(n)
            K = np.linalg.norm(np.linalg.inv(T), 2)
            bound = K * np.exp(0.5 * p.tau * np.linalg.norm(p.A0, 2))
            Z = rng.standard_normal((n, n))
            assert frobenius(apply_preconditioner(factors, Z)) \
                <= bound * frobenius(Z) * (1 + 1e-8)


class TestQuality:
    def test_vanishes_without_coupling(self):
        ex = small_example(0.0)
        ctx = OperatorContext(problem=ex.problem, shift=1.0, ode=OdeConfig(steps=4000))
        factors = build_preconditioner(ex.problem.A0, shift=1.0, tau=1.0)
        assert preconditioner_quality(ctx, factors, trials=20) <= 1e-8

    def test_grows_with_coupling(self):
        factors = build_preconditioner(small_example(0.0).problem.A0, shift=1.0, tau=1.0)
        values = []
        for alpha in (1e-3, 1e-2, 1e-1):
            ctx = OperatorContext(problem=small_example(alpha).problem, shift=1.0,
                                  ode=OdeConfig(steps=500))
            values.append(preconditioner_quality(ctx, factors, trials=10))
        assert values[0] < values[1] < values[2]

    def test_trials_validated(self):
        ex = small_example(0.0)
        ctx = OperatorContext(problem=ex.problem, shift=1.0)
        factors = build_preconditioner(ex.problem.A0, shift=1.0, tau=1.0)
        with pytest.raises(ValueError):
            preconditioner_quality(ctx, factors, trials=0)


class TestSpectrum:
    def test_identity_when_no_coupling(self):
        ex = small_example(0.0)
        ctx = OperatorContext(problem=ex.problem, shift=1.0, ode=OdeConfig(steps=4000))
        factors = build_preconditioner(ex.problem.A0, shift=1.0, tau=1.0)
        ev = preconditioned_spectrum(ctx, factors)
        assert len(ev) == 16
        assert np.abs(ev - 1.0).max() <= 1e-8

    def test_cluster_radius_grows_with_coupling(self):
        factors = build_preconditioner(small_example(0.0).problem.A0, shift=1.0, tau=1.0)
        radii = []
        for alpha in (1e-3, 1e-2, 1e-1):
            ctx = OperatorContext(problem=small_example(alpha).problem, shift=1.0,
                                  ode=OdeConfig(steps=500))
            ev = preconditioned_spectrum(ctx, factors)
            radii.append(np.abs(ev - 1.0).max())
        assert radii[0] < radii[1] < radii[2]


def test_residual_bound_from_deviation_and_conditioning():
    # with deviation r < 1, full GMRES satisfies |r_m| <= cond(V) r^m |r_0|
    ex = small_example(1e-2)
    p = ex.problem
    ode = OdeConfig(steps=500)
    ctx = OperatorContext(problem=p, shift=1.0, ode=ode)
    factors = build_preconditioner(p.A0, shift=1.0, tau=p.tau)
    r = preconditioner_quality(ctx, factors, trials=20)
    assert r < 1
    from delaylyap import assemble_operator, unvec, vec

    A = assemble_operator(ctx)
    PA = np.empty_like(A)
    for j in range(16):
        PA[:, j] = vec(apply_preconditioner(factors, unvec(A[:, j], 4)))
    lam, V = np.linalg.eig(PA)
    kappa = np.linalg.cond(V)
    report = gmres(lambda X: apply_operator(ctx, X), -p.W,
                   precond=lambda Z: apply_preconditioner(factors, Z),
                   cfg=KrylovConfig(tol=1e-12, maxit=16))
    for m, relres in enumerate(report.residual_history):
        assert relres <= kappa * r ** m * (1 + 1e-8)
