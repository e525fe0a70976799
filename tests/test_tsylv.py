import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    SolverError,
    eigenvalues,
    factor_pencil,
    frobenius,
    has_no_hamiltonian_pairing,
    tsylv_solvable,
    tsylv_solve,
    tsylv_solve_kron,
)
from helpers import random_stable_problem


def residual(M, N, C, X):
    return frobenius(M @ X + X.T @ N - C) / max(frobenius(C), 1e-300)


class TestKronOracle:
    def test_identity_m(self):
        C = np.arange(9.0).reshape(3, 3)
        assert_allclose(tsylv_solve_kron(np.eye(3), np.zeros((3, 3)), C), C, atol=1e-12)

    def test_identity_n(self):
        C = np.arange(9.0).reshape(3, 3)
        assert_allclose(tsylv_solve_kron(np.zeros((3, 3)), np.eye(3), C), C.T, atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(0)
        M, N, C = (rng.standard_normal((5, 5)) for _ in range(3))
        X = tsylv_solve_kron(M, N, C)
        assert residual(M, N, C, X) <= 1e-10

    def test_singular_signalled(self):
        # mu = {1, 1}: the pair product hits 1, so the vectorized matrix is singular
        with pytest.raises(SolverError) as err:
            tsylv_solve_kron(np.eye(2), np.eye(2), np.ones((2, 2)))
        assert err.value.code == "tsylv-singular"

    def test_cap(self):
        with pytest.raises(ValueError):
            tsylv_solve_kron(np.eye(61), np.eye(61), np.eye(61))


class TestSchurSolver:
    def test_identity_m(self):
        C = np.arange(9.0).reshape(3, 3) + np.eye(3)
        assert_allclose(tsylv_solve(np.eye(3), np.zeros((3, 3)), C), C, atol=1e-12)

    def test_scalar_closed_form(self):
        M = np.array([[2.0]])
        N = np.array([[3.0]])
        C = np.array([[10.0]])
        assert_allclose(tsylv_solve(M, N, C), np.array([[2.0]]), rtol=1e-14)

    def test_structured_instance_matches_oracle(self):
        rng = np.random.default_rng(1)
        A0 = random_stable_problem(10, rng).A0
        M = A0.T + np.eye(10)
        N = A0 - np.eye(10)
        C = rng.standard_normal((10, 10))
        X1 = tsylv_solve(M, N, C)
        X2 = tsylv_solve_kron(M, N, C)
        assert frobenius(X1 - X2) <= 1e-9 * frobenius(X2)

    def test_random_batch_matches_oracle(self):
        rng = np.random.default_rng(2)
        done = 0
        for _ in range(60):
            n = int(rng.integers(2, 13))
            M = rng.standard_normal((n, n))
            N = rng.standard_normal((n, n))
            if not tsylv_solvable(M, N):
                continue
            C = rng.standard_normal((n, n))
            X1 = tsylv_solve(M, N, C)
            X2 = tsylv_solve_kron(M, N, C)
            assert frobenius(X1 - X2) <= 1e-8 * max(frobenius(X2), 1e-300)
            assert residual(M, N, C, X1) <= 1e-8
            done += 1
        assert done >= 40

    def test_near_singular_pair_signalled(self):
        # mu = {2, 0.5}: the off-diagonal pair product is exactly 1
        M = np.diag([2.0, 0.5])
        N = np.eye(2)
        with pytest.raises(SolverError) as err:
            tsylv_solve(M, N, np.ones((2, 2)))
        assert err.value.code == "tsylv-near-singular"

    def test_near_singular_diagonal_signalled(self):
        # scalar x - x = c: the diagonal pivot TM + TN vanishes (mu = -1)
        with pytest.raises(SolverError) as err:
            tsylv_solve(np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))
        assert err.value.code == "tsylv-near-singular"

    def test_singular_nt_gives_infinite_mu(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        N = np.diag([0.0, 1.0, 2.0, 3.0])
        assert np.isinf(factor_pencil(M, N).mu).sum() == 1
        C = rng.standard_normal((4, 4))
        X = tsylv_solve(M, N, C)
        assert_allclose(X, tsylv_solve_kron(M, N, C), rtol=1e-10, atol=1e-12)

    def test_singular_pencil_rejected(self):
        # M and N^T share the null vector e_1: mu_1 = 0/0
        D = np.diag([0.0, 1.0])
        for call in (lambda: factor_pencil(D, 2.0 * D), lambda: tsylv_solvable(D, 2.0 * D)):
            with pytest.raises(SolverError) as err:
                call()
            assert err.value.code == "pencil-reduction-failed"


class TestSolvable:
    def test_identity_pair_unsolvable(self):
        assert tsylv_solvable(np.eye(3), np.eye(3)) is False

    def test_scaled_identity_solvable(self):
        assert tsylv_solvable(2.0 * np.eye(3), np.eye(3)) is True

    def test_matches_pairing_predicate(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A0 = random_stable_problem(n, rng).A0
            c = 1.0
            lhs = tsylv_solvable(A0.T + c * np.eye(n), A0 - c * np.eye(n))
            assert lhs == has_no_hamiltonian_pairing(A0)

    def test_shift_independent(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A0 = rng.standard_normal((n, n))
            answers = {c: tsylv_solvable(A0.T + c * np.eye(n), A0 - c * np.eye(n))
                       for c in (0.5, 1.0, 2.0)}
            assert len(set(answers.values())) == 1

    def test_conjugate_and_plain_products_agree_on_real_pencils(self):
        # real spectra come in conjugate pairs, so both readings coincide
        rng = np.random.default_rng(5)
        from delaylyap import pencil_eigenvalues

        for _ in range(10):
            n = int(rng.integers(2, 7))
            M = rng.standard_normal((n, n))
            NT = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            mu = pencil_eigenvalues(M, NT)
            with_conj = np.abs(np.outer(mu, mu.conj()) - 1.0).min()
            without = np.abs(np.outer(mu, mu) - 1.0).min()
            assert abs(with_conj - without) <= 1e-8 * (1.0 + np.abs(mu).max() ** 2)

    def test_infinite_eigenvalue_handling(self):
        # pencil I - lambda*diag(0,1): eigenvalues {1, inf}; no zero partner,
        # and the single finite eigenvalue 1 still violates mu_i mu_j = 1
        assert tsylv_solvable(np.eye(2), np.diag([0.0, 1.0])) is False
        # shifted variant: eigenvalues {2, inf} are harmless
        assert tsylv_solvable(2.0 * np.eye(2), np.diag([0.0, 0.5])) is True

    def test_huge_finite_eigenvalue_does_not_mask_others(self):
        # nearly singular N^T: mu = {2e17, 4}, and no pair has mu_i mu_j near 1
        M, N = 2.0 * np.eye(2), np.diag([1e-17, 0.5])
        assert tsylv_solvable(M, N) is True
        C = np.arange(4.0).reshape(2, 2)
        X = tsylv_solve(M, N, C)
        assert frobenius(M @ X + X.T @ N - C) <= 1e-14 * frobenius(C)


class TestHamiltonianPairing:
    def test_negative_identity(self):
        assert has_no_hamiltonian_pairing(-np.eye(3)) is True

    def test_symmetric_pair(self):
        assert has_no_hamiltonian_pairing(np.diag([1.0, -1.0])) is False

    def test_stable_matrices_pass(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A0 = random_stable_problem(int(rng.integers(2, 8)), rng).A0
            assert (eigenvalues(A0).real < 0).all()
            assert has_no_hamiltonian_pairing(A0) is True
