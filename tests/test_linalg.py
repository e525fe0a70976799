import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    SolverError,
    commutation_matrix,
    complex_schur,
    eigenvalues,
    expm,
    generalized_schur_pencil,
    kron,
    lu_solve,
    pencil_eigenvalues,
    unvec,
    vec,
)
from helpers import eigs_by_char_poly, max_multiset_distance, pencil_eigs_by_det


class TestExpm:
    def test_zero_matrix(self):
        assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        E = expm(np.diag([1.0, -1.0]))
        assert_allclose(E, np.diag([np.e, 1.0 / np.e]), rtol=1e-14)

    def test_against_taylor_series(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            A = rng.standard_normal((5, 5))
            A /= max(np.linalg.norm(A, 2), 1.0)
            term = np.eye(5)
            total = np.eye(5)
            for k in range(1, 30):
                term = term @ A / k
                total = total + term
            assert np.abs(expm(A) - total).max() <= 1e-12

    def test_group_property_near_normal(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S - S.T)
            S *= rng.uniform(1.0, 45.0) / max(np.linalg.norm(S, 2), 1e-300)
            B = rng.standard_normal((n, n))
            A = S + (B + B.T) / n
            assert np.linalg.norm(expm(A) @ expm(-A) - np.eye(n), "fro") <= 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))

    def test_overflow_signalled(self):
        with pytest.raises(SolverError) as err:
            expm(800.0 * np.eye(2))
        assert err.value.code == "exp-overflow"


class TestKronVec:
    def test_kron_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6), atol=0)

    def test_kron_nilpotent_structure(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        K = kron(A, np.eye(2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 1.0
        assert_allclose(K, expected, atol=0)

    def test_vec_product_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A, B, X = (rng.standard_normal((2, 2)) for _ in range(3))
            assert_allclose(unvec(kron(B.T, A) @ vec(X), 2), A @ X @ B, rtol=1e-13)

    def test_vec_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 5))
        assert np.array_equal(X.flatten(order="F").reshape(3, 5, order="F"), X)
        Y = rng.standard_normal((4, 4))
        assert np.array_equal(unvec(vec(Y)), Y)

    def test_kron_cap(self):
        with pytest.raises(SolverError) as err:
            kron(np.eye(200), np.eye(200))
        assert err.value.code == "kron-too-large"


class TestCommutation:
    def test_n1(self):
        assert_allclose(commutation_matrix(1), np.array([[1.0]]), atol=0)

    def test_n2_swaps_middle(self):
        P = commutation_matrix(2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert_allclose(P @ x, np.array([1.0, 3.0, 2.0, 4.0]), atol=0)

    def test_transposes_vec(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 4))
        assert_allclose(unvec(commutation_matrix(4) @ vec(X), 4), X.T, atol=0)


class TestComplexSchur:
    def test_identity(self):
        Q, R = complex_schur(np.eye(3))
        assert_allclose(R, np.eye(3), atol=1e-14)
        assert_allclose(Q @ Q.conj().T, np.eye(3), atol=1e-14)

    def test_triangular_input_already_reduced(self):
        rng = np.random.default_rng(5)
        A = np.triu(rng.standard_normal((4, 4)))
        Q, R = complex_schur(A)
        assert np.abs(Q - np.diag(np.diag(Q))).max() <= 1e-12
        assert_allclose(np.abs(np.diag(Q)), np.ones(4), atol=1e-12)
        assert_allclose(Q @ R @ Q.conj().T, A, atol=1e-12)

    def test_eigenvalues_match_char_poly_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            A = rng.standard_normal((6, 6))
            Q, R = complex_schur(A)
            assert max_multiset_distance(np.diag(R), eigs_by_char_poly(A)) <= 1e-8

    def test_factorization_residual_and_unitarity(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8))
        Q, R = complex_schur(A)
        nrm = np.linalg.norm(A, "fro")
        assert np.linalg.norm(Q @ R @ Q.conj().T - A, "fro") <= 1e-10 * nrm
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(8), "fro") <= 1e-12 * 8
        assert np.abs(np.tril(R, -1)).max() == 0.0


class TestPencil:
    def test_identity_pencil(self):
        mu = pencil_eigenvalues(np.eye(3), np.eye(3))
        assert_allclose(mu, np.ones(3), atol=1e-12)

    def test_diagonal_pencil(self):
        mu = pencil_eigenvalues(np.diag([2.0, 3.0]), np.eye(2))
        assert max_multiset_distance(mu, np.array([2.0, 3.0])) <= 1e-12

    def test_determinant_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            M = rng.standard_normal((5, 5))
            NT = rng.standard_normal((5, 5))
            mu = pencil_eigenvalues(M, NT)
            assert max_multiset_distance(mu, pencil_eigs_by_det(M, NT)) <= 1e-8

    def test_reduction_contract(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((6, 6))
        NT = rng.standard_normal((6, 6))
        Q, Z, TM, TN = generalized_schur_pencil(M, NT)
        for U in (Q, Z):
            assert np.linalg.norm(U.conj().T @ U - np.eye(6), "fro") <= 1e-12 * 6
        assert np.linalg.norm(Q.conj().T @ M @ Z - TM, "fro") <= 1e-10 * np.linalg.norm(M, "fro")
        assert np.linalg.norm(Q.conj().T @ NT @ Z - TN, "fro") <= 1e-10 * np.linalg.norm(NT, "fro")
        assert np.abs(np.tril(TM, -1)).max() == 0.0
        assert np.abs(np.tril(TN, -1)).max() == 0.0

    def test_consistency_with_dense_eigenvalues(self):
        rng = np.random.default_rng(10)
        for n in (3, 5, 8):
            M = rng.standard_normal((n, n))
            NT = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            mu = pencil_eigenvalues(M, NT)
            ref = eigenvalues(lu_solve(NT, M))
            assert max_multiset_distance(mu, ref) <= 1e-8

    def test_singular_nt_rejected(self):
        with pytest.raises(SolverError) as err:
            generalized_schur_pencil(np.eye(3), np.zeros((3, 3)))
        assert err.value.code == "pencil-reduction-failed"


class TestLuSolve:
    def test_identity(self):
        B = np.arange(6.0).reshape(3, 2)
        assert_allclose(lu_solve(np.eye(3), B), B, atol=0)

    def test_scaled_identity(self):
        assert_allclose(lu_solve(2.0 * np.eye(3), np.eye(3)), 0.5 * np.eye(3), atol=0)

    def test_residual(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 3))
        X = lu_solve(A, B)
        assert np.linalg.norm(A @ X - B, "fro") <= 1e-10 * np.linalg.norm(B, "fro")

    def test_singular_signalled(self):
        A = np.ones((3, 3))
        with pytest.raises(SolverError) as err:
            lu_solve(A, np.eye(3))
        assert err.value.code == "singular-matrix"
