import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    SolverError,
    eigenvalues,
    factor_pencil,
    frobenius,
    has_no_hamiltonian_pairing,
    matrix_of,
    tsylv_solve,
    tsylv_solve_kron,
)
from delaylyap.tsylv import pairing_free
from helpers import random_stable_problem


DESIGNS = ("random", "one", "minus_one", "reciprocal", "infinite", "hidden")


def residual(M, N, C, X):
    return frobenius(M @ X + X.T @ N - C) / max(frobenius(C), 1e-300)


def designed_pencil(rng, n, design):
    """(M, N) whose pencil M - lambda N^T is random or has the designed eigenvalue(s)."""
    if design == "random":
        return rng.standard_normal((n, n)), rng.standard_normal((n, n))
    dM, dN = rng.standard_normal(n), rng.standard_normal(n)
    if design == "one":
        dM[0] = dN[0]
    elif design == "minus_one":
        dM[0] = -dN[0]
    elif design in ("reciprocal", "hidden") and n >= 2:
        dM[1] = dN[0] * dN[1] / dM[0]
    elif design == "infinite":
        dN[0] = 0.0
    TM = np.diag(dM) + np.triu(rng.standard_normal((n, n)), 1)
    TN = np.diag(dN) + np.triu(rng.standard_normal((n, n)), 1)
    if design == "hidden" and n >= 2:
        # a reciprocal pair behind a large off-diagonal: QZ's backward error
        # moves the computed pair product off 1 by far more than 1e-10
        TM[0, 1] = TN[0, 1] = 1e5
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Z = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ TM @ Z.T, (Q @ TN @ Z.T).T


def solvable(M, N, C=None):
    """The verdict of ``tsylv_solve``'s solvability check on M, N and C (ones
    by default): False when the solve raises ``tsylv-near-singular``, True
    when it solves or fails only the residual check that follows.  The check
    reads the growth of X, so a C with no component along the map's smallest
    singular directions can pass a nearly singular map."""
    try:
        tsylv_solve(M, N, np.ones(M.shape) if C is None else C)
    except SolverError as exc:
        if exc.code == "tsylv-near-singular":
            return False
        if exc.code != "tsylv-residual-fail":
            raise
    return True


def kron_sigma_ratio(M, N):
    """sigma_min / sigma_max of the vectorized operator X -> M X + X^T N (0 if it is 0)."""
    n = M.shape[0]
    K = matrix_of(lambda Y: M @ Y + Y.swapaxes(-1, -2) @ N, n)
    s = np.linalg.svd(K, compute_uv=False)
    return s[-1] / s[0] if s[0] > 0 else 0.0


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
        # mu = {1, 1}: the pair product hits 1, so the vectorized matrix is
        # singular; the LU's refusal is the Schur route's code
        with pytest.raises(SolverError) as err:
            tsylv_solve_kron(np.eye(2), np.eye(2), np.ones((2, 2)))
        assert err.value.code == "tsylv-near-singular"

    def test_cap(self):
        with pytest.raises(SolverError) as err:
            tsylv_solve_kron(np.eye(61), np.eye(61), np.eye(61))
        assert err.value.code == "oracle-too-large"


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
            if not solvable(M, N):
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

    @pytest.mark.parametrize("M, N", [
        (np.diag([2.0, 3.0, 1.0]), np.diag([1.0, 1.0, -1.0])),  # mu = -1 first in the sweep
        (np.diag([3.0, 2.0, 0.5]), np.eye(3)),  # mu_2 mu_3 = 1: solve_triangular's zero pivot
    ], ids=["minus_one", "reciprocal"])
    def test_near_singular_is_silent(self, M, N):
        # a zero pivot's inf and nan run through the later groups of the
        # sweep; the code is read off them with no NumPy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as err:
                tsylv_solve(M, N, np.ones(M.shape))
        assert err.value.code == "tsylv-near-singular"

    def test_huge_right_hand_side_is_solved_silently(self):
        # ||C||_F and ||X||_F overflow here; the growth and residual checks do not
        C = 1e200 * np.arange(1.0, 5.0).reshape(2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = tsylv_solve(2.0 * np.eye(2), np.zeros((2, 2)), C)
        assert_allclose(X, 0.5 * C, rtol=1e-15)

    def test_singular_nt_is_solved(self):
        # N^T singular: the pencil has one infinite eigenvalue, TN[i,i] = 0
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        N = np.diag([0.0, 1.0, 2.0, 3.0])
        assert (np.diag(factor_pencil(M, N).TN) == 0).sum() == 1
        C = rng.standard_normal((4, 4))
        X = tsylv_solve(M, N, C)
        assert_allclose(X, tsylv_solve_kron(M, N, C), rtol=1e-10, atol=1e-12)

    def test_residual_fail_signalled(self):
        # mu = {2, 0.5 (1 + 1e-9)} in a rotated basis: the pair product misses 1
        # by 1e-9, which passes the pivot test, but the solve loses the
        # digits and fails the residual check (relative residual about 4e-7),
        # which only a solve that passed the pivot test reaches
        Q = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
        M = Q @ np.diag([2.0, 0.5 * (1.0 + 1e-9)]) @ Q.T
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(SolverError) as err:
            tsylv_solve(M, np.eye(2), C)
        assert err.value.code == "tsylv-residual-fail"

    def test_singular_pencil_rejected(self):
        # M and N^T share the null vector e_1: the pencil factors with
        # mu_1 = 0/0, and the solve meets that zero pivot
        D = np.diag([0.0, 1.0])
        pencil = factor_pencil(D, 2.0 * D)
        assert np.any((np.diag(pencil.TM) == 0) & (np.diag(pencil.TN) == 0))
        with pytest.raises(SolverError) as err:
            tsylv_solve(D, 2.0 * D, np.ones((2, 2)))
        assert err.value.code == "tsylv-near-singular"


class TestSolvable:
    def test_identity_pair_unsolvable(self):
        assert solvable(np.eye(3), np.eye(3)) is False

    def test_scaled_identity_solvable(self):
        assert solvable(2.0 * np.eye(3), np.eye(3)) is True

    def test_matches_pairing_predicate(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A0 = random_stable_problem(n, rng).A0
            c = 1.0
            lhs = solvable(A0.T + c * np.eye(n), A0 - c * np.eye(n))
            assert lhs == has_no_hamiltonian_pairing(A0)

    def test_shift_independent(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A0 = rng.standard_normal((n, n))
            answers = {c: solvable(A0.T + c * np.eye(n), A0 - c * np.eye(n))
                       for c in (0.5, 1.0, 2.0)}
            assert len(set(answers.values())) == 1

    def test_infinite_eigenvalue_handling(self):
        # pencil I - lambda*diag(0,1): eigenvalues {1, inf}; inf pairs only with
        # 0, and a simple eigenvalue 1 is allowed (x21 = c21, x12 = c12 - c21)
        assert solvable(np.eye(2), np.diag([0.0, 1.0])) is True
        # shifted variant: eigenvalues {2, inf} are harmless
        assert solvable(2.0 * np.eye(2), np.diag([0.0, 0.5])) is True

    @pytest.mark.parametrize("M, N", [
        (np.eye(2), np.diag([0.0, 1.0])),  # {1, inf}
        (np.diag([1.0, 2.0]), np.eye(2)),  # {1, 2}
        (np.array([[1.0]]), np.array([[1.0]])),  # {1}: 2x = c
    ])
    def test_simple_eigenvalue_one_is_solvable(self, M, N):
        C = np.arange(1.0, M.size + 1.0).reshape(M.shape)
        assert residual(M, N, C, tsylv_solve(M, N, C)) <= 1e-14
        assert residual(M, N, C, tsylv_solve_kron(M, N, C)) <= 1e-14

    def test_one_rule_with_the_solver(self):
        # mu = {2, 0.5 (1 + 1e-11)}: the pair product is 1 to within the
        # tolerance, so the solve rejects it before substituting
        M, N = np.diag([2.0, 0.5 * (1.0 + 1e-11)]), np.eye(2)
        with pytest.raises(SolverError) as err:
            tsylv_solve(M, N, np.ones((2, 2)))
        assert err.value.code == "tsylv-near-singular"

    def test_designed_pencils_match_kronecker_verdict(self):
        # random pencils and pencils built with an eigenvalue 1, -1 or inf or a
        # reciprocal pair, plain or hidden behind a large off-diagonal; the
        # reference is the Kronecker matrix's sigma ratio, compared only where
        # its verdict is clear
        rng = np.random.default_rng(0)
        clear = 0
        for _ in range(250):
            n = int(rng.integers(1, 6))
            M, N = designed_pencil(rng, n, DESIGNS[int(rng.integers(len(DESIGNS)))])
            verdict = solvable(M, N, rng.standard_normal((n, n)))
            ratio = kron_sigma_ratio(M, N)
            if ratio <= 1e-13 or ratio >= 1e-7:
                assert verdict == (ratio >= 1e-7)
                clear += 1
        assert clear >= 200

    def test_hidden_reciprocal_pair_is_near_singular(self):
        # mu = {10, 0.1} behind a 1e5 off-diagonal: QZ's backward error moves
        # the computed pair product off 1 by more than the tolerance, but X
        # grows by about 2e19 over ||C|| / (||M|| + ||N||)
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
        M = q @ np.array([[10.0, 1e5], [0.0, 1.0]]) @ q.T
        N = (q @ np.array([[1.0, 1e5], [0.0, 10.0]]) @ q.T).T
        assert kron_sigma_ratio(M, N) <= 1e-13
        with pytest.raises(SolverError) as err:
            tsylv_solve(M, N, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert err.value.code == "tsylv-near-singular"

    def test_huge_finite_eigenvalue_does_not_mask_others(self):
        # nearly singular N^T: mu = {2e17, 4}, and no pair has mu_i mu_j near 1
        M, N = 2.0 * np.eye(2), np.diag([1e-17, 0.5])
        C = np.arange(4.0).reshape(2, 2)
        X = tsylv_solve(M, N, C)
        assert frobenius(M @ X + X.T @ N - C) <= 1e-14 * frobenius(C)


class TestHamiltonianPairing:
    def test_overflowing_sum_is_no_pairing(self):
        # lambda_i + conj(lambda_j) overflows to inf, silently: no pairing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pairing_free(np.array([-1e308, -1.5e308 + 0j])) is True

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
