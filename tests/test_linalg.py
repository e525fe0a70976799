import ast
import inspect
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from delaylyap import (
    OperatorContext,
    SolverError,
    assemble_operator,
    eigenvalues,
    expm,
    factor_pencil,
    lu_solve,
    matrix_of,
    real_schur,
    small_example,
    unvec,
    vec,
)
import delaylyap.krylov
import delaylyap.linalg
import delaylyap.operators
import delaylyap.precond
import delaylyap.propagation
import delaylyap.solver
from delaylyap.linalg import (EXPM_THETA_13, dot, gemm, matmul, norm,
                              schur_eigenvalues)
from helpers import eigs_by_char_poly, max_multiset_distance


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

    def test_squarings_run_on_gemm(self, monkeypatch):
        # SciPy's Pade step sees ||2^-s A||_1 <= theta_13, so it squares
        # nothing itself; the s = 6 squarings run on gemm
        A = np.random.default_rng(7).standard_normal((6, 6))
        A *= 200.0 / np.abs(A).sum(axis=0).max()
        seen, squarings = [], []
        pade, square = scipy.linalg.expm, delaylyap.linalg.gemm
        monkeypatch.setattr(scipy.linalg, "expm", lambda M: seen.append(M) or pade(M))
        monkeypatch.setattr(delaylyap.linalg, "gemm",
                            lambda *args: squarings.append(args) or square(*args))
        E = expm(A)
        assert len(seen) == 1 and np.abs(seen[0]).sum(axis=0).max() <= EXPM_THETA_13
        assert len(squarings) == 6
        assert np.linalg.norm(E - pade(A)) <= 1e-12 * np.linalg.norm(pade(A))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_is_exp_overflow(self, bad):
        # refused before SciPy sees it, with the code of an overflowing result
        with pytest.raises(SolverError, match="input matrix has non-finite entries") as err:
            expm(np.array([[0.0, bad], [0.0, 0.0]]))
        assert err.value.code == "exp-overflow"


class TestKronVec:
    def test_vec_product_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A, B, X = (rng.standard_normal((2, 2)) for _ in range(3))
            assert_allclose(unvec(np.kron(B.T, A) @ vec(X)), A @ X @ B, rtol=1e-13)

    def test_vec_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 5))
        assert np.array_equal(X.flatten(order="F").reshape(3, 5, order="F"), X)
        Y = rng.standard_normal((4, 4))
        assert np.array_equal(unvec(vec(Y)), Y)

    def test_unvec_non_square_length_rejected(self):
        with pytest.raises(ValueError, match="cannot unvec length 5 into a square matrix"):
            unvec(np.arange(5.0))


def transpose_matrix(n):
    """The commutation matrix P, P vec(X) = vec(X^T), as the matrix of X -> X^T."""
    return matrix_of(lambda X: X.swapaxes(-1, -2), n)


class TestCommutation:
    def test_n1(self):
        assert_allclose(transpose_matrix(1), np.array([[1.0]]), atol=0)

    def test_n2_swaps_middle(self):
        P = transpose_matrix(2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert_allclose(P @ x, np.array([1.0, 3.0, 2.0, 4.0]), atol=0)

    def test_transposes_vec(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 4))
        assert_allclose(unvec(transpose_matrix(4) @ vec(X)), X.T, atol=0)


class TestMatrixOf:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_two_sided_product_is_kron(self, n):
        rng = np.random.default_rng(n)
        A, B = rng.standard_normal((2, n, n))
        assert np.array_equal(matrix_of(lambda X: A @ X @ B, n), np.kron(B.T, A))

    def test_applies_fn_once_to_the_unit_batch(self):
        calls = []

        def fn(X):
            calls.append(X.shape)
            return 2.0 * X

        assert np.array_equal(matrix_of(fn, 3), 2.0 * np.eye(9))
        assert calls == [(9, 3, 3)]

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_tsylv_matrix_matches_kronecker_formula(self, n):
        # (I (x) M + (N^T (x) I) P) with P the commutation matrix, bit for bit
        rng = np.random.default_rng(10 + n)
        M, N = rng.standard_normal((2, n, n))
        I = np.eye(n)
        P = np.eye(n * n)[np.arange(n * n).reshape(n, n).flatten(order="F")]
        K = np.kron(I, M) + np.kron(N.T, I) @ P
        assert np.array_equal(matrix_of(lambda Y: M @ Y + Y.swapaxes(-1, -2) @ N, n), K)


class TestRealSchur:
    def test_identity(self):
        U, T = real_schur(np.eye(3))
        assert_allclose(T, np.eye(3), atol=1e-14)
        assert_allclose(U @ U.T, np.eye(3), atol=1e-14)

    def test_failed_iteration_is_schur_no_convergence(self, monkeypatch):
        # LAPACK's QR iteration does not fail on any matrix small enough to
        # test with, so SciPy's error is raised in its place
        def failing(*args, **kwargs):
            raise scipy.linalg.LinAlgError("schur form not computed")

        monkeypatch.setattr(scipy.linalg, "schur", failing)
        with pytest.raises(SolverError, match="schur form not computed") as err:
            real_schur(np.eye(3))
        assert err.value.code == "schur-no-convergence"

    def test_triangular_input_already_reduced(self):
        rng = np.random.default_rng(5)
        A = np.triu(rng.standard_normal((4, 4)))
        U, T = real_schur(A)
        assert np.abs(U - np.diag(np.diag(U))).max() <= 1e-12
        assert_allclose(np.abs(np.diag(U)), np.ones(4), atol=1e-12)
        assert_allclose(U @ T @ U.T, A, atol=1e-12)

    def test_eigenvalues_match_char_poly_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            A = rng.standard_normal((6, 6))
            U, T = real_schur(A)
            assert max_multiset_distance(schur_eigenvalues(T), eigs_by_char_poly(A)) <= 1e-8
            assert np.array_equal(eigenvalues(A), schur_eigenvalues(T))

    def test_factorization_residual_and_orthogonality(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8))
        U, T = real_schur(A)
        nrm = np.linalg.norm(A, "fro")
        assert U.dtype == T.dtype == np.float64
        assert np.linalg.norm(U @ T @ U.T - A, "fro") <= 1e-10 * nrm
        assert np.linalg.norm(U.T @ U - np.eye(8), "fro") <= 1e-12 * 8
        assert np.abs(np.tril(T, -2)).max() == 0.0
        sub = np.diag(T, -1) != 0  # 2x2 blocks never touch
        assert not np.any(sub[1:] & sub[:-1])


class TestPencil:
    """The one pencil factorization, ``factor_pencil(M, N)`` of M - lambda N^T."""

    def test_reduction_contract(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((6, 6))
        NT = rng.standard_normal((6, 6))
        pencil = factor_pencil(M, NT.T)
        Q, Z, TM, TN = pencil.Q, pencil.Z, pencil.TM, pencil.TN
        for U in (Q, Z):
            assert np.linalg.norm(U.conj().T @ U - np.eye(6), "fro") <= 1e-12 * 6
        assert np.linalg.norm(Q.conj().T @ M @ Z - TM, "fro") <= 1e-10 * np.linalg.norm(M, "fro")
        assert np.linalg.norm(Q.conj().T @ NT @ Z - TN, "fro") <= 1e-10 * np.linalg.norm(NT, "fro")
        assert np.abs(np.tril(TM, -1)).max() == 0.0
        assert np.abs(np.tril(TN, -1)).max() == 0.0


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

    def test_rcond_refuses_a_singular_matrix_with_large_pivots(self):
        # a rank-3 product: its last pivot is 2.9e-15 of the largest, above
        # a pivot-ratio test at 4 eps = 8.9e-16, yet LAPACK's dgecon
        # estimates rcond = 9.8e-18
        rng = np.random.default_rng(18)
        A = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))
        d = np.abs(np.diag(scipy.linalg.lu_factor(A)[0]))
        assert d.min() > 4 * np.finfo(float).eps * d.max()
        with pytest.raises(SolverError, match="rcond") as err:
            lu_solve(A, np.ones(4))
        assert err.value.code == "singular-matrix"

    def test_ill_conditioned_operator_is_solved(self):
        # the 4x4 example's assembled operator at alpha 30 has rcond 7.5e-12,
        # well above 16 eps
        ctx = OperatorContext(small_example(30.0).problem)
        M = assemble_operator(ctx)
        b = -vec(ctx.problem.W)
        x = lu_solve(M, b)
        assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(M, 1) * np.linalg.norm(x)

    def test_overflowing_norm_is_singular_matrix(self):
        # finite entries whose 1-norm overflows, with no NumPy warning
        A = np.array([[1e308, 1e308], [1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as err:
                lu_solve(A, np.ones(2))
        assert err.value.code == "singular-matrix"

    def test_empty_matrix(self):
        assert lu_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_scipy_error_is_singular_matrix(self):
        # lu_factor refuses a non-finite matrix with a ValueError of its own
        with pytest.raises(SolverError, match="infs or NaNs") as err:
            lu_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
        assert err.value.code == "singular-matrix"


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
           "strided": lambda M: np.repeat(M, 2, axis=1)[:, ::2]}


class TestBlasHelpers:
    @pytest.mark.parametrize("left", LAYOUTS)
    @pytest.mark.parametrize("right", LAYOUTS)
    def test_gemm_reads_every_layout(self, left, right):
        rng = np.random.default_rng(11)
        A, B = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
        a, b = LAYOUTS[left](A), LAYOUTS[right](B)
        out = np.full((5, 4), np.nan)  # dgemm reads no out when beta = 0
        assert gemm(a, b, 0.5, out) is out
        assert_allclose(out, 0.5 * (A @ B), rtol=1e-14, atol=1e-15)
        product = gemm(a, b)
        assert product.flags.c_contiguous
        assert_allclose(product, A @ B, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("shapes", [((0, 3), (3, 4)), ((5, 3), (3, 0)),
                                        ((5, 0), (0, 4)), ((0, 0), (0, 0))],
                             ids=["m0", "n0", "k0", "all0"])
    def test_gemm_empty_dimensions(self, shapes):
        A, B = np.ones(shapes[0]), np.ones(shapes[1])
        out = np.full((A.shape[0], B.shape[1]), np.nan)
        assert gemm(A, B, 2.0, out) is out and not out.any()
        assert gemm(A, B).shape == out.shape and not gemm(A, B).any()

    def test_gemm_refusals_are_value_errors(self):
        A, B = np.ones((3, 4)), np.ones((4, 2))
        for a, b, out in ((A, np.ones((5, 2)), None), (A, B, np.empty((3, 3))),
                          (A, B, np.empty((2, 3))), (A, B, np.empty((3, 2), order="F")),
                          (A, B, np.empty((3, 2), dtype=np.float32)),
                          (np.ones(4), B, None), (A, np.ones((2, 4, 2)), None)):
            with pytest.raises(ValueError):
                gemm(a, b, 1.0, out)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matmul_dispatch(self, layout):
        rng = np.random.default_rng(12)
        M = LAYOUTS[layout](rng.standard_normal((5, 3)))
        x, y = rng.standard_normal(3), rng.standard_normal(5)
        assert_allclose(matmul(M, x), M @ x, rtol=1e-14, atol=1e-15)
        assert_allclose(matmul(y, M), y @ M, rtol=1e-14, atol=1e-15)
        assert matmul(x, x) == pytest.approx(x @ x, rel=1e-15)
        S = rng.standard_normal((2, 4, 5))
        assert_allclose(matmul(S, M), S @ M, rtol=1e-14, atol=1e-15)
        assert matmul(np.zeros((0, 3)), x).shape == (0,)
        assert not matmul(np.zeros(0), np.zeros((0, 4))).any()
        with pytest.raises(ValueError):
            matmul(M, y)
        with pytest.raises(ValueError):
            matmul(x, M)

    def test_dot_and_norm(self):
        x = np.array([3.0, 4.0])
        assert dot(x, x) == 25.0 and norm(x) == 5.0
        assert dot(np.zeros(0), np.zeros(0)) == 0.0 == norm(np.zeros(0))
        with pytest.raises(ValueError):
            dot(x, np.ones(3))
        # unscaled, like np.linalg.norm, and silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(np.array([1e200, 1e200])) == np.inf


# the modules of the solve path; every dense product there runs on the
# helpers of delaylyap.linalg
SOLVE_PATH = (delaylyap.propagation, delaylyap.operators, delaylyap.precond,
              delaylyap.krylov, delaylyap.solver)
NUMPY_PRODUCTS = {f"{np_}.{name}" for np_ in ("np", "numpy")
                  for name in ("dot", "matmul", "tensordot", "vdot", "einsum")}
NUMPY_NORMS = {"np.linalg.norm", "numpy.linalg.norm"}


def _products_outside_linalg(source):
    """(line, what) of each dense product in the source that bypasses
    delaylyap.linalg: the @ operator, a NumPy product function, or a
    np.linalg.norm that is not the Frobenius norm (a vector 2-norm, which
    the helpers take as sqrt(ddot))."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            args = [*node.args[1:], *(k.value for k in node.keywords if k.arg == "ord")]
            fro = any(isinstance(a, ast.Constant) and a.value == "fro" for a in args)
            if name in NUMPY_PRODUCTS or (name in NUMPY_NORMS and not fro):
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("module", SOLVE_PATH, ids=lambda m: m.__name__)
def test_solve_path_products_run_on_one_blas(module):
    # NumPy and SciPy each bundle an OpenBLAS with its own thread pool;
    # SciPy's runs every factorization, so a product left on NumPy's makes
    # the two pools take turns on the same cores
    assert _products_outside_linalg(inspect.getsource(module)) == []


def test_the_product_scan_sees_each_form():
    source = ("a = b @ c\nb @= c\nnp.dot(a, b)\nnp.einsum('ij', a)\nnumpy.tensordot(a, b)\n"
              "np.linalg.norm(a)\nnp.linalg.norm(a, 'fro')\nnp.linalg.norm(a, ord='fro')\n"
              "matmul(a, b)\n")
    found = _products_outside_linalg(source)
    assert [what for _, what in found] == ["@", "@", "np.dot", "np.einsum", "numpy.tensordot",
                                           "np.linalg.norm"]
