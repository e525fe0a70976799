import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from numpy.testing import assert_allclose
from scipy.linalg import matrix_balance
from scipy.sparse.linalg import expm_multiply

from delaylyap import (
    OdeConfig,
    OperatorContext,
    PropagationPlan,
    SolverError,
    TdsProblem,
    assemble_operator,
    coupled_rhs,
    exact_propagate,
    expm,
    frobenius,
    pdde_generate,
    reconstruct_solution,
    rk4_propagate,
    small_example,
    term_operands,
    unvec,
    vec,
)
from delaylyap.propagation import (
    CONTIGUOUS_OPERANDS_MIN_N,
    KRYLOV_THETA,
    MAX_PLAN_TERMS,
    MAX_POWER,
    TAYLOR_THETA,
    _planning_coordinates,
    _power_bounds,
    plan_propagations,
)
from helpers import random_stable_problem, reference_propagate, rk4_plan


def _random_pairs(count, n, seed):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n, n)), rng.standard_normal((n, n)), 1.0)
            for _ in range(count)]


def dense_power_norms(A0, A1, t):
    """d_p = ||(tG)^p||_1^(1/p) for p = 1..MAX_POWER + 1, from the dense
    generator."""
    tG = t * sparse_generator(A0, A1).toarray()
    power, d = np.eye(tG.shape[0]), []
    for p in range(1, MAX_POWER + 2):
        power = power @ tG
        d.append(np.linalg.norm(power, 1) ** (1.0 / p))
    return d


POWER_BOUND_CASES = [
    *((p.A0, p.A1, p.tau) for p in (small_example(1.0).problem, small_example(5.0).problem,
                                    pdde_generate(3, 1).problem, pdde_generate(5, 1).problem)),
    *_random_pairs(3, 6, 21),
]
POWER_BOUND_IDS = ["small4-alpha1", "small4-alpha5", "pdde-3x1", "pdde-5x1",
                   "random-6x6-0", "random-6x6-1", "random-6x6-2"]


def exact_thetas(m, targets, extra=150):
    """theta_m for each backward-error target u: the largest x with
    sum_{k > m} |c_k| x^(k - 1) <= u, c_k the coefficients of the series of
    log(e^-x T_m(x)), T_m the degree-m Taylor polynomial of e^x (Al-Mohy &
    Higham 2009, Sec. 3), in exact rational arithmetic to k = m + extra."""
    K = m + extra
    a = [Fraction(1, math.factorial(j)) for j in range(m + 1)]
    c = [Fraction(0)] * (K + 1)
    for k in range(1, K + 1):  # log T_m: k c_k = k a_k - sum_j j c_j a_{k-j}
        lower = sum((j * c[j] * a[k - j] for j in range(max(1, k - m), k)), Fraction(0))
        c[k] = (a[k] if k <= m else 0) - lower / k
    c[1] -= 1  # the -x of e^-x
    assert not any(c[: m + 1])  # e^-x T_m(x) = 1 + O(x^(m + 1))
    terms = [(k - 1, math.log(abs(ck.numerator)) - math.log(ck.denominator))
             for k, ck in enumerate(c) if k > m and ck]

    def scaled_error(x):
        return sum(math.exp(log_c + p * math.log(x)) for p, log_c in terms)

    thetas = []
    for u in targets:
        lo, hi = 0.0, float(m)
        for _ in range(64):  # scaled_error increases on x > 0
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if scaled_error(mid) <= u else (lo, mid)
        thetas.append(lo)
    return thetas


def sparse_generator(A0, A1):
    """G on [vec Z1; vec Z2^T], column-stacked, from SciPy's sparse kron and
    bmat alone: no code shared with delaylyap."""
    n = A0.shape[0]
    I = scipy.sparse.identity(n, format="csr")
    A0T, A1T = scipy.sparse.csr_matrix(A0.T), scipy.sparse.csr_matrix(A1.T)
    kron = scipy.sparse.kron
    return scipy.sparse.bmat([[kron(A0T, I), kron(A1T, I)],
                              [-kron(I, A1T), -kron(I, A0T)]], format="csr")


def generator_action(A0, A1, Z1, Z2):
    """G on the pair (Z1, Z2) through the vectorized generator on
    [vec Z1; vec Z2^T]."""
    n = Z1.shape[0]
    out = sparse_generator(A0, A1) @ np.concatenate([vec(Z1), vec(Z2.T)])
    return unvec(out[: n * n]), unvec(out[n * n:]).T


def term(B, ST):
    """g(B) for the operand ST, by one ``coupled_rhs`` call on the stacked
    pair [B^T; B] of the n x n matrix B."""
    B = np.asarray(B)
    out = np.empty(B.shape)
    assert coupled_rhs(np.concatenate((B.T, B)), ST, out) is out
    return out.T


class TestCoupledRhs:
    def test_zero_state(self):
        A = np.ones((3, 3))
        for ST in term_operands(A, A):
            G = term(np.zeros((3, 3)), ST)
            assert G.shape == (3, 3) and not G.any()
        S_minus, _ = term_operands(np.eye(3, dtype=int), np.eye(3, dtype=int))
        G = term(np.zeros((3, 3), dtype=int), S_minus)
        assert G.dtype == float and not G.any()

    def test_decoupled_when_no_delay_term(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 3))
        A0 = rng.standard_normal((3, 3))
        for ST in term_operands(A0, np.zeros((3, 3))):
            assert_allclose(term(X, ST), X @ A0, rtol=1e-15, atol=1e-15)

    def test_entrywise_formula(self):
        rng = np.random.default_rng(1)
        B, A0, A1 = (rng.standard_normal((3, 3)) for _ in range(3))
        for sign, ST in zip((-1.0, 1.0), term_operands(A0, A1)):
            G = term(B, ST)
            for i in range(3):
                for j in range(3):
                    g = sum(B[i, k] * A0[k, j] + sign * B[k, i] * A1[k, j] for k in range(3))
                    assert abs(G[i, j] - g) <= 1e-13

    def test_operands_stacked_once_as_float64(self):
        A0 = np.arange(9).reshape(3, 3)
        A1 = 2 * np.eye(3, dtype=int)
        S_minus, S_plus = term_operands(A0, A1)
        assert S_minus.dtype == S_plus.dtype == float
        # transposed views of the stacks below CONTIGUOUS_OPERANDS_MIN_N,
        # C-contiguous copies from there on
        assert S_minus.T.flags.c_contiguous and S_plus.T.flags.c_contiguous
        n = CONTIGUOUS_OPERANDS_MIN_N
        assert all(ST.flags.c_contiguous for ST in term_operands(np.eye(n), np.eye(n)))
        assert np.array_equal(S_minus, np.hstack((A0.T, -A1.T)))
        assert np.array_equal(S_plus, np.hstack((A0.T, A1.T)))

    def test_shape_mismatch(self):
        # V must be a 2n x bn pair and out n x bn
        _, ST = term_operands(np.eye(3), np.eye(3))
        for V, out in (((4, 2), (3, 3)), ((8, 4), (3, 3)), ((6, 3, 2), (6, 3, 3)),
                       ((6, 2), (3, 3)), ((6, 3), (2, 2)), ((6, 6), (3, 3))):
            with pytest.raises(ValueError):
                coupled_rhs(np.zeros(V), ST, np.empty(out))
        with pytest.raises(ValueError):
            term_operands(np.eye(3), np.eye(2))
        with pytest.raises(ValueError):
            term_operands(np.ones((3, 2)), np.ones((3, 2)))

    def test_batch_as_column_blocks(self):
        # a batch of b matrices is one 2n x bn pair whose column block k is
        # [B_k^T; B_k]; column block k of out is then g(B_k)^T
        rng = np.random.default_rng(2)
        B = rng.standard_normal((4, 3, 3))
        A0, A1 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        V = np.hstack([np.vstack((Bk.T, Bk)) for Bk in B])
        for ST in term_operands(A0, A1):
            out = np.empty((3, 12))
            assert coupled_rhs(V, ST, out) is out
            for k in range(4):
                assert_allclose(out[:, 3 * k: 3 * k + 3].T, term(B[k], ST),
                                rtol=1e-14, atol=1e-14)


def count_terms(monkeypatch):
    """Count the calls of ``propagation.coupled_rhs``: the shape of each
    call's stacked pair is appended to the returned list."""
    import delaylyap.propagation

    shapes = []
    inner = delaylyap.propagation.coupled_rhs

    def counted(V, *args):
        shapes.append(V.shape)
        return inner(V, *args)

    monkeypatch.setattr(delaylyap.propagation, "coupled_rhs", counted)
    return shapes


class TestSplitCoordinates:
    def test_swap_anticommutes_with_generator(self):
        rng = np.random.default_rng(20)
        A0, A1, Z1, Z2 = (rng.standard_normal((4, 4)) for _ in range(4))
        G1, G2 = generator_action(A0, A1, Z1, Z2)
        for got, want in zip(generator_action(A0, A1, Z2, Z1), (-G2, -G1)):
            assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_generator_in_split_coordinates(self):
        # G(P, Q) = (g-(Q), g+(P)) with Z1 = P + Q, Z2 = P - Q
        rng = np.random.default_rng(21)
        A0, A1, P, Q = (rng.standard_normal((4, 4)) for _ in range(4))
        G1, G2 = generator_action(A0, A1, P + Q, P - Q)
        S_minus, S_plus = term_operands(A0, A1)
        assert_allclose(0.5 * (G1 + G2), term(Q, S_minus), rtol=1e-13, atol=1e-13)
        assert_allclose(0.5 * (G1 - G2), term(P, S_plus), rtol=1e-13, atol=1e-13)

    def test_one_matrix_per_counted_term(self, monkeypatch):
        # each term is one counted call on one stacked pair [B^T; B]
        p = small_example(5.0).problem
        shapes = count_terms(monkeypatch)
        plan = plan_propagations(p.A0, p.A1, p.tau)[0]
        rk4_propagate(p.A0, p.A1, np.eye(p.n), p.tau, plan=plan)
        assert len(shapes) == plan.rhs_evals > 0
        assert set(shapes) == {(2 * p.n, p.n)}
        # 10 samples: propagation times j (tau/2)/9 with gcd(j) = 1, so J = 9
        # steps, each refined r = ceil(s / 9) times
        shapes.clear()
        reconstruct_solution(OperatorContext(problem=p, plan=plan), np.eye(p.n), samples=10)
        assert len(shapes) == plan.degree * 9 * -(-plan.steps // 9) > 0
        assert set(shapes) == {(2 * p.n, p.n)}

    def test_batch_runs_one_call_per_term(self, monkeypatch):
        # a batch of b matrices costs the plan's terms, not b times them,
        # each one product with the 2n x bn wide pair: through rk4_propagate
        # and through the n^2 unit matrices of assemble_operator
        p = small_example(5.0).problem
        shapes = count_terms(monkeypatch)
        plan = plan_propagations(p.A0, p.A1, p.tau)[0]
        X = np.random.default_rng(23).standard_normal((3, p.n, p.n))
        rk4_propagate(p.A0, p.A1, X, p.tau, plan=plan)
        assert len(shapes) == plan.rhs_evals > 0
        assert set(shapes) == {(2 * p.n, 3 * p.n)}
        shapes.clear()
        assemble_operator(OperatorContext(problem=p, plan=plan))
        assert len(shapes) == plan.rhs_evals
        assert set(shapes) == {(2 * p.n, p.n * p.n * p.n)}

    def test_difference_form_keeps_rk4_rounding(self):
        # Near E_h = I the plain three-term Chebyshev recurrence loses about
        # s^2 eps (2.2e-10 here); the difference form stays at classic RK4's
        # error (1.22e-13 against 1.63e-13 for RK4 on this problem).
        rng = np.random.default_rng(0)
        p = random_stable_problem(5, rng)
        X = rng.standard_normal((5, 5))
        steps, n = 4000, p.n
        exact = exact_propagate(p.A0, p.A1, X, p.tau)
        G = sparse_generator(p.A0, p.A1).toarray()
        h = 0.5 * p.tau / steps
        y = np.concatenate([vec(X), vec(X.T)])
        for _ in range(steps):
            k1 = G @ y
            k2 = G @ (y + 0.5 * h * k1)
            k3 = G @ (y + 0.5 * h * k2)
            k4 = G @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        err_rk4 = (frobenius(unvec(y[: n * n]) - exact.Z1_end)
                   + frobenius(unvec(y[n * n:]).T - exact.Z2_end))
        res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=rk4_plan(steps))
        err = frobenius(res.Z1_end - exact.Z1_end) + frobenius(res.Z2_end - exact.Z2_end)
        assert err <= err_rk4

    def test_degree_zero_plan_returns_initial_value(self):
        rng = np.random.default_rng(22)
        A0, A1, X = (rng.standard_normal((3, 3)) for _ in range(3))
        res = rk4_propagate(A0, A1, X, 1.0, plan=PropagationPlan(degree=0, steps=1))
        assert np.array_equal(res.Z1_end, X) and np.array_equal(res.Z2_end, X)


class TestRk4:
    def test_zero_initial_value(self):
        rng = np.random.default_rng(2)
        A0 = rng.standard_normal((4, 4))
        res = rk4_propagate(A0, A0, np.zeros((4, 4)), 1.0, plan=rk4_plan(20))
        assert not res.Z1_end.any() and not res.Z2_end.any()

    def test_closed_form_when_decoupled(self):
        rng = np.random.default_rng(3)
        A0 = rng.standard_normal((4, 4))
        X = rng.standard_normal((4, 4))
        tau = 1.0
        ref = X @ expm(-0.5 * tau * A0)
        errs = []
        for steps in (250, 500):
            res = rk4_propagate(A0, np.zeros((4, 4)), X, tau, plan=rk4_plan(steps))
            errs.append(frobenius(res.Z2_end - ref))
        assert errs[1] <= 1e-10 * frobenius(ref)
        assert errs[0] / errs[1] >= 2 ** 3 * 0.9

    def test_matches_exponential_oracle(self):
        rng = np.random.default_rng(4)
        p = random_stable_problem(5, rng, tau=1.5)
        X = rng.standard_normal((5, 5))
        exact = exact_propagate(p.A0, p.A1, X, p.tau)
        errs = []
        for steps in (40, 80, 160):
            res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=rk4_plan(steps))
            errs.append(frobenius(res.Z1_end - exact.Z1_end)
                        + frobenius(res.Z2_end - exact.Z2_end))
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 2 ** 3 * 0.9

    def test_linearity(self):
        rng = np.random.default_rng(5)
        p = random_stable_problem(4, rng)
        X, Y = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        a, b = 0.7, -1.3
        plan = rk4_plan(60)
        mix = rk4_propagate(p.A0, p.A1, a * X + b * Y, p.tau, plan=plan)
        rx = rk4_propagate(p.A0, p.A1, X, p.tau, plan=plan)
        ry = rk4_propagate(p.A0, p.A1, Y, p.tau, plan=plan)
        for got, want in ((mix.Z1_end, a * rx.Z1_end + b * ry.Z1_end),
                          (mix.Z2_end, a * rx.Z2_end + b * ry.Z2_end)):
            assert frobenius(got - want) <= 1e-12 * max(frobenius(want), 1e-300)

    @pytest.mark.parametrize("grid, gate", [(0, 1e-14), (3, 1e-14), (5, 1e-14), (7, 1e-13)],
                             ids=["small4-alpha5", "pdde-3x3", "pdde-5x5", "pdde-7x7"])
    def test_matches_the_concatenating_reference(self, grid, gate):
        # the stacked pair [B^T; B] against fresh [B, B^T] S products on both
        # plans: the same bits up to n = 50; at n = 98 BLAS blocking no
        # longer gives both the same bits, and the 2^-24 plan's single step
        # amplifies that to 6.7e-16 - 4.9e-14 over eight seeded X (SciPy's
        # OpenBLAS 0.3.30 against NumPy's 0.3.31 in the reference)
        p = pdde_generate(grid, grid).problem if grid else small_example(5.0).problem
        X = np.random.default_rng(grid).standard_normal((p.n, p.n))
        for plan in plan_propagations(p.A0, p.A1, p.tau):
            res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=plan)
            want = np.stack(reference_propagate(p.A0, p.A1, X, p.tau, plan))
            got = np.stack((res.Z1_end, res.Z2_end))
            assert np.linalg.norm(got - want) <= gate * np.linalg.norm(want)

    def test_overflow_stops_at_the_first_non_finite_step(self, monkeypatch):
        # alpha = 1e4 plans an affordable 55 x 510 terms; the pair is not
        # finite from step 103 on, and the propagation raises there rather
        # than after the other 407 steps
        p = small_example(1e4).problem
        plan = plan_propagations(p.A0, p.A1, p.tau)[0]
        shapes = count_terms(monkeypatch)
        with pytest.raises(SolverError) as err:
            rk4_propagate(p.A0, p.A1, np.eye(p.n), p.tau, plan=plan)
        assert err.value.code == "exp-overflow"
        assert 0 < len(shapes) < plan.rhs_evals / 2

    def test_batch_axis(self):
        rng = np.random.default_rng(8)
        p = random_stable_problem(4, rng)
        X = rng.standard_normal((3, 4, 4))
        res = rk4_propagate(p.A0, p.A1, X, p.tau)
        assert res.Z1_end.shape == res.Z2_end.shape == (3, 4, 4)
        for k in range(3):
            one = rk4_propagate(p.A0, p.A1, X[k], p.tau)
            assert_allclose(res.Z1_end[k], one.Z1_end, rtol=1e-14, atol=1e-14)
            assert_allclose(res.Z2_end[k], one.Z2_end, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("grid, gate", [(0, 1e-14), (3, 1e-14), (5, 1e-14), (7, 1e-13)],
                             ids=["small4-alpha5", "pdde-3x3", "pdde-5x5", "pdde-7x7"])
    def test_batch_is_the_stack_of_single_propagations(self, grid, gate):
        # a (2, 3, n, n) batch, held as the column blocks of one wide pair,
        # against its six single propagations on both plans: the same bits
        # at n = 4 and 18, 5.7e-15 at n = 50; at n = 98 BLAS blocks the
        # 6n-column product apart from the n-column one and the 2^-24
        # plan's single step amplifies that to 9.4e-14 (8.1e-14 - 9.7e-14
        # over eight seeded X), as in test_matches_the_concatenating_reference
        p = pdde_generate(grid, grid).problem if grid else small_example(5.0).problem
        X = np.random.default_rng(grid).standard_normal((2, 3, p.n, p.n))
        for plan in plan_propagations(p.A0, p.A1, p.tau):
            res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=plan)
            got = np.stack((res.Z1_end, res.Z2_end))
            assert got.shape == (2, 2, 3, p.n, p.n)
            singles = [rk4_propagate(p.A0, p.A1, Xk, p.tau, plan=plan)
                       for Xk in X.reshape(6, p.n, p.n)]
            want = np.stack([np.stack([one.Z1_end for one in singles]),
                             np.stack([one.Z2_end for one in singles])]).reshape(got.shape)
            assert np.linalg.norm(got - want) <= gate * np.linalg.norm(want)
            empty = rk4_propagate(p.A0, p.A1, X[:0, 0], p.tau, plan=plan)
            assert empty.Z1_end.shape == empty.Z2_end.shape == (0, p.n, p.n)

    def test_plan_is_keyword_only(self):
        # a fifth positional argument, such as an OdeConfig, is refused
        # instead of being taken for the plan
        with pytest.raises(TypeError):
            rk4_propagate(np.eye(2), np.eye(2), np.eye(2), 1.0, OdeConfig(steps=5))

    def test_tau_zero_returns_initial_value(self):
        # no tau = 0 branch: the planner's zero plan, or any plan run with
        # h = 0, maps X to itself to the last bit, one matrix or a batch
        p = small_example(1.0).problem
        assert plan_propagations(p.A0, p.A1, 0.0)[0] == PropagationPlan(0, 1)
        X = np.random.default_rng(16).standard_normal((2, p.n, p.n))
        for plan in (None, PropagationPlan(4, 5), PropagationPlan(55, 2)):
            for Y in (X[0], X):
                res = rk4_propagate(p.A0, p.A1, Y, 0.0, plan=plan)
                assert res.Z1_end.tobytes() == res.Z2_end.tobytes() == Y.tobytes()
                assert res.Z1_end.shape == res.Z2_end.shape == Y.shape

    def test_terminal_norm_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A0 = rng.standard_normal((n, n))
            A1 = rng.standard_normal((n, n))
            X = rng.standard_normal((n, n))
            tau = float(rng.uniform(0.2, 2.0))
            res = exact_propagate(A0, A1, X, tau)
            norms = np.linalg.norm(A0, 2) + np.linalg.norm(A1, 2)
            bound = 2.0 * np.exp(tau * norms) * frobenius(X)
            assert frobenius(res.Z1_end) <= bound
            assert frobenius(res.Z2_end) <= bound


class TestTaylorPlan:
    def test_default_matches_exponential_oracle(self):
        rng = np.random.default_rng(11)
        problems = [small_example(1.0).problem, small_example(5.0).problem,
                    random_stable_problem(5, rng)]
        for p in problems:
            X = rng.standard_normal((p.n, p.n))
            exact = exact_propagate(p.A0, p.A1, X, p.tau)
            res = rk4_propagate(p.A0, p.A1, X, p.tau)
            for got, want in ((res.Z1_end, exact.Z1_end), (res.Z2_end, exact.Z2_end)):
                assert frobenius(got - want) <= 1e-12 * frobenius(want)

    def test_fixed_steps_plan_is_rk4(self):
        assert plan_propagations(np.eye(2), np.eye(2), 1.0, OdeConfig(steps=7))[0] \
            == PropagationPlan(degree=4, steps=7)

    @pytest.mark.parametrize("degree, steps", [(4, 0), (4, -1), (4, 2.5), (2.5, 3), (-1, 3)])
    def test_malformed_plan_rejected(self, degree, steps):
        # unchecked, these reached the loop: ZeroDivisionError,
        # UnboundLocalError, TypeError twice and a silent degree-0 run
        with pytest.raises(ValueError):
            PropagationPlan(degree=degree, steps=steps)

    @pytest.mark.parametrize("steps", [2.5, "3", 0])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            OdeConfig(steps=steps)

    @pytest.mark.parametrize("cfg", [None, OdeConfig(steps=7)], ids=["planned", "steps-7"])
    def test_negative_tau_rejected(self, cfg):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            plan_propagations(np.eye(2), np.eye(2), -1.0, cfg)[0]

    def test_cost_on_benchmark_problems(self):
        for alpha in (1.0, 5.0):
            p = small_example(alpha).problem
            assert plan_propagations(p.A0, p.A1, p.tau)[0].rhs_evals <= 220
        p = pdde_generate(5, 5).problem
        assert plan_propagations(p.A0, p.A1, p.tau)[0].rhs_evals <= 100

    def test_deterministic_and_leaves_global_rng_alone(self):
        # PDDE 3x3's unbalanced ||tG||_1 = 74 is above the 63.4 under which
        # Al-Mohy & Higham plan from the 1-norm alone; the plan still reads
        # only (A0, A1, tau), with no random power estimates
        p = pdde_generate(3, 3).problem
        plans = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            plans.append(plan_propagations(p.A0, p.A1, p.tau)[0])
            after = np.random.get_state()
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert plans[0] == plans[1]

    def test_zero_generator(self):
        X = np.arange(4.0).reshape(2, 2)
        zero = np.zeros((2, 2))
        assert plan_propagations(zero, zero, 1.0)[0].rhs_evals == 0
        res = rk4_propagate(zero, zero, X, 1.0)
        assert np.array_equal(res.Z1_end, X) and np.array_equal(res.Z2_end, X)

    @pytest.mark.parametrize("A0, tau", [(np.eye(2), 0.0), (np.zeros((2, 2)), 1.0)],
                             ids=["tau-0", "zero-generator"])
    @pytest.mark.parametrize("cfg", [None, OdeConfig(steps=7)], ids=["planned", "steps-7"])
    def test_zero_length_plan_under_every_setting(self, A0, tau, cfg):
        # ||tG||_1 = 0: p(hG) = I for any plan, so both plans run no term
        zero = PropagationPlan(0, 1)
        assert plan_propagations(A0, np.zeros((2, 2)), tau, cfg) == (zero, zero)

    @pytest.mark.parametrize("A0, A1, tau", [
        (small_example(1.0).problem.A0, small_example(1e100).problem.A1, 1e208),
        (small_example(1.0).problem.A0, small_example(1e308).problem.A1, 1.0),
        (small_example(1.0).problem.A0, np.full((4, 4), 1e308), 1.0),
        (np.full((4, 4), np.nan), small_example(1.0).problem.A1, 1.0),
    ], ids=["alpha-1e100", "alpha-1e308", "norm-overflow", "nan-A0"])
    def test_overflowing_norm_estimate_is_exp_overflow(self, A0, A1, tau):
        # At alpha = 1e308 and tau = 1, and at alpha = 1e100 and tau = 1e208,
        # ||tG||_1 = 5e307 is finite and 55 ceil(||tG||_1 / 9.86), the least
        # term count, overflows (at tau = 1, alpha = 1e100 is plan-too-large);
        # a row of four 1e308 entries overflows ||tG||_1 itself, and a NaN A0,
        # which gebal rejects, makes it NaN.  No RuntimeWarning escapes: the
        # suite turns them into errors.
        with pytest.raises(SolverError) as err:
            plan_propagations(A0, A1, tau)[0]
        assert err.value.code == "exp-overflow"

    def test_plans_on_benchmark_problems(self):
        # the power bounds of the balanced generator cut every plan but
        # PDDE 11x11's; from the 1-norm alone these read (50, 4), (55, 4),
        # (55, 1), (40, 2), (55, 3) and (55, 2), and unbalanced PDDE 5x5 and
        # 11x11 would plan 55 x 17 and 55 x 62 terms
        problems = [((50, 3), small_example(1.0).problem), ((50, 3), small_example(5.0).problem),
                    ((45, 1), pdde_generate(3, 3).problem), ((55, 1), pdde_generate(5, 5).problem),
                    ((50, 2), pdde_generate(9, 9).problem),
                    ((55, 2), pdde_generate(11, 11).problem)]
        for (m, s), p in problems:
            assert plan_propagations(p.A0, p.A1, p.tau)[0] == PropagationPlan(degree=m, steps=s)

    def test_ties_go_to_the_smallest_degree(self):
        # ||tG||_1 = 90 costs 50 x ceil(90 / 8.5) = 55 x ceil(90 / 9.86) = 550
        plan = plan_propagations(-180.0 * np.eye(2), np.zeros((2, 2)), 1.0)[0]
        assert plan == PropagationPlan(degree=50, steps=11)

    def test_absurd_plan_is_plan_too_large(self):
        # alpha = 1e20 plans 55 x 5.07e18 terms and alpha = 1e100 55 x
        # 5.07e98, finite propagations that never end; at 1e120 and 1e200
        # the unscaled powers of |tG| would overflow, which is not what the
        # finite ||tG||_1 means
        for alpha in (1e20, 1e100, 1e120, 1e200):
            p = small_example(alpha).problem
            with pytest.raises(SolverError) as err:
                plan_propagations(p.A0, p.A1, p.tau)[0]
            assert err.value.code == "plan-too-large"

    @pytest.mark.parametrize("A0, A1, tau", POWER_BOUND_CASES, ids=POWER_BOUND_IDS)
    def test_power_bounds_hold(self, A0, A1, tau):
        # column sums of |tG|^p bound ||(tG)^p||_1, computed from the dense
        # generator in the original and in the planning coordinates
        t = 0.5 * tau
        for B0, B1 in ((A0, A1), _planning_coordinates(A0, A1)[1:]):
            for bound, d in zip(_power_bounds(B0, B1, t), dense_power_norms(B0, B1, t)):
                assert bound >= d * (1.0 - 1e-13)

    @pytest.mark.parametrize("A0, A1, tau", POWER_BOUND_CASES, ids=POWER_BOUND_IDS)
    def test_power_plan_never_exceeds_the_norm_plan(self, A0, A1, tau):
        # the first bound is the 1-norm of the balanced or original generator,
        # whichever is smaller, and the plan from it stays a candidate
        T = matrix_balance(A0, permute=False, separate=True)[1][0]
        scale = np.outer(1.0 / T, T)
        norm1 = 0.5 * tau * min(np.linalg.norm(A0, np.inf) + np.linalg.norm(A1, np.inf),
                                np.linalg.norm(A0 * scale, np.inf)
                                + np.linalg.norm(A1 * scale, np.inf))
        assert _power_bounds(*_planning_coordinates(A0, A1)[1:], 0.5 * tau)[0] == norm1
        norm_plan = min(m * np.ceil(norm1 / theta) for m, theta in TAYLOR_THETA.items())
        assert plan_propagations(A0, A1, tau)[0].rhs_evals <= norm_plan

    @pytest.mark.parametrize("A0, A1, tau", [
        *POWER_BOUND_CASES,
        # d_p = 100, 100, 4.6, 1, 2.5, 4.6, 1.9, 1, 1.7: d_4 alone would
        # allow degree 18 where max(d_4, d_5) needs 26
        (np.zeros((2, 2)), np.array([[0.0, 100.0], [0.01, 0.0]]), 2.0),
        # (tG)^4 = 0, which only p(p - 1) <= m + 1 with p = 4 may use
        (np.triu(np.full((4, 4), 30.0), 1), np.zeros((4, 4)), 1.0),
    ], ids=[*POWER_BOUND_IDS, "non-monotone", "nilpotent"])
    def test_plan_meets_the_backward_error_condition(self, A0, A1, tau):
        # Al-Mohy & Higham (2009, Thm 4.2): some p with p(p - 1) <= m + 1 has
        # max(d_p, d_{p+1}) <= s theta_m, d_p from the dense generator
        plan = plan_propagations(A0, A1, tau)[0]
        d = dense_power_norms(*_planning_coordinates(A0, A1)[1:], 0.5 * tau)
        budget = plan.steps * TAYLOR_THETA[plan.degree]
        assert any(max(d[p - 1], d[p]) <= budget
                   for p in range(1, MAX_POWER + 1) if p * (p - 1) <= plan.degree + 1)

    def test_nilpotent_generator_plans_exact_terms(self):
        # A1 = 0 and a nilpotent A0 make (tG)^2 = 0: one degree-1 step is exp
        A0 = np.array([[0.0, 3.0], [0.0, 0.0]])
        A1 = np.zeros((2, 2))
        assert list(_power_bounds(A0, A1, 0.5)[1:]) == [0.0] * MAX_POWER
        assert plan_propagations(A0, A1, 1.0)[0] == PropagationPlan(degree=1, steps=1)
        X = np.arange(4.0).reshape(2, 2)
        res = rk4_propagate(A0, A1, X, 1.0)
        exact = exact_propagate(A0, A1, X, 1.0)
        assert_allclose(res.Z1_end, exact.Z1_end, rtol=0, atol=1e-14)
        assert_allclose(res.Z2_end, exact.Z2_end, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("run", [
        lambda p: plan_propagations(p.A0, p.A1, p.tau),
        lambda p: exact_propagate(p.A0, p.A1, np.eye(p.n), p.tau),
    ], ids=["plan_propagations", "exact_propagate"])
    def test_one_balance_per_call(self, run, monkeypatch):
        # the planning coordinates come from one gebal call, which
        # exact_propagate shares with its plan check
        import delaylyap.propagation

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return matrix_balance(*args, **kwargs)

        monkeypatch.setattr(delaylyap.propagation, "matrix_balance", counted)
        run(pdde_generate(3, 3).problem)
        assert len(calls) == 1

    def test_balancing_is_exact(self):
        # the pair propagated from T X T under (T^-1 A0 T, T^-1 A1 T) is
        # T Z T to the last bit when T is a diagonal of powers of 2
        p = pdde_generate(5, 5).problem
        T = matrix_balance(p.A0, permute=False, separate=True)[1][0]
        assert set(np.log2(T)) == {-4.0, 0.0}
        scale = np.outer(1.0 / T, T)
        X = np.random.default_rng(14).standard_normal((p.n, p.n))
        plan = plan_propagations(p.A0, p.A1, p.tau)[0]
        res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=plan)
        bal = rk4_propagate(p.A0 * scale, p.A1 * scale, X * np.outer(T, T), p.tau, plan=plan)
        for got, want in ((bal.Z1_end, res.Z1_end), (bal.Z2_end, res.Z2_end)):
            assert np.array_equal(got, want * np.outer(T, T))

    @pytest.mark.parametrize("steps, ok", [(MAX_PLAN_TERMS // 4, True),
                                           (MAX_PLAN_TERMS // 4 + 1, False)])
    def test_fixed_steps_share_the_cap(self, steps, ok):
        cfg = OdeConfig(steps=steps)
        if ok:
            assert plan_propagations(np.eye(2), np.eye(2), 1.0, cfg)[0].rhs_evals == MAX_PLAN_TERMS
        else:
            with pytest.raises(SolverError, match="plan-too-large"):
                plan_propagations(np.eye(2), np.eye(2), 1.0, cfg)[0]


class TestKrylovPlan:
    @pytest.mark.parametrize("m, exact53, exact24", [
        (1, 2.220e-16, 1.192e-7), (8, 0.0499, 0.580),
        (10, 0.144, 0.995), (20, 1.438, 3.551), (30, 3.540, 6.321), (40, 5.969, 9.131),
        (45, 7.245, 10.539), (55, 9.867, 13.359),
    ])
    def test_theta_tables_match_exact_arithmetic(self, m, exact53, exact24):
        theta53, theta24 = exact_thetas(m, (2.0 ** -53, 2.0 ** -24))
        assert theta53 == pytest.approx(exact53, abs=5e-4)
        assert theta24 == pytest.approx(exact24, abs=5e-4)
        # both tables round down, so each value stays a valid bound
        assert TAYLOR_THETA[m] == pytest.approx(theta53, rel=0.01)
        assert KRYLOV_THETA[m] == pytest.approx(theta24, rel=0.01)
        assert TAYLOR_THETA[m] <= theta53
        assert KRYLOV_THETA[m] <= theta24

    def test_krylov_table_is_never_below_the_double_precision_one(self):
        assert KRYLOV_THETA.keys() == TAYLOR_THETA.keys()
        assert all(KRYLOV_THETA[m] >= TAYLOR_THETA[m] for m in TAYLOR_THETA)

    @pytest.mark.parametrize("A0, A1, tau", POWER_BOUND_CASES, ids=POWER_BOUND_IDS)
    def test_plans_from_one_set_of_bounds(self, A0, A1, tau):
        # the Krylov plan, read off the bounds of the 2^-53 plan, meets the
        # 2^-24 condition of Al-Mohy & Higham and never runs more terms
        plan, krylov_plan = plan_propagations(A0, A1, tau)
        assert krylov_plan.rhs_evals <= plan.rhs_evals
        d = dense_power_norms(*_planning_coordinates(A0, A1)[1:], 0.5 * tau)
        budget = krylov_plan.steps * KRYLOV_THETA[krylov_plan.degree]
        assert any(max(d[p - 1], d[p]) <= budget
                   for p in range(1, MAX_POWER + 1) if p * (p - 1) <= krylov_plan.degree + 1)

    @pytest.mark.parametrize("A0, cfg, want", [
        (np.eye(2), OdeConfig(steps=7), (4, 7)),
        (np.zeros((2, 2)), None, (0, 1)),
    ], ids=["steps-7", "zero-generator"])
    def test_one_plan_for_both(self, A0, cfg, want):
        plan = PropagationPlan(*want)
        assert plan_propagations(A0, np.zeros((2, 2)), 1.0, cfg) == (plan, plan)

    @pytest.mark.parametrize("which, gate", [(0, 1e-12), (1, 1e-10)], ids=["plan", "krylov-plan"])
    def test_matches_sparse_reference_above_the_dense_cap(self, which, gate):
        # PDDE 7x7, n = 98: expm_multiply on the unbalanced sparse
        # generator, which shares no code with delaylyap, measures 4.5e-15
        # on the 2^-53 plan and 3.3e-13 on the 2^-24 one
        p = pdde_generate(7, 7).problem
        n = p.n
        X = np.random.default_rng(98).standard_normal((n, n))
        state = np.concatenate([X.ravel(order="F"), X.ravel(order="C")])  # [vec X; vec X^T]
        out = expm_multiply((0.5 * p.tau) * sparse_generator(p.A0, p.A1), state)
        want = np.stack((out[: n * n].reshape((n, n), order="F"),
                         out[n * n:].reshape((n, n), order="F").T))
        plan = plan_propagations(p.A0, p.A1, p.tau)[which]
        res = rk4_propagate(p.A0, p.A1, X, p.tau, plan=plan)
        got = np.stack((res.Z1_end, res.Z2_end))
        assert np.linalg.norm(got - want) <= gate * np.linalg.norm(want)


class TestExactPropagate:
    def test_zero_initial_value(self):
        res = exact_propagate(np.eye(3), np.eye(3), np.zeros((3, 3)), 1.0)
        assert not res.Z1_end.any() and not res.Z2_end.any()

    def test_zero_generator(self):
        X = np.arange(9.0).reshape(3, 3)
        res = exact_propagate(np.zeros((3, 3)), np.zeros((3, 3)), X, 2.0)
        assert_allclose(res.Z1_end, X, atol=1e-14)
        assert_allclose(res.Z2_end, X, atol=1e-14)

    @pytest.mark.parametrize("alpha, code", [(1e4, "exp-overflow"), (1e8, "plan-too-large")])
    def test_refuses_as_the_propagation_does(self, alpha, code):
        # unguarded, expm_multiply returned a non-finite pair with no warning
        # at alpha = 1e4 and ran for more than 20 s at 1e8
        p = small_example(alpha).problem
        with pytest.raises(SolverError) as err:
            exact_propagate(p.A0, p.A1, np.eye(p.n), p.tau)
        assert err.value.code == code

    def test_leaves_global_rng_alone(self):
        # unbalanced, PDDE 7x7's ||tG||_1 is above 63.4, where SciPy's
        # expm_multiply estimates norms with onenormest and np.random
        p = pdde_generate(7, 7).problem
        X = np.random.default_rng(7).standard_normal((p.n, p.n))
        np.random.seed(1)
        before = np.random.get_state()
        exact_propagate(p.A0, p.A1, X, p.tau)
        after = np.random.get_state()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_closed_form_when_decoupled(self):
        # A1 = 0: Z1 = X expm(tau A0 / 2) and Z2 = X expm(-tau A0 / 2)
        rng = np.random.default_rng(3)
        A0, X = rng.standard_normal((2, 4, 4))
        res = exact_propagate(A0, np.zeros((4, 4)), X, 1.0)
        for got, want in ((res.Z1_end, X @ expm(0.5 * A0)), (res.Z2_end, X @ expm(-0.5 * A0))):
            assert frobenius(got - want) <= 1e-13 * frobenius(want)

    def test_above_the_former_dense_cap(self):
        rng = np.random.default_rng(13)
        p = random_stable_problem(13, rng)
        X = rng.standard_normal((13, 13))
        exact = exact_propagate(p.A0, p.A1, X, p.tau)
        res = rk4_propagate(p.A0, p.A1, X, p.tau)
        for got, want in ((res.Z1_end, exact.Z1_end), (res.Z2_end, exact.Z2_end)):
            assert frobenius(got - want) <= 1e-12 * frobenius(want)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("propagate", [
    lambda I, tau: rk4_propagate(I, I, I, tau),
    lambda I, tau: plan_propagations(I, I, tau),
    lambda I, tau: exact_propagate(I, I, I, tau),
    lambda I, tau: TdsProblem(A0=I, A1=I, tau=tau, W=I),
], ids=["rk4_propagate", "plan_propagations", "exact_propagate", "TdsProblem"])
def test_malformed_tau_rejected(propagate, tau):
    # a NaN or infinite tau is malformed input, not an exp-overflow
    with pytest.raises(ValueError, match=r"^tau must be finite and >= 0$"):
        propagate(np.eye(2), tau)


def test_generator_norm_bound():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A0 = rng.standard_normal((n, n))
        A1 = rng.standard_normal((n, n))
        lhs = np.linalg.norm(sparse_generator(A0, A1).toarray(), 2)
        assert lhs <= 2.0 * (np.linalg.norm(A0, 2) + np.linalg.norm(A1, 2)) * (1 + 1e-8)
