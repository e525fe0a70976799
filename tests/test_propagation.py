import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    OdeConfig,
    PropagationPlan,
    SolverError,
    coupled_generator,
    coupled_rhs,
    exact_propagate,
    expm,
    frobenius,
    pdde_generate,
    plan_propagation,
    rk4_propagate,
    small_example,
)
from delaylyap.propagation import _generator_operator
from helpers import random_stable_problem


class TestCoupledRhs:
    def test_zero_state(self):
        A = np.ones((3, 3))
        G1, G2 = coupled_rhs(np.zeros((3, 3)), np.zeros((3, 3)), A, A)
        assert not G1.any() and not G2.any()

    def test_decoupled_when_no_delay_term(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 3))
        A0 = rng.standard_normal((3, 3))
        G1, G2 = coupled_rhs(X, X, A0, np.zeros((3, 3)))
        assert_allclose(G1, X @ A0, atol=0)
        assert_allclose(G2, -X @ A0, atol=0)

    def test_entrywise_formula(self):
        rng = np.random.default_rng(1)
        Z1, Z2, A0, A1 = (rng.standard_normal((3, 3)) for _ in range(4))
        G1, G2 = coupled_rhs(Z1, Z2, A0, A1)
        for i in range(3):
            for j in range(3):
                g1 = sum(Z1[i, k] * A0[k, j] + Z2[k, i] * A1[k, j] for k in range(3))
                g2 = -sum(Z1[k, i] * A1[k, j] + Z2[i, k] * A0[k, j] for k in range(3))
                assert abs(G1[i, j] - g1) <= 1e-13
                assert abs(G2[i, j] - g2) <= 1e-13

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            coupled_rhs(np.eye(2), np.eye(3), np.eye(3), np.eye(3))


class TestRk4:
    def test_zero_initial_value(self):
        rng = np.random.default_rng(2)
        A0 = rng.standard_normal((4, 4))
        res = rk4_propagate(A0, A0, np.zeros((4, 4)), 1.0, OdeConfig(steps=20))
        assert not res.Z1_end.any() and not res.Z2_end.any()

    def test_closed_form_when_decoupled(self):
        rng = np.random.default_rng(3)
        A0 = rng.standard_normal((4, 4))
        X = rng.standard_normal((4, 4))
        tau = 1.0
        ref = X @ expm(-0.5 * tau * A0)
        errs = []
        for steps in (250, 500):
            res = rk4_propagate(A0, np.zeros((4, 4)), X, tau, OdeConfig(steps=steps))
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
            res = rk4_propagate(p.A0, p.A1, X, p.tau, OdeConfig(steps=steps))
            errs.append(frobenius(res.Z1_end - exact.Z1_end)
                        + frobenius(res.Z2_end - exact.Z2_end))
        for a, b in zip(errs, errs[1:]):
            assert a / b >= 2 ** 3 * 0.9

    def test_linearity(self):
        rng = np.random.default_rng(5)
        p = random_stable_problem(4, rng)
        X, Y = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        a, b = 0.7, -1.3
        cfg = OdeConfig(steps=60)
        mix = rk4_propagate(p.A0, p.A1, a * X + b * Y, p.tau, cfg)
        rx = rk4_propagate(p.A0, p.A1, X, p.tau, cfg)
        ry = rk4_propagate(p.A0, p.A1, Y, p.tau, cfg)
        for got, want in ((mix.Z1_end, a * rx.Z1_end + b * ry.Z1_end),
                          (mix.Z2_end, a * rx.Z2_end + b * ry.Z2_end)):
            assert frobenius(got - want) <= 1e-12 * max(frobenius(want), 1e-300)

    def test_tau_zero_returns_initial_value(self):
        X = np.arange(4.0).reshape(2, 2)
        res = rk4_propagate(np.eye(2), np.eye(2), X, 0.0, OdeConfig(steps=5))
        assert np.array_equal(res.Z1_end, X)
        assert np.array_equal(res.Z2_end, X)

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
        assert plan_propagation(np.eye(2), np.eye(2), 1.0, OdeConfig(steps=7)) \
            == PropagationPlan(degree=4, steps=7)

    def test_cost_on_benchmark_problems(self):
        for alpha in (1.0, 5.0):
            p = small_example(alpha).problem
            assert plan_propagation(p.A0, p.A1, p.tau).rhs_evals <= 220
        p = pdde_generate(5, 5).problem
        assert plan_propagation(p.A0, p.A1, p.tau).rhs_evals <= 100

    def test_deterministic_and_leaves_global_rng_alone(self):
        # PDDE 3x3 is large enough in norm that the plan rests on
        # onenormest estimates of ||G^p||, which draw random start vectors
        p = pdde_generate(3, 3).problem
        plans = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            plans.append(plan_propagation(p.A0, p.A1, p.tau))
            after = np.random.get_state()
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert plans[0] == plans[1]

    def test_zero_generator(self):
        X = np.arange(4.0).reshape(2, 2)
        zero = np.zeros((2, 2))
        assert plan_propagation(zero, zero, 1.0).rhs_evals == 0
        res = rk4_propagate(zero, zero, X, 1.0)
        assert np.array_equal(res.Z1_end, X) and np.array_equal(res.Z2_end, X)

    def test_generator_operator_norm_and_adjoint(self):
        rng = np.random.default_rng(12)
        n, t = 3, 0.7
        A0, A1 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        op = _generator_operator(A0, A1, t)
        dense = op.matmat(np.eye(2 * n * n))
        one_norm = t * (np.abs(A0).sum(axis=1).max() + np.abs(A1).sum(axis=1).max())
        assert np.abs(dense).sum(axis=0).max() == pytest.approx(one_norm, rel=1e-14)
        assert_allclose(op.rmatmat(np.eye(2 * n * n)), dense.T, atol=1e-14)


class TestExactPropagate:
    def test_zero_initial_value(self):
        res = exact_propagate(np.eye(3), np.eye(3), np.zeros((3, 3)), 1.0)
        assert not res.Z1_end.any() and not res.Z2_end.any()

    def test_zero_generator(self):
        X = np.arange(9.0).reshape(3, 3)
        res = exact_propagate(np.zeros((3, 3)), np.zeros((3, 3)), X, 2.0)
        assert_allclose(res.Z1_end, X, atol=1e-14)
        assert_allclose(res.Z2_end, X, atol=1e-14)

    def test_cap(self):
        n = 13
        with pytest.raises(SolverError) as err:
            exact_propagate(np.eye(n), np.eye(n), np.eye(n), 1.0)
        assert err.value.code == "oracle-too-large"


def test_generator_norm_bound():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A0 = rng.standard_normal((n, n))
        A1 = rng.standard_normal((n, n))
        lhs = np.linalg.norm(coupled_generator(A0, A1), 2)
        assert lhs <= 2.0 * (np.linalg.norm(A0, 2) + np.linalg.norm(A1, 2)) * (1 + 1e-8)
