import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    KrylovConfig,
    OdeConfig,
    SolverError,
    bench_table,
    pdde_generate,
    small_example,
)


class TestSmallExample:
    def test_exact_entries(self):
        p = small_example(1.0).problem
        assert p.A0[0, 0] == -26.0
        assert p.A0[3, 3] == -9.0
        assert p.A0[0, 1] == 22.0
        assert_allclose(p.A1, np.diag([-1.0, -0.5, 0.0, 0.5]), atol=0)
        assert_allclose(p.W, np.eye(4), atol=0)
        assert p.tau == 1.0

    def test_zero_coupling(self):
        assert not small_example(0.0).problem.A1.any()

    def test_scaling(self):
        assert_allclose(small_example(2.5).problem.A1,
                        2.5 * np.diag([-1.0, -0.5, 0.0, 0.5]), atol=0)


class TestPddeGenerate:
    def test_dimensions(self):
        assert pdde_generate(5, 5).n == 50
        assert pdde_generate(23, 23).n == 1058

    def test_single_interior_point_laplacian(self):
        system = pdde_generate(1, 1)
        # hx = 1/2, so the 1x1 second-difference block is -2/hx^2 = -8
        assert system.problem.A0[1, 0] == -8.0 - 8.0  # I (x) Dxx + Dyy (x) I

    def test_block_structure(self):
        system = pdde_generate(3, 5)
        p = system.problem
        m = 15
        assert not p.A0[:m, :m].any()
        assert_allclose(p.A0[:m, m:], np.eye(m), atol=0)
        assert_allclose(p.A0[m:, m:], -np.eye(m), atol=0)
        assert not p.A1[:m, :].any()
        assert not p.A1[:, m:].any()

    def test_laplacian_symmetric_negative_definite(self):
        for nx, ny in ((3, 3), (7, 5), (11, 11)):
            system = pdde_generate(nx, ny)
            m = nx * ny
            lap = system.problem.A0[m:, :m]
            assert_allclose(lap, lap.T, atol=0)
            assert np.linalg.eigvalsh(lap).max() < 0

    def test_derivative_block_antisymmetric(self):
        # the unscaled centered-difference stencil is exactly antisymmetric
        from delaylyap.problems import tridiag

        Dx = tridiag(7, -1.0, 0.0, 1.0)
        assert_allclose(Dx + Dx.T, np.zeros((7, 7)), atol=0)

    def test_observation_and_input_maps(self):
        system = pdde_generate(5, 5)
        p = system.problem
        C0 = p.C0
        assert C0.shape == (1, 50)
        assert C0.sum() == 1.0
        assert C0[0, 2 * 5 + 2] == 1.0  # center of the 5x5 interior grid
        assert_allclose(p.W, C0.T @ C0, atol=0)
        assert np.linalg.matrix_rank(p.W) == 1
        assert p.B0[:25].sum() == 25.0 and not p.B0[25:].any()

    def test_even_grid_rejected(self):
        with pytest.raises(SolverError) as err:
            pdde_generate(4, 5)
        assert err.value.code == "grid-center-undefined"

    def test_norm_magnitudes_at_fine_grid(self):
        system = pdde_generate(23, 23)
        a0 = np.linalg.norm(system.problem.A0, 2)
        a1 = np.linalg.norm(system.problem.A1, 2)
        assert abs(a0 - 5000.0) <= 0.2 * 5000.0
        assert abs(a1 - 100.0) <= 0.2 * 100.0


class TestBenchTable:
    def test_exact_preconditioner_limit(self):
        rows = bench_table([(5, 5)], f0=0.0, ode=OdeConfig(steps=500),
                           krylov=KrylovConfig(tol=1e-6, maxit=100))
        assert rows[0]["n"] == 50
        assert rows[0]["iterations"] == 1
        assert rows[0]["error"] == ""
        assert rows[0]["r_alg"] <= 1e-8

    def test_failures_recorded_not_raised(self):
        rows = bench_table([(4, 4), (3, 3)], f0=0.0,
                           ode=OdeConfig(steps=50),
                           krylov=KrylovConfig(tol=1e-6, maxit=50))
        assert rows[0]["error"] == "grid-center-undefined"
        assert rows[1]["error"] == ""
