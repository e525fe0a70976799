import pytest


@pytest.fixture
def krylov_route(monkeypatch):
    """Solve by preconditioned Krylov at every n, as above ``DIRECT_MAX_N``.

    The 4x4 example and the other small problems take the LU route by
    default; the tests of the Krylov solve, its refinement and its error
    codes run them here.
    """
    import delaylyap.solver

    monkeypatch.setattr(delaylyap.solver, "DIRECT_MAX_N", 0)
