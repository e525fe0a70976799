import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delaylyap
from delaylyap import SolverError, read_matrix, write_matrix


def test_real_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3)) * np.exp(rng.uniform(-20, 20, (5, 3)))
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    assert np.array_equal(read_matrix(path), A)


def test_complex_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "c.mtx"
    write_matrix(path, A)
    assert np.array_equal(read_matrix(path), A)


def test_header_is_array_general(tmp_path):
    path = tmp_path / "h.mtx"
    W = np.eye(3)  # symmetric on purpose: the header must still say general
    write_matrix(path, W)
    header = path.read_text().splitlines()[0].lower()
    assert "array" in header
    assert "real" in header
    assert "general" in header


def test_vector_written_as_column(tmp_path):
    path = tmp_path / "v.mtx"
    write_matrix(path, np.array([1.0, 2.0, 3.0]))
    assert read_matrix(path).shape == (3, 1)


@pytest.mark.parametrize("shape", [(), (2, 2, 2)], ids=["scalar", "3-d"])
def test_non_matrix_write_rejected(shape, tmp_path):
    path = tmp_path / "bad.mtx"
    with pytest.raises(ValueError, match=f"expected a matrix, got array of ndim {len(shape)}"):
        write_matrix(path, np.zeros(shape))
    assert not path.exists()


def test_non_finite_write_rejected(tmp_path):
    A = np.array([[1.0, np.nan]])
    with pytest.raises(SolverError) as err:
        write_matrix(tmp_path / "bad.mtx", A)
    assert err.value.code == "matrix-not-finite"


def test_non_finite_read_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 1\n1.0\nnan\n"
    )
    with pytest.raises(SolverError) as err:
        read_matrix(path)
    assert err.value.code == "matrix-not-finite"


@pytest.mark.parametrize("size", ["0 0", "0 3", "3 0"])
def test_zero_dimension_read_rejected(size, tmp_path):
    # coordinate files only: mmread of a 0 x 0 array file dies of SIGFPE,
    # which tests/test_cli.py runs in a subprocess
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size} 0\n")
    with pytest.raises(ValueError, match="a matrix needs at least one entry"):
        read_matrix(path)


def test_coordinate_file_read_dense(tmp_path):
    path = tmp_path / "coo.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -2.0\n"
    )
    A = read_matrix(path)
    assert type(A) is np.ndarray
    assert np.array_equal(A, np.diag([1.5, -2.0]))


def test_complex_file_with_zero_imaginary_parts_read_real(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n2 1\n1.0 0.0\n-2.5 0.0\n"
    )
    A = read_matrix(path)
    assert not np.iscomplexobj(A)
    assert np.array_equal(A, [[1.0], [-2.5]])


def test_import_leaves_scipy_io_out(tmp_path):
    # scipy.io costs about 20 ms of `import delaylyap`; only the Matrix
    # Market functions need it, and they import it on first use
    script = (
        "import sys, numpy, delaylyap\n"
        "assert 'scipy.io' not in sys.modules, 'import delaylyap loaded scipy.io'\n"
        "A = numpy.arange(6.0).reshape(2, 3)\n"
        "delaylyap.write_matrix(sys.argv[1], A)\n"
        "assert numpy.array_equal(delaylyap.read_matrix(sys.argv[1]), A)\n"
        "assert 'scipy.io' in sys.modules\n"
    )
    src = str(Path(delaylyap.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "a.mtx")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
