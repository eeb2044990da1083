"""The numpy eigensolver backend: selection and LAPACK failure reporting."""

import numpy as np
import pytest

from sledist import EigensolverError, get_backend


def test_numpy_backend_always_available():
    assert get_backend().name == "numpy"
    assert get_backend("numpy") is get_backend()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("fortran")


def test_lapack_failure_wrapped(monkeypatch):
    def boom(mats):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    with pytest.raises(EigensolverError, match="LAPACK"):
        get_backend("numpy").eigvalsh_batch(np.zeros((1, 2, 2), dtype=np.complex128))
