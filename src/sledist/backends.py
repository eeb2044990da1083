"""The batched Hermitian eigensolver behind the Monte Carlo sampler.

One backend exists: numpy's LAPACK ``eigvalsh``.  ``get_backend`` returns it
as a small object so callers can pass it around, and wraps a LAPACK failure
in :class:`EigensolverError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Backend", "EigensolverError", "get_backend"]


class EigensolverError(Exception):
    """An eigenvalue computation failed to converge; carries diagnostics."""


@dataclass(frozen=True)
class Backend:
    name: str
    eigvalsh_batch: Callable[[np.ndarray], np.ndarray]


def _eigvalsh_batch(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a batch of Hermitian matrices via LAPACK."""
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigvalsh failed on a batch of shape {mats.shape}: {exc}") from exc


_NUMPY = Backend(name="numpy", eigvalsh_batch=_eigvalsh_batch)


def get_backend(name: str | None = None) -> Backend:
    """The numpy backend, by default or by its name."""
    if name is None or name == "numpy":
        return _NUMPY
    raise ValueError(f"unknown backend {name!r}; expected numpy")
