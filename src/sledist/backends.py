"""The batched Hermitian eigensolver behind the Monte Carlo sampler.

One backend exists: numpy's LAPACK ``eigvalsh``, with a LAPACK failure
wrapped in :class:`EigensolverError`, which is defined in the numpy-free
``coefficients`` module and re-exported here.  ``sle_statistic`` looks it up
through ``get_backend`` on every call, so the benchmark's tracer can
substitute a timed copy of the :class:`Backend` dataclass.  The sampler's
forked helper process makes its calls in its own copy of the interpreter, so
an in-process tracer sees only the blocks that the calling process solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import EigensolverError

__all__ = ["Backend", "EigensolverError", "get_backend"]


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
