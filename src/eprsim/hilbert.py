"""Truncated Fock-space linear algebra for the two motional modes.

Everything downstream (dissipative dynamics, entangled-state construction,
Bell correlators) is built on the small set of value types defined here:
a truncated number-state basis, pure states and density matrices.
Operators are not a type of their own: the master equation builds its
sparse ladder operators in :mod:`eprsim.lindblad`, and the Bell and
Wigner routines their single-mode displaced parities in
:mod:`eprsim.states`.  All values are immutable after construction and
all operations are pure functions, so they are safe to use concurrently.
The package's error and warning types live here too, so every layer can
raise them without importing scipy.

A :class:`DensityMatrix` stores one sparse CSR matrix of its nonzero
entries: the states eprsim solves for live in the delta = 0 sector, about
``n_max**3`` of the ``n_max**4`` entries, and a pure state's density
matrix is the outer product on its amplitude support.  Every routine here
works on the stored entries; ``DensityMatrix.elements`` builds the dense
d x d array on request (d**2 complex values) and no library path reads it.
scipy is imported inside the routines that need it, so importing this
module loads numpy only.

Conventions
-----------
* Every basis is two-mode: the paper's object is one pair of modes.  A
  basis with ``n_max`` keeps number states ``0 .. n_max - 1`` per mode.
* Modes are indexed 0 and 1.  The composite index is row-major over
  ``(m0, m1)`` with the mode-0 index varying slowest, i.e.
  ``index = m0 * n_max + m1`` (the ``numpy.kron`` convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


class NumericalError(RuntimeError):
    """A solver failed to reach its accuracy contract."""


class TruncationWarning(UserWarning):
    """State has significant population near the truncation edge."""


@dataclass(frozen=True)
class FockBasis:
    """Truncated number-state basis of the two modes.

    ``n_max`` is the number of retained Fock states per mode (states
    ``|0> .. |n_max-1>``), so the composite dimension is ``n_max ** 2``.
    """

    n_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def dimension(self) -> int:
        return self.n_max**2


@dataclass(frozen=True)
class PureState:
    """State vector over a :class:`FockBasis` (amplitudes in the number basis)."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude length {amp.shape} does not match basis dimension "
                f"{self.basis.dimension}"
            )
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.basis, self.amplitudes / n)

    def density_matrix(self) -> "DensityMatrix":
        """``|psi><psi|`` of the normalized state, stored on its amplitude support."""
        import scipy.sparse as sp

        psi = self.normalized().amplitudes
        idx = np.flatnonzero(psi)
        block = np.outer(psi[idx], psi[idx].conj())
        rows, cols = np.repeat(idx, len(idx)), np.tile(idx, len(idx))
        d = self.basis.dimension
        return DensityMatrix(self.basis, sp.csr_matrix((block.ravel(), (rows, cols)), (d, d)))


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator on a :class:`FockBasis`, stored as a sparse matrix.

    ``matrix`` may be given as a dense array or as a scipy sparse matrix;
    it is kept as a complex CSR matrix of the nonzero entries (canonical:
    sorted indices, no duplicates, no explicit zeros).  :attr:`elements`
    builds the dense array on request.

    Construction checks the shape only, not Hermiticity, unit trace or
    positivity; the tests check the solvers' states against a dense
    reference.
    """

    basis: FockBasis
    matrix: Any

    def __post_init__(self):
        import scipy.sparse as sp

        d = self.basis.dimension
        mat = self.matrix if sp.issparse(self.matrix) else np.asarray(self.matrix)
        if mat.shape != (d, d):
            raise ValueError(
                f"density matrix shape {mat.shape} does not match basis dimension {d}"
            )
        mat = sp.csr_matrix(mat, dtype=complex, copy=True)
        mat.sum_duplicates()
        mat.eliminate_zeros()
        object.__setattr__(self, "matrix", mat)

    @property
    def elements(self) -> np.ndarray:
        """The dense d x d array; allocates d**2 complex values on each call."""
        return self.matrix.toarray()

    def trace(self) -> complex:
        return complex(self.matrix.diagonal().sum())

    def normalized(self) -> "DensityMatrix":
        tr = self.trace().real
        if tr <= 0:
            raise ValueError(f"trace must be positive to normalize, got {tr}")
        return DensityMatrix(self.basis, self.matrix / tr)


def _expm(mat: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(mat)``; scipy.linalg is loaded on the first call."""
    from scipy.linalg import expm

    return expm(mat)


def _single_mode_ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max)), k=1).astype(complex)


def vacuum_state(basis: FockBasis) -> PureState:
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[0] = 1.0
    return PureState(basis, amp)
