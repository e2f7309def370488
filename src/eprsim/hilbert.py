"""Truncated Fock-space linear algebra for the two motional modes.

Everything downstream (dissipative dynamics, entangled-state construction,
Bell correlators) is built on the small set of value types defined here:
a truncated number-state basis, pure states and density matrices.
Operators are not a type of their own: the master equation builds its
ladder monomials in :mod:`eprsim.lindblad`, and the Bell and Wigner
routines their single-mode displaced parities in :mod:`eprsim.states`.
All values are immutable after construction and all operations are pure
functions, so they are safe to use concurrently.  The package's error
and warning types live here too, so every layer can raise them without
importing scipy.

A :class:`DensityMatrix` stores its nonzero entries as two arrays: the
sorted flat keys ``row * d + col`` and their complex values.  The states
eprsim solves for live in the delta = 0 sector, about ``n_max**3`` of the
``n_max**4`` entries, and a pure state's density matrix is the outer
product on its amplitude support.  Every routine reads those two arrays,
finding entries by :func:`_lookup` (a ``searchsorted`` on the keys);
``DensityMatrix.elements`` builds the dense d x d array on request (d**2
complex values) and no library path reads it.  The module needs numpy
only: scipy is loaded by the first :func:`_expm` call.

Conventions
-----------
* Every basis is two-mode: the paper's object is one pair of modes.  A
  basis with ``n_max`` keeps number states ``0 .. n_max - 1`` per mode.
* Modes are indexed 0 and 1.  The composite index is row-major over
  ``(m0, m1)`` with the mode-0 index varying slowest, i.e.
  ``index = m0 * n_max + m1`` (the ``numpy.kron`` convention).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

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
        psi = self.normalized().amplitudes
        idx = np.flatnonzero(psi)
        keys = idx[:, None] * self.basis.dimension + idx
        return DensityMatrix(self.basis, (keys, np.outer(psi[idx], psi[idx].conj())))


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator on a :class:`FockBasis`, stored by its nonzero entries.

    ``matrix`` is a dense d x d array or a pair ``(keys, values)`` of flat
    indices ``row * d + col`` and their values, repeated keys summed.
    Either way the state keeps two arrays: ``keys``, the sorted flat
    indices of its nonzero entries, and ``values``, their complex values.
    :attr:`elements` builds the dense array on request.

    Construction checks the shape only, not Hermiticity, unit trace or
    positivity; the tests check the solvers' states against a dense
    reference.
    """

    basis: FockBasis
    matrix: InitVar[object]
    keys: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self, matrix):
        d = self.basis.dimension
        if isinstance(matrix, tuple):
            keys, inverse = np.unique(np.asarray(matrix[0], dtype=np.int64).ravel(),
                                      return_inverse=True)
            values = np.zeros(len(keys), dtype=complex)
            np.add.at(values, inverse, np.asarray(matrix[1], dtype=complex).ravel())
            if len(keys) and not 0 <= keys[0] <= keys[-1] < d * d:
                raise ValueError(f"density matrix keys must lie in [0, {d * d})")
        else:
            dense = np.asarray(matrix, dtype=complex)
            if dense.shape != (d, d):
                raise ValueError(
                    f"density matrix shape {dense.shape} does not match basis dimension {d}"
                )
            keys = np.flatnonzero(dense)
            values = dense.ravel()[keys]
        nonzero = values != 0
        object.__setattr__(self, "keys", keys[nonzero])
        object.__setattr__(self, "values", values[nonzero])

    @property
    def elements(self) -> np.ndarray:
        """The dense d x d array; allocates d**2 complex values on each call."""
        d = self.basis.dimension
        out = np.zeros(d * d, dtype=complex)
        out[self.keys] = self.values
        return out.reshape(d, d)

    def trace(self) -> complex:
        on_diagonal = self.keys % (self.basis.dimension + 1) == 0  # row * d + row
        return complex(self.values[on_diagonal].sum())

    def normalized(self) -> "DensityMatrix":
        tr = self.trace().real
        if tr <= 0:
            raise ValueError(f"trace must be positive to normalize, got {tr}")
        return DensityMatrix(self.basis, (self.keys, self.values / tr))


def _lookup(keys, values, wanted, absent=-1) -> np.ndarray:
    """``values`` at the position of each ``wanted`` in the sorted ``keys`` (``absent`` if none)."""
    if len(keys) == 0:
        return np.full(np.shape(wanted), absent)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, values[at], absent)


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
