"""Truncated Fock-space linear algebra for the two motional modes.

Everything downstream (dissipative dynamics, entangled-state construction,
Bell correlators) is built on the two value types defined here: a
truncated number-state basis and the one state type, a density matrix.
Operators are not a type of their own: the master equation builds its
ladder monomials in :mod:`eprsim.lindblad`, and the Bell and Wigner
routines their single-mode displaced parities in :mod:`eprsim.states`.
All values are immutable after construction and all operations are pure
functions, so they are safe to use concurrently.  The package's error
and warning types are defined in :mod:`eprsim.errors`, which imports
nothing, and re-exported here for the numpy layers.

A :class:`DensityMatrix` stores its nonzero entries as two plain fields:
the sorted flat keys ``row * d + col`` and their complex values.  The
states eprsim solves for live in the delta = 0 sector, about ``n_max**3``
of the ``n_max**4`` entries, and a pure state (the two-mode squeezed
vacuum, the vacuum) is the outer product on its amplitude support.  Every
routine reads those two arrays, finding entries by :func:`_lookup` (a
``searchsorted`` on the keys); ``DensityMatrix.elements`` builds the
dense d x d array on request (d**2 complex values) and no library path
reads it.  The module needs numpy only.

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

import numpy as np

from .errors import NumericalError, TruncationWarning  # re-exported for the numpy layers


@dataclass(frozen=True)
class FockBasis:
    """Truncated number-state basis of the two modes.

    ``n_max`` is the number of retained Fock states per mode (states
    ``|0> .. |n_max-1>``), so the composite dimension is ``n_max ** 2``;
    the flat keys ``row * d + col`` of its states, up to n_max**4, are int64.
    """

    n_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        if int(self.n_max) ** 4 >= 2**63:
            raise ValueError(f"n_max must be below 55109 for int64 keys, got {self.n_max}")

    @property
    def dimension(self) -> int:
        return self.n_max**2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density operator on a :class:`FockBasis`, stored by its nonzero entries.

    ``keys`` are flat indices ``row * d + col`` and ``values`` their complex
    values.  Construction sorts the keys, sums the values of repeated keys,
    drops zeros and checks that every key lies in the d x d matrix, so a
    state holds each nonzero entry once, in key order.  Both arrays are
    the state's own copies and read-only, so a state cannot change after
    construction.  :attr:`elements` builds the dense array on request.  A
    pure state is the outer product of its amplitudes on their support.

    Construction does not check Hermiticity, unit trace or positivity; the
    tests check the solvers' states against a dense reference.  Equality is identity.
    """

    basis: FockBasis
    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        d = self.basis.dimension
        keys = np.asarray(self.keys, dtype=np.int64).ravel()
        given = np.asarray(self.values, dtype=complex).ravel()
        if keys.shape != given.shape:
            raise ValueError(f"{len(given)} values do not match {len(keys)} keys")
        keys, inverse = np.unique(keys, return_inverse=True)
        values = np.zeros(len(keys), dtype=complex)
        np.add.at(values, inverse, given)
        if len(keys) and not 0 <= keys[0] <= keys[-1] < d * d:
            raise ValueError(f"density matrix keys must lie in [0, {d * d})")
        nonzero = values != 0
        for name, arr in (("keys", keys[nonzero]), ("values", values[nonzero])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def elements(self) -> np.ndarray:
        """The dense d x d array; allocates d**2 complex values on each call."""
        d = self.basis.dimension
        out = np.zeros(d * d, dtype=complex)
        out[self.keys] = self.values
        return out.reshape(d, d)


def _lookup(keys, values, wanted, absent=-1) -> np.ndarray:
    """``values`` at the position of each ``wanted`` in the sorted ``keys`` (``absent`` if none)."""
    if len(keys) == 0:
        return np.full(np.shape(wanted), absent)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, values[at], absent)


def vacuum_state(basis: FockBasis) -> DensityMatrix:
    """``|00><00|``."""
    return DensityMatrix(basis, [0], [1.0])
