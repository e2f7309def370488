"""Truncated Fock-space linear algebra for one and two bosonic modes.

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
* A basis with ``n_max`` keeps number states ``0 .. n_max - 1`` per mode.
* Modes are indexed 0 and 1.  For two modes the composite index is
  row-major over ``(m0, m1)`` with the mode-0 index varying slowest,
  i.e. ``index = m0 * n_max + m1`` (the ``numpy.kron`` convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

# Default tolerances; every checking routine accepts overrides.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_ATOL = 1e-8
NORM_ATOL = 1e-12


class NumericalError(RuntimeError):
    """A solver failed to reach its accuracy contract."""


class TruncationWarning(UserWarning):
    """State has significant population near the truncation edge."""


@dataclass(frozen=True)
class FockBasis:
    """Truncated number-state basis for ``n_modes`` bosonic modes.

    ``n_max`` is the number of retained Fock states per mode (states
    ``|0> .. |n_max-1>``), so the composite dimension is
    ``n_max ** n_modes``.
    """

    n_max: int
    n_modes: int = 1

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        if self.n_modes not in (1, 2):
            raise ValueError(f"n_modes must be 1 or 2, got {self.n_modes}")

    @property
    def dimension(self) -> int:
        return self.n_max**self.n_modes


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

    Construction does not validate the quantum-state conditions (solvers
    produce intermediate values with small violations); call
    :meth:`validate` to enforce Hermiticity, unit trace and positivity
    within tolerances.
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

    def validate(
        self,
        herm_atol: float = HERMITICITY_ATOL,
        trace_atol: float = TRACE_ATOL,
        eig_atol: float = EIGENVALUE_ATOL,
    ) -> "DensityMatrix":
        """Check Hermiticity / trace / positivity; return self for chaining.

        The eigenvalues are those of the blocks of the Hermitian part that
        the stored pattern connects (a delta = 0 state splits into blocks
        of at most ``n_max`` rows); rows with no stored entry add zeros.
        """
        from scipy.sparse.csgraph import connected_components

        mat = self.matrix
        herm_dev = abs(mat - mat.conj().T).max()
        if herm_dev > herm_atol:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        tr_dev = abs(self.trace() - 1.0)
        if tr_dev > trace_atol:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        herm = (mat + mat.conj().T) / 2.0
        _, label = connected_components(abs(herm), directed=False)
        rows = np.flatnonzero(np.diff(herm.indptr))
        rows = rows[np.argsort(label[rows], kind="stable")]
        cuts = np.flatnonzero(np.diff(label[rows])) + 1
        herm = herm[rows][:, rows]
        lowest = min(
            (np.linalg.eigvalsh(herm[a:b, a:b].toarray())[0]
             for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(rows)])),
            default=0.0,
        )
        if lowest < -eig_atol:
            raise ValueError(f"negative eigenvalue {lowest:.3e}")
        return self


def _expm(mat: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(mat)``; scipy.linalg is loaded on the first call."""
    from scipy.linalg import expm

    return expm(mat)


def _single_mode_ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max)), k=1).astype(complex)


def partial_trace(rho: DensityMatrix, keep_mode: int) -> DensityMatrix:
    """Trace out one mode of a two-mode density matrix.

    ``keep_mode`` 0 keeps the first (slow-index) mode, 1 the second.
    """
    if rho.basis.n_modes != 2:
        raise ValueError("partial_trace requires a two-mode density matrix")
    if keep_mode not in (0, 1):
        raise ValueError(f"keep_mode must be 0 or 1, got {keep_mode}")
    import scipy.sparse as sp

    n = rho.basis.n_max
    coo = rho.matrix.tocoo()
    m0, m1 = np.divmod(coo.row, n)
    n0, n1 = np.divmod(coo.col, n)
    if keep_mode == 0:
        keep, rows, cols = m1 == n1, m0, n0
    else:
        keep, rows, cols = m0 == n0, m1, n1
    reduced = sp.csr_matrix((coo.data[keep], (rows[keep], cols[keep])), (n, n))
    return DensityMatrix(FockBasis(n, 1), reduced)


def vacuum_state(basis: FockBasis) -> PureState:
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[0] = 1.0
    return PureState(basis, amp)


def recommended_n_max(r: float) -> int:
    """Suggested truncation for squeeze parameter ``r``.

    Returns ``ceil(8*sinh(r)**2 + 10)``, sized so the geometric
    population tail ``tanh(r)**(2*n_max)`` of a two-mode squeezed state
    beyond the truncation is negligible for most purposes (about 1e-5
    at r ~ 1, falling rapidly for larger margins).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    return max(2, math.ceil(8.0 * math.sinh(r) ** 2 + 10.0))
