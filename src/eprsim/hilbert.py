"""Truncated Fock-space linear algebra for one and two bosonic modes.

Everything downstream (dissipative dynamics, entangled-state construction,
Bell correlators) is built on the small set of value types defined here:
a truncated number-state basis, dense operators on it, pure states, and
density matrices.  All values are immutable after construction and all
operations are pure functions, so they are safe to use concurrently.
The package's error and warning types live here too, so every layer can
raise them without importing scipy.

Conventions
-----------
* A basis with ``n_max`` keeps number states ``0 .. n_max - 1`` per mode.
* Modes are indexed 0 and 1.  For two modes the composite index is
  row-major over ``(m0, m1)`` with the mode-0 index varying slowest,
  i.e. ``index = m0 * n_max + m1`` (the ``numpy.kron`` convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _check_same_basis(a, b):
    if a.basis != b.basis:
        raise ValueError(f"basis mismatch: {a.basis} vs {b.basis}")


@dataclass(frozen=True)
class ModeOperator:
    """Dense linear operator on a :class:`FockBasis`."""

    basis: FockBasis
    elements: np.ndarray

    def __post_init__(self):
        d = self.basis.dimension
        el = np.asarray(self.elements, dtype=complex)
        if el.shape != (d, d):
            raise ValueError(
                f"operator shape {el.shape} does not match basis dimension {d}"
            )
        object.__setattr__(self, "elements", el)


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
        psi = self.normalized().amplitudes
        return DensityMatrix(self.basis, np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator on a :class:`FockBasis`.

    Construction does not validate the quantum-state conditions (solvers
    produce intermediate values with small violations); call
    :meth:`validate` to enforce Hermiticity, unit trace and positivity
    within tolerances.
    """

    basis: FockBasis
    elements: np.ndarray

    def __post_init__(self):
        d = self.basis.dimension
        el = np.asarray(self.elements, dtype=complex)
        if el.shape != (d, d):
            raise ValueError(
                f"density matrix shape {el.shape} does not match basis dimension {d}"
            )
        object.__setattr__(self, "elements", el)

    def trace(self) -> complex:
        return complex(np.trace(self.elements))

    def normalized(self) -> "DensityMatrix":
        tr = self.trace().real
        if tr <= 0:
            raise ValueError(f"trace must be positive to normalize, got {tr}")
        return DensityMatrix(self.basis, self.elements / tr)

    def validate(
        self,
        herm_atol: float = HERMITICITY_ATOL,
        trace_atol: float = TRACE_ATOL,
        eig_atol: float = EIGENVALUE_ATOL,
    ) -> "DensityMatrix":
        """Check Hermiticity / trace / positivity; return self for chaining."""
        el = self.elements
        herm_dev = np.max(np.abs(el - el.conj().T))
        if herm_dev > herm_atol:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        tr_dev = abs(self.trace() - 1.0)
        if tr_dev > trace_atol:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        evals = np.linalg.eigvalsh((el + el.conj().T) / 2.0)
        if evals.min() < -eig_atol:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")
        return self


def _single_mode_ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max)), k=1).astype(complex)


def _embed(single: np.ndarray, basis: FockBasis, mode_index: int) -> np.ndarray:
    """Tensor-embed a single-mode matrix on the designated mode."""
    if basis.n_modes == 1:
        return single
    eye = np.eye(basis.n_max, dtype=complex)
    if mode_index == 0:
        return np.kron(single, eye)
    return np.kron(eye, single)


def annihilation_op(basis: FockBasis, mode_index: int = 0) -> ModeOperator:
    """Truncated annihilation operator ``b`` acting on ``mode_index``.

    Matrix elements ``<m-1|b|m> = sqrt(m)``; identity on the other mode.
    """
    if not 0 <= mode_index < basis.n_modes:
        raise ValueError(
            f"mode_index {mode_index} out of range for {basis.n_modes} mode(s)"
        )
    return ModeOperator(basis, _embed(_single_mode_ladder(basis.n_max), basis, mode_index))


def number_op(basis: FockBasis, mode_index: int = 0) -> ModeOperator:
    """Number operator ``b†b`` on the designated mode (diagonal, exact)."""
    if not 0 <= mode_index < basis.n_modes:
        raise ValueError(
            f"mode_index {mode_index} out of range for {basis.n_modes} mode(s)"
        )
    single = np.diag(np.arange(basis.n_max, dtype=float)).astype(complex)
    return ModeOperator(basis, _embed(single, basis, mode_index))


def identity_op(basis: FockBasis) -> ModeOperator:
    return ModeOperator(basis, np.eye(basis.dimension, dtype=complex))


def adjoint(op: ModeOperator) -> ModeOperator:
    """Conjugate transpose."""
    return ModeOperator(op.basis, op.elements.conj().T)


def compose(a: ModeOperator, b: ModeOperator) -> ModeOperator:
    """Operator product ``a @ b`` (apply ``b`` first)."""
    _check_same_basis(a, b)
    return ModeOperator(a.basis, a.elements @ b.elements)


def expectation(rho: DensityMatrix, op: ModeOperator) -> complex:
    """``trace(rho @ op)``.

    Returned as a complex number; for Hermitian ``op`` and valid ``rho``
    the imaginary part is numerical noise (< 1e-12).
    """
    _check_same_basis(rho, op)
    # trace(rho @ op) without forming the product
    return complex(np.sum(rho.elements * op.elements.T))


def partial_trace(rho: DensityMatrix, keep_mode: int) -> DensityMatrix:
    """Trace out one mode of a two-mode density matrix.

    ``keep_mode`` 0 keeps the first (slow-index) mode, 1 the second.
    """
    if rho.basis.n_modes != 2:
        raise ValueError("partial_trace requires a two-mode density matrix")
    if keep_mode not in (0, 1):
        raise ValueError(f"keep_mode must be 0 or 1, got {keep_mode}")
    n = rho.basis.n_max
    r4 = rho.elements.reshape(n, n, n, n)  # [m0, m1, n0, n1]
    if keep_mode == 0:
        reduced = np.einsum("mknk->mn", r4)
    else:
        reduced = np.einsum("kmkn->mn", r4)
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
