"""Entangled-state constructors and Wigner-function evaluation.

Two representations of the same target state are provided and
cross-checked by the test suite:

* ``tmss_fock`` — the two-mode squeezed vacuum written directly in the
  number basis, amplitudes ``c_m = (-tanh r)^m / cosh r`` on ``|m, m>``;
* ``squeeze_unitary`` applied to the two-mode vacuum — the matrix
  exponential of ``r (b1 b2 - b1† b2†)``.

Wigner convention
-----------------
The two-mode Wigner function is normalized so that the vacuum value at
the phase-space origin is ``4 / pi**2`` and the function integrates to 1
over phase space.  The displaced-parity formula

    W(a1, a2) = (2/pi)**2 <D1(a1) D2(a2) P1 P2 D2†(a2) D1†(a1)>

reproduces the analytic two-mode-squeezed form with the mapping
``a_j = q_j + i p_j``; in these variables the vacuum marginal is
``exp(-2 q**2)`` (i.e. ``Var(q) = 1/4``, consistent with ``q = Q/2``
for the unit-vacuum-variance quadrature ``Q = b + b†``).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .hilbert import (
    FockBasis,
    ModeOperator,
    PureState,
    DensityMatrix,
    annihilation_op,
    _embed,
    _single_mode_ladder,
)

# Warn when this much population sits in the top 10% of Fock levels.
TRUNCATION_POP_WARN = 1e-4


class TruncationWarning(UserWarning):
    """State has significant population near the truncation edge."""


@dataclass(frozen=True)
class TmssSpec:
    """Two-mode squeezed vacuum with squeeze parameter ``r >= 0``."""

    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeeze parameter must be >= 0, got {self.r}")


@dataclass(frozen=True)
class WignerGrid:
    """Product grid of quadrature axes with Wigner values over it.

    ``values`` has shape ``(len(q1), len(p1), len(q2), len(p2))`` or is
    None for a grid that has not been evaluated yet.
    """

    q1: np.ndarray
    p1: np.ndarray
    q2: np.ndarray
    p2: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        for name in ("q1", "p1", "q2", "p2"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.values is not None:
            expected = (len(self.q1), len(self.p1), len(self.q2), len(self.p2))
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != expected:
                raise ValueError(f"values shape {vals.shape} != axes shape {expected}")
            object.__setattr__(self, "values", vals)


def tmss_fock(spec: TmssSpec, basis: FockBasis) -> PureState:
    """Two-mode squeezed vacuum in the truncated number basis.

    Amplitudes ``(-tanh r)^m / cosh r`` on the diagonal kets ``|m, m>``,
    renormalized over the truncated space (the discarded tail is
    ``tanh(r)**(2 n_max)``).
    """
    if basis.n_modes != 2:
        raise ValueError("two-mode squeezed vacuum requires a two-mode basis")
    n = basis.n_max
    m = np.arange(n)
    c = (-np.tanh(spec.r)) ** m / np.cosh(spec.r)
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[m * n + m] = c
    return PureState(basis, amp).normalized()


def squeeze_unitary(spec: TmssSpec, basis: FockBasis) -> ModeOperator:
    """Two-mode squeezing unitary ``exp[r (b1 b2 - b1† b2†)]``.

    Unitary up to truncation effects near the Fock-space edge; applied to
    the vacuum it reproduces ``tmss_fock`` on the retained subspace.
    """
    if basis.n_modes != 2:
        raise ValueError("two-mode squeezing requires a two-mode basis")
    b1 = annihilation_op(basis, 0).elements
    b2 = annihilation_op(basis, 1).elements
    pair = b1 @ b2
    gen = spec.r * (pair - pair.conj().T)
    return ModeOperator(basis, expm(gen))


def displacement_op(alpha: complex, basis: FockBasis, mode_index: int = 0) -> ModeOperator:
    """Displacement ``D(alpha) = exp(alpha b† - alpha* b)`` on one mode.

    Computed as a single-mode matrix exponential and tensor-embedded,
    which is much cheaper than exponentiating in the composite space.
    """
    if not 0 <= mode_index < basis.n_modes:
        raise ValueError(
            f"mode_index {mode_index} out of range for {basis.n_modes} mode(s)"
        )
    b = _single_mode_ladder(basis.n_max)
    single = expm(alpha * b.conj().T - np.conj(alpha) * b)
    return ModeOperator(basis, _embed(single, basis, mode_index))


def parity_op(basis: FockBasis, mode_index: int = 0) -> ModeOperator:
    """Phonon-number parity ``(-1)^m`` on the designated mode."""
    if not 0 <= mode_index < basis.n_modes:
        raise ValueError(
            f"mode_index {mode_index} out of range for {basis.n_modes} mode(s)"
        )
    single = np.diag((-1.0) ** np.arange(basis.n_max)).astype(complex)
    return ModeOperator(basis, _embed(single, basis, mode_index))


def wigner_analytic(spec: TmssSpec, q1, p1, q2, p2):
    """Closed-form two-mode-squeezed Wigner function.

    W = (4/pi^2) exp{-[(q1+q2)^2 + (p1-p2)^2] e^{+2r}}
               * exp{-[(q1-q2)^2 + (p1+p2)^2] e^{-2r}}

    Broadcasts over array inputs.  The squeezed (correlated) directions
    q1+q2 and p1-p2 tighten as ``exp(2r)`` grows; their conjugate
    combinations spread correspondingly, keeping the integral at 1.
    """
    q1, p1, q2, p2 = (np.asarray(v, dtype=float) for v in (q1, p1, q2, p2))
    ep, em = np.exp(2.0 * spec.r), np.exp(-2.0 * spec.r)
    w = (4.0 / np.pi**2) * np.exp(
        -((q1 + q2) ** 2 + (p1 - p2) ** 2) * ep
        - ((q1 - q2) ** 2 + (p1 + p2) ** 2) * em
    )
    if w.ndim == 0:
        return float(w)
    return w


def _populations(state: PureState | DensityMatrix) -> np.ndarray:
    if isinstance(state, PureState):
        psi = state.normalized().amplitudes
        return (psi * psi.conj()).real
    return np.real(np.diag(state.elements))


def edge_population(state: PureState | DensityMatrix, fraction: float = 0.1) -> float:
    """Total population with any mode index in the top ``fraction`` of levels.

    Takes either state type.  The band always holds the topmost level, so
    the truncation diagnostics stay armed even for very small bases where
    ``fraction`` of ``n_max`` rounds to nothing.
    """
    n = state.basis.n_max
    edge = min(n - 1, int(np.ceil((1.0 - fraction) * n)))
    pops = _populations(state)
    if state.basis.n_modes == 1:
        return float(pops[edge:].sum())
    pops2 = pops.reshape(n, n)
    mask = np.zeros((n, n), dtype=bool)
    mask[edge:, :] = True
    mask[:, edge:] = True
    return float(pops2[mask].sum())


def _warn_if_truncated(state: PureState | DensityMatrix, where: str):
    pop = edge_population(state)
    if pop > TRUNCATION_POP_WARN:
        warnings.warn(
            f"{where}: population {pop:.2e} in the top 10% of Fock levels "
            f"exceeds {TRUNCATION_POP_WARN:.0e}; results may be truncation-limited",
            TruncationWarning,
            stacklevel=3,
        )


@functools.lru_cache(maxsize=256)
def _displaced_parity_single(n_max: int, alpha: complex) -> np.ndarray:
    """Single-mode ``D(alpha) P D†(alpha)`` as a dense, read-only matrix (cached)."""
    alpha = complex(alpha)  # equal keys such as 0.5 and 0.5+0j get one matrix
    b = _single_mode_ladder(n_max)
    d = expm(alpha * b.conj().T - np.conj(alpha) * b)
    par = (-1.0) ** np.arange(n_max)
    out = (d * par) @ d.conj().T
    out.setflags(write=False)
    return out


def _support(state: PureState | DensityMatrix):
    """Rows and columns of rho that carry weight, and the dense block on them."""
    if isinstance(state, PureState):
        psi = state.normalized().amplitudes
        idx = np.flatnonzero(psi)
        return idx, idx, np.outer(psi[idx], psi[idx].conj())
    nz = state.elements != 0
    rows, cols = np.flatnonzero(nz.any(axis=1)), np.flatnonzero(nz.any(axis=0))
    return rows, cols, state.elements[np.ix_(rows, cols)]


def displaced_parity_expectation(
    state: PureState | DensityMatrix, alpha1: complex, alpha2: complex
) -> float:
    """<D1(a1) D2(a2) P1 P2 D2† D1†> for a two-mode pure state or density matrix.

    Contracts rho only on its support: a pure state with k nonzero
    amplitudes costs k² terms (n_max² for the two-mode squeezed vacuum),
    a density matrix the block on its nonzero rows and columns.
    """
    if state.basis.n_modes != 2:
        raise ValueError("two-mode state required")
    n = state.basis.n_max
    rows, cols, block = _support(state)
    o1 = _displaced_parity_single(n, alpha1)
    o2 = _displaced_parity_single(n, alpha2)
    m0, m1 = (v[:, None] for v in np.divmod(rows, n))
    k0, k1 = np.divmod(cols, n)
    terms = ((block * o1[k0, m0]) * o2[k1, m1]).real
    # Sequential sums (cumsum), not np.sum's pairwise one: each row's terms
    # from zero, then the row totals.  That is the order of a dense
    # buffered einsum over rho, so the two agree bit for bit where each
    # of its buffers holds at most one support row (the TMSS at n_max 40).
    return float(np.cumsum(np.cumsum(terms, axis=1)[:, -1])[-1])


def wigner_from_density(rho: DensityMatrix, grid: WignerGrid) -> WignerGrid:
    """Two-mode Wigner function of ``rho`` on a product grid.

    Uses the displaced-parity representation with ``a_j = q_j + i p_j``
    (see module docstring).  The factorized form — one displaced-parity
    matrix per mode per phase-space point — turns the grid evaluation
    into a single tensor contraction.

    Emits a :class:`TruncationWarning` when the state has significant
    population near the Fock-space edge, where displaced parities lose
    accuracy.
    """
    if rho.basis.n_modes != 2:
        raise ValueError("two-mode density matrix required")
    _warn_if_truncated(rho, "wigner_from_density")
    n = rho.basis.n_max
    a1 = grid.q1[:, None] + 1j * grid.p1[None, :]
    a2 = grid.q2[:, None] + 1j * grid.p2[None, :]
    o1 = np.array([_displaced_parity_single(n, a) for a in a1.ravel()])
    o2 = np.array([_displaced_parity_single(n, a) for a in a2.ravel()])
    r4 = rho.elements.reshape(n, n, n, n)
    # E[i, j] over (mode-1 point i, mode-2 point j)
    half = np.einsum("mpnq,anm->apq", r4, o1)
    corr = np.einsum("apq,bqp->ab", half, o2).real
    vals = (2.0 / np.pi) ** 2 * corr
    shape = (len(grid.q1), len(grid.p1), len(grid.q2), len(grid.p2))
    return WignerGrid(grid.q1, grid.p1, grid.q2, grid.p2, vals.reshape(shape))
