"""Entangled-state constructors, Wigner functions and the truncation diagnostic.

The target state is the two-mode squeezed vacuum, which ``tmss_fock``
writes directly in the number basis, as the density matrix of the
amplitudes ``c_m = (-tanh r)^m / cosh r`` on ``|m, m>``; the test suite
checks it against the squeezing unitary ``exp[r (b1 b2 - b1† b2†)]``
applied to the vacuum, and its Wigner function against the closed form
``wigner_analytic``.

Every state is a :class:`~eprsim.hilbert.DensityMatrix` on the two-mode
:class:`~eprsim.hilbert.FockBasis`, pure or mixed alike.
:func:`edge_population` is the one truncation diagnostic: the Bell and
Wigner routines warn when it exceeds :data:`TRUNCATION_POP_WARN` in the
top 10% of levels, and :func:`eprsim.lindblad.steady_state` when the top
level alone exceeds it.

Work that depends on the state alone is done once per call:
:func:`displaced_parity_expectation` takes every (alpha1, alpha2) pair of
a sweep and lays the state out (:func:`_support`) once for all of them,
and :func:`~eprsim.metrics.chsh_value` checks the state's truncation once
for all of its settings.

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
Both Wigner routines return plain arrays: :func:`wigner_analytic`
broadcasts over its coordinates, and :func:`wigner_from_density` takes
four axes and fills their product grid.

The module needs numpy only: a displaced parity is one Hermitian
``eigh`` of the single-mode displacement generator, not a matrix
exponential.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import FockBasis, DensityMatrix, NumericalError, TruncationWarning

# Warn when this much population sits in the top 10% of Fock levels.
TRUNCATION_POP_WARN = 1e-4


@dataclass(frozen=True)
class TmssSpec:
    """Two-mode squeezed vacuum with squeeze parameter ``r >= 0``."""

    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeeze parameter must be >= 0, got {self.r}")


def tmss_fock(spec: TmssSpec, basis: FockBasis) -> DensityMatrix:
    """Two-mode squeezed vacuum in the truncated number basis.

    The outer product of the amplitudes ``(-tanh r)^m / cosh r`` on the
    diagonal kets ``|m, m>``, renormalized over the truncated space (the
    discarded tail is ``tanh(r)**(2 n_max)``), stored on those n_max**2
    pairs of kets.  Raises :class:`~eprsim.errors.NumericalError` where no
    amplitude can be normalized: ``cosh(r)`` overflows (r above about 710)
    or every squared amplitude underflows (r above about 372).
    """
    n = basis.n_max
    m = np.arange(n)
    with np.errstate(over="raise"):
        try:
            c = (-np.tanh(spec.r)) ** m / np.cosh(spec.r)
        except FloatingPointError as exc:
            raise NumericalError(f"tmss_fock: cosh(r) overflows at r = {spec.r:.6g}") from exc
    ket = m * n + m
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[ket] = c
    # Normalized twice over all d amplitudes: the golden files pin the bits this gives.
    norm = np.linalg.norm(amp)
    if not norm > 0:
        raise NumericalError(f"tmss_fock: 1 / cosh(r)**2 underflows at r = {spec.r:.6g}")
    amp /= norm
    amp /= np.linalg.norm(amp)
    return DensityMatrix(basis, ket[:, None] * basis.dimension + ket,
                         np.outer(amp[ket], amp[ket].conj()))


def wigner_analytic(spec: TmssSpec, q1, p1, q2, p2):
    """Closed-form two-mode-squeezed Wigner function.

    W = (4/pi^2) exp{-[(q1+q2)^2 + (p1-p2)^2] e^{+2r}}
               * exp{-[(q1-q2)^2 + (p1+p2)^2] e^{-2r}}

    Broadcasts over array inputs.  The squeezed (correlated) directions
    q1+q2 and p1-p2 tighten as ``exp(2r)`` grows; their conjugate
    combinations spread correspondingly, keeping the integral at 1.
    Raises :class:`~eprsim.errors.NumericalError` when ``exp(2r)``
    overflows (r above about 354).
    """
    q1, p1, q2, p2 = (np.asarray(v, dtype=float) for v in (q1, p1, q2, p2))
    # 2r is inf above r of about 9e307, so exp(2r) is tested for inf.  The
    # exponent is never positive: where it overflows to -inf, W is 0, as it should be.
    with np.errstate(over="ignore"):
        ep, em = np.exp(2.0 * spec.r), np.exp(-2.0 * spec.r)
        if not np.isfinite(ep):
            raise NumericalError(f"wigner_analytic: exp(2r) overflows at r = {spec.r:.6g}")
        w = (4.0 / np.pi**2) * np.exp(
            -((q1 + q2) ** 2 + (p1 - p2) ** 2) * ep
            - ((q1 - q2) ** 2 + (p1 + p2) ** 2) * em
        )
    if w.ndim == 0:
        return float(w)
    return w


def edge_population(state: DensityMatrix, fraction: float = 0.1) -> float:
    """Total population with any mode index in the top ``fraction`` of levels.

    The band always holds the topmost level, so the truncation diagnostics
    stay armed even for very small bases where ``fraction`` of ``n_max``
    rounds to nothing.
    """
    n, d = state.basis.n_max, state.basis.dimension
    edge = min(n - 1, int(np.ceil((1.0 - fraction) * n)))
    on_diagonal = state.keys % (d + 1) == 0  # row * d + row
    pops2 = np.zeros((n, n))
    pops2.flat[state.keys[on_diagonal] // (d + 1)] = state.values[on_diagonal].real
    mask = np.zeros((n, n), dtype=bool)
    mask[edge:, :] = True
    mask[:, edge:] = True
    return float(pops2[mask].sum())


def _warn_if_truncated(state: DensityMatrix, where: str, fraction: float = 0.1):
    """Warn the caller of ``where`` if :func:`edge_population` (top ``fraction``) is too large."""
    pop = edge_population(state, fraction)
    if pop > TRUNCATION_POP_WARN:
        band = f"the top {fraction:.0%} of Fock levels" if fraction else "the top Fock level"
        warnings.warn(
            f"{where}: population {pop:.2e} in {band} "
            f"exceeds {TRUNCATION_POP_WARN:.0e}; results may be truncation-limited",
            TruncationWarning,
            stacklevel=3,
        )


def _single_mode_ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max)), k=1).astype(complex)


@functools.lru_cache(maxsize=256)
def _displaced_parity_single(n_max: int, alpha: complex) -> np.ndarray:
    """Single-mode ``D(alpha) P D†(alpha)`` as a dense, read-only matrix (cached).

    The truncated generator ``G = alpha b† - alpha* b`` couples m only to
    m ± 1, so the truncated parity P anticommutes with it: ``P D† P = D``
    holds exactly in the truncated space, and ``D P D† = exp(2 G) P``.
    ``i G`` is Hermitian, so ``exp(2 G)`` comes from its ``eigh``.
    """
    alpha = complex(alpha)  # equal keys such as 0.5 and 0.5+0j get one matrix
    b = _single_mode_ladder(n_max)
    lam, v = np.linalg.eigh(1j * (alpha * b.conj().T - np.conj(alpha) * b))
    out = ((v * np.exp(-2j * lam)) @ v.conj().T) * (-1.0) ** np.arange(n_max)
    out.setflags(write=False)
    return out


def _support(state: DensityMatrix):
    """The rows of rho that carry weight, with their entries, by mode: (m0, m1, k0, k1, block).

    The rows are those holding a stored entry, and each row's stored
    entries fill one row of the 2-D ``block``, in column order and padded
    with zero values at column 0, so ``block[i, j]`` is rho at row
    ``(m0[i], m1[i])`` and column ``(k0[i, j], k1[i, j])``.  ``m0`` and
    ``m1`` are columns, which broadcast against the 2-D ``k0`` and ``k1``.
    For a pure state these are the dense outer product on its amplitude
    support.
    """
    n = state.basis.n_max
    rows_of, cols_of = np.divmod(state.keys, state.basis.dimension)
    rows, first, counts = np.unique(rows_of, return_index=True, return_counts=True)
    owner = np.repeat(np.arange(len(rows)), counts)
    slot = np.arange(len(rows_of)) - np.repeat(first, counts)
    cols = np.zeros((len(rows), counts.max(initial=0)), dtype=np.int64)
    block = np.zeros(cols.shape, dtype=complex)
    cols[owner, slot] = cols_of
    block[owner, slot] = state.values
    m0, m1 = (v[:, None] for v in np.divmod(rows, n))
    return m0, m1, *np.divmod(cols, n), block


def displaced_parity_expectation(state: DensityMatrix, pairs) -> list[float]:
    """<D1(a1) D2(a2) P1 P2 D2† D1†> of a density matrix, for each ``(a1, a2)`` in ``pairs``.

    Contracts rho only on its support (:func:`_support`), one term per
    stored entry: a pure state with k nonzero amplitudes costs k² terms
    (n_max² for the two-mode squeezed vacuum).  The support layout is
    built once per call; each pair gathers its two displaced parities at
    that layout and sums its terms afresh.
    """
    n = state.basis.n_max
    m0, m1, k0, k1, block = _support(state)
    out = []
    for alpha1, alpha2 in pairs:
        o1 = _displaced_parity_single(n, alpha1)
        o2 = _displaced_parity_single(n, alpha2)
        terms = ((block * o1[k0, m0]) * o2[k1, m1]).real
        # Sequential sums (cumsum), not np.sum's pairwise one: each row's terms
        # from zero, then the row totals.  That is the order of a dense
        # buffered einsum over rho, so the two agree bit for bit where each
        # of its buffers holds at most one support row (the TMSS at n_max 40);
        # the zero padding of the rows adds exact zeros.
        out.append(float(np.cumsum(np.cumsum(terms, axis=1)[:, -1])[-1]))
    return out


def wigner_from_density(state: DensityMatrix, q1, p1, q2, p2) -> np.ndarray:
    """Wigner function of a density matrix on a product grid.

    Takes the four quadrature axes and returns the values as an array of
    shape ``(len(q1), len(p1), len(q2), len(p2))``; an empty axis gives an
    empty array of that shape.  Uses the displaced-parity representation
    with ``a_j = q_j + i p_j`` (see module docstring).  The factorized
    form — one displaced-parity matrix per mode per phase-space point —
    turns the grid evaluation into a single tensor contraction, over the
    state's support only (as :func:`displaced_parity_expectation`), so it
    costs grid points x stored entries.

    Emits a :class:`TruncationWarning` when the state has significant
    population near the Fock-space edge, where displaced parities lose
    accuracy.  A coordinate that would overflow the displacement generator
    raises :class:`~eprsim.errors.NumericalError`.
    """
    _warn_if_truncated(state, "wigner_from_density")
    q1, p1, q2, p2 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (q1, p1, q2, p2))
    n = state.basis.n_max
    largest = max(float(np.abs(v).max(initial=0.0)) for v in (q1, p1, q2, p2))
    if not 8.0 * largest * n**0.5 < np.inf:  # bounds 2 |G|, so eigh and exp stay finite
        raise NumericalError(f"wigner_from_density: the displacement generator overflows "
                             f"at a coordinate of {largest:.6g}")
    m0, m1, k0, k1, block = _support(state)
    a1 = q1[:, None] + 1j * p1[None, :]
    a2 = q2[:, None] + 1j * p2[None, :]
    stack = (-1, *block.shape)  # keeps the axes when the grid is empty
    o1 = np.array([_displaced_parity_single(n, a)[k0, m0] for a in a1.ravel()]).reshape(stack)
    o2 = np.array([_displaced_parity_single(n, a)[k1, m1] for a in a2.ravel()]).reshape(stack)
    # E[i, j] over (mode-1 point i, mode-2 point j)
    corr = np.einsum("arc,brc->ab", block * o1, o2).real
    return ((2.0 / np.pi) ** 2 * corr).reshape(len(q1), len(p1), len(q2), len(p2))
