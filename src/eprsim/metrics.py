"""Entanglement and nonlocality diagnostics.

Fock-space fidelity and the CHSH combination operate on density matrices,
pure or mixed alike, and the Gaussian quantities (EPR criterion helper,
logarithmic negativity) on covariance data; :func:`~eprsim.lindblad.moments`
gives a state's mean phonon numbers, second moments and purity.  The
displaced-parity correlator behind the Bell test,
:func:`~eprsim.states.displaced_parity_expectation`, is also the Wigner
function up to a constant, E = (pi/2)**2 W (Banaszek & Wodkiewicz,
PRA 58, 4345 (1998)); the tests cross-check the two point by point.
The two contractions keep separate summation orders, which the golden
files pin.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .gaussian import CovarianceState, symplectic_form
from .hilbert import DensityMatrix, _lookup
from .states import _warn_if_truncated, displaced_parity_expectation

# Displacements beyond this magnitude push coherent amplitude into the
# truncation edge for typical n_max; reject rather than silently degrade.
MAX_SETTING_MAGNITUDE = 3.0


@dataclass(frozen=True)
class BellSettings:
    """Two displacement settings per mode for a CHSH measurement."""

    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            val = complex(getattr(self, name))
            object.__setattr__(self, name, val)
            if not cmath.isfinite(val):
                raise ValueError(f"{name} must be finite")
            if abs(val) > MAX_SETTING_MAGNITUDE:
                raise ValueError(
                    f"|{name}| = {abs(val):.3g} exceeds the truncation-safety "
                    f"bound {MAX_SETTING_MAGNITUDE}"
                )


def fidelity(rho: DensityMatrix, target: DensityMatrix) -> float:
    """``tr(rho target)``: <psi| rho |psi> for a pure target, in [0, 1] up to numerical noise.

    Summed over the stored entries of ``target``; for an exactly Hermitian
    rho, :func:`~eprsim.lindblad.purity` gives this sum with
    ``target = rho`` bit for bit.
    """
    if rho.basis != target.basis:
        raise ValueError(f"basis mismatch: {rho.basis} vs {target.basis}")
    d = target.basis.dimension
    rows, cols = np.divmod(target.keys, d)
    return float(np.sum(target.values * _lookup(rho.keys, rho.values, cols * d + rows, 0)).real)


def epr_criterion(var_sum_q: float, var_diff_p: float) -> tuple[float, bool]:
    """Sum-variance entanglement criterion.

    Returns ``(value, entangled)`` with value = Var(Q1+Q2) + Var(P1-P2).
    With vacuum variance 1 per quadrature, every separable state obeys
    value >= 4 (vacuum saturates it), so value < 4 certifies entanglement.
    """
    if var_sum_q < 0 or var_diff_p < 0:
        raise ValueError("variances must be >= 0")
    value = float(var_sum_q + var_diff_p)
    return value, value < 4.0


def chsh_value(state: DensityMatrix, settings) -> list[float]:
    """CHSH combination B = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2), for each of ``settings``.

    |B| <= 2 for every separable state; displaced-parity measurements on
    the pair-correlated states here push B above 2 for suitable settings.
    The settings were bounded when each :class:`BellSettings` was built, so
    only the state's truncation is checked, once per call.  The four
    correlators of every setting are contracted in one call of
    :func:`~eprsim.states.displaced_parity_expectation`, over one support
    layout of the state.
    """
    _warn_if_truncated(state, "chsh_value")
    pairs = [(a, b) for s in settings for a in (s.alpha1, s.alpha2) for b in (s.beta1, s.beta2)]
    e = displaced_parity_expectation(state, pairs)
    return [e11 + e12 + e21 - e22 for e11, e12, e21, e22 in zip(*[iter(e)] * 4)]


def log_negativity(state: CovarianceState) -> float:
    """Logarithmic negativity (base 2) of a two-mode Gaussian state.

    Computed from the smallest symplectic eigenvalue of the
    partial-transpose covariance (momentum flip on mode 2):
    ``E_N = max(0, -log2(nu_min))``.  Zero for separable Gaussian states;
    ``2 r / ln 2`` for a pure two-mode squeezed state.
    """
    if state.n_modes != 2:
        raise ValueError(f"two-mode state required, got {state.n_modes} modes")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    cov_pt = flip @ state.cov @ flip
    omega = symplectic_form(2)
    nu = np.abs(np.linalg.eigvals(1j * omega @ cov_pt))
    nu_min = float(np.min(nu))
    if nu_min <= 0:
        raise ValueError("unphysical covariance: vanishing symplectic eigenvalue")
    return max(0.0, -float(np.log2(nu_min)))
