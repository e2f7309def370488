"""Frequency-domain model of the below-threshold parametric light source.

The source is a two-mode (nondegenerate) parametric amplifier cavity:
pump coupling ``epsilon`` between the intracavity modes, both damped at
``kappa_c``.  Its correlated output beams drive the two remote motional
modes; at the moment level everything the downstream dissipative model
needs is the pair ``(N, M)`` of effective bath parameters and the
equivalent squeeze parameter ``r``, all closed-form rational functions
of ``epsilon / kappa_c``.

Quadrature normalization throughout the package: ``X = c + c†``,
``Y = -i(c - c†)``, vacuum variance 1.  Spectra are plain arrays of
ratios to vacuum, so a squeezing spectrum of 1 means "no different from
vacuum".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NopaParams:
    """Pump coupling ``epsilon`` and cavity decay ``kappa_c`` (angular rates).

    Below-threshold operation requires ``0 <= epsilon < kappa_c``; the
    threshold itself is rejected because every derived quantity (N, M, r)
    diverges there.
    """

    epsilon: float
    kappa_c: float

    def __post_init__(self):
        if self.kappa_c <= 0:
            raise ValueError(f"kappa_c must be > 0, got {self.kappa_c}")
        if not 0 <= self.epsilon < self.kappa_c:
            raise ValueError(
                f"below-threshold operation requires 0 <= epsilon < kappa_c, "
                f"got epsilon={self.epsilon}, kappa_c={self.kappa_c}"
            )


def transfer_function(p: NopaParams, omega):
    """Output transfer factor ``T(w) = (kappa_c - eps + iw)/(kappa_c + eps - iw)``.

    This single factor maps the vacuum inputs onto both correlated output
    combinations (X sum and Y difference); ``|T| <= 1`` everywhere below
    threshold, and ``T(0) -> 0`` as ``epsilon -> kappa_c``.
    Accepts a scalar or an array of frequencies.
    """
    w = np.asarray(omega, dtype=float)
    t = (p.kappa_c - p.epsilon + 1j * w) / (p.kappa_c + p.epsilon - 1j * w)
    if np.isscalar(omega) or w.ndim == 0:
        return complex(t)
    return t


def squeezing_spectra(p: NopaParams, omega_grid) -> np.ndarray:
    """Variance spectrum of the squeezed output combinations, ``|T(w)|**2``.

    The X-sum and Y-difference combinations have the same variance
    relative to vacuum, so one array, one value per frequency of
    ``omega_grid`` (a scalar counts as a one-point grid), serves both.
    """
    w = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    return np.abs(transfer_function(p, w)) ** 2


def effective_N_M(p: NopaParams) -> tuple[float, float]:
    """Effective bath parameters (N, M) seen by the driven motional modes.

    N = 4 eps^2 kappa^2 / (kappa^2 - eps^2)^2
    M = 2 kappa eps (kappa^2 + eps^2) / (kappa^2 - eps^2)^2

    They satisfy M^2 = N(N+1) exactly — the signature of a pure
    two-mode-squeezed steady state.
    """
    e, k = p.epsilon, p.kappa_c
    denom = (k**2 - e**2) ** 2
    n_val = 4.0 * e**2 * k**2 / denom
    m_val = 2.0 * k * e * (k**2 + e**2) / denom
    return n_val, m_val


def squeeze_parameter(p: NopaParams) -> float:
    """Squeeze parameter ``r = arcsinh(sqrt(N))``.

    Equivalently ``exp(-r) = (kappa_c - epsilon)/(kappa_c + epsilon)``,
    which also equals the zero-frequency amplitude ``|T(0)|``: the field
    squeezing at line center is exactly the squeezing stored in the
    motional steady state.
    """
    n_val, _ = effective_N_M(p)
    return float(np.arcsinh(np.sqrt(n_val)))
