"""Exact Gaussian (second-moment) dynamics.

The dissipative model is linear in the mode operators, so Gaussian states
stay Gaussian.  Every state eprsim forms is driven from vacuum inputs and
has zero mean, so a state is its covariance, ``CovarianceState(cov)``.
This module is the Fock-space propagator's independent oracle: the test
suite holds the moments of the two to each other at 1e-6.

Conventions: quadrature ordering (Q1, P1, Q2, P2, ...), with
``Q = b + b†``, ``P = -i(b - b†)``; the vacuum covariance is the
identity.  Covariance dynamics follow

    dSigma/dt = A Sigma + Sigma A^T + D

with drift ``A`` and diffusion ``D`` from :class:`DriftDiffusion`.

Two model builders are provided: the two-mode white-noise model
(moment-level image of the master equation) and the four-mode cascaded
model in which the source cavity's output drives the motional modes
unidirectionally at finite bandwidth.

The module needs numpy only.  The stationary covariance is one linear
solve in the Kronecker-sum form of the Lyapunov equation (the matrices
here are at most 8 x 8, so the system is at most 64 x 64).  Relaxation
under a drift ``-c I``, the drift of every two-mode master equation, has
a closed form that needs neither that solve nor a matrix exponential, so
it stays independent of the Fock route's ``lindblad._expm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import NumericalError
from .nopa import NopaParams

SYMMETRY_ATOL = 1e-12
PHYSICALITY_ATOL = 1e-8
LYAPUNOV_RESIDUAL_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form for (Q1, P1, ..., Qn, Pn) ordering."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = j
    return out


@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Zero-mean Gaussian state: its covariance (vacuum = identity).

    Equality is identity, as for :class:`~eprsim.hilbert.DensityMatrix`.
    """

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or len(cov) % 2:
            raise ValueError(f"cov must be square with even dimension, got shape {cov.shape}")
        asym = np.max(np.abs(cov - cov.T))
        if asym > SYMMETRY_ATOL:
            raise ValueError(f"covariance not symmetric: max asymmetry {asym:.3e}")
        omega = symplectic_form(len(cov) // 2)
        evals = np.linalg.eigvalsh(cov + 1j * omega)
        if evals.min() < -PHYSICALITY_ATOL:
            raise ValueError(
                f"covariance violates the uncertainty bound: min eig(cov + i Omega) "
                f"= {evals.min():.3e}"
            )
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return len(self.cov) // 2


@dataclass(frozen=True, eq=False)
class DriftDiffusion:
    """Linear moment dynamics: drift A and diffusion D (both 2n x 2n).

    Equality is identity, as for :class:`~eprsim.hilbert.DensityMatrix`.
    """

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.drift, dtype=float)
        d = np.asarray(self.diffusion, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise ValueError("drift must be square with even dimension")
        if d.shape != a.shape:
            raise ValueError("diffusion shape must match drift")
        if np.max(np.abs(d - d.T)) > SYMMETRY_ATOL:
            raise ValueError("diffusion must be symmetric")
        # Relative to D's scale: a cascade with gamma >> kappa_c has entries
        # near 1e20 whose rounding leaves eigenvalues far below -1e-8.
        if np.linalg.eigvalsh(d).min() < -PHYSICALITY_ATOL * max(1.0, np.abs(d).max()):
            raise ValueError("diffusion must be positive semidefinite")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)


def model_from_lindblad(model: LindbladModel) -> DriftDiffusion:
    """Moment-level image of the two-mode master equation.

    Drift is ``-(gamma + heating_rate) * I``; the diffusion carries the
    bath occupation on the diagonal, ``2 gamma (1 + 2N) + 6 heating_rate``
    (the heating channel has occupation 1, hence ``2 h (1 + 2*1) = 6h``),
    and the pair correlation M on the cross blocks with opposite signs
    for Q1Q2 and P1P2.  The resulting steady state has
    ``Var(Q_j) = 1 + 2N`` and ``<Q1 Q2> = -2M``, ``<P1 P2> = +2M``.  A
    diffusion past the float range raises ``ValueError``.
    """
    g, n_p, m_p, h = model.gamma, model.n_param, model.m_param, model.heating_rate
    # 2 gamma (1 + 2N), written as 4 gamma (N + 1/2) for the same bits without
    # overflowing 1 + 2N: steady_state admits N near 1e308 under a heating
    # rate that outweighs gamma N
    with np.errstate(over="ignore"):
        diag, cross = 4.0 * g * (0.5 + n_p) + 6.0 * h, 4.0 * g * m_p
    if not np.isfinite([diag, cross]).all():
        raise ValueError(f"diffusion 4 gamma (N + 1/2) + 6 heating_rate overflows at gamma = "
                         f"{g:.6g}, heating_rate = {h:.6g}; the state depends on the rates' "
                         "ratios alone, so scale them down")
    drift = -(g + h) * np.eye(4)
    diffusion = diag * np.eye(4)
    diffusion[0, 2] = diffusion[2, 0] = -cross
    diffusion[1, 3] = diffusion[3, 1] = +cross
    return DriftDiffusion(drift, diffusion)


def steady_covariance(dd: DriftDiffusion) -> CovarianceState:
    """Solve ``A S + S A^T + D = 0`` for the stationary covariance.

    The equation is solved as one linear system in the row-major vec of S,
    ``(kron(A, I) + kron(I, A)) vec(S) = -vec(D)``, whose matrix is
    nonsingular for a Hurwitz drift (its eigenvalues are the sums of two
    of A's), after A and D are scaled by the power of two nearest
    ``1 / max|A|``.  A drift that is not Hurwitz raises ``ValueError``.  A
    solution whose residual exceeds ``LYAPUNOV_RESIDUAL_TOL`` (relative to
    D) takes one step of iterative refinement; if it still exceeds it,
    :class:`~eprsim.errors.NumericalError` is raised.  The residual is
    measured in units of D's largest entry, so a solve that overflowed
    fails this check without a floating-point warning.
    """
    evals = np.linalg.eigvals(dd.drift)
    worst = evals[np.argmax(evals.real)]
    if worst.real >= 0:
        raise ValueError(
            f"drift is not Hurwitz: eigenvalue {worst:.6g} has non-negative real part"
        )
    n = dd.drift.shape[0]
    eye = np.eye(n)
    # The equation is homogeneous in (A, D).  Scaling both by the power of
    # two nearest 1 / max|A| is exact, so S keeps its bits, and it keeps the
    # solve and the residual in range for drifts near 1e300; np.ldexp does
    # not form that power, which overflows for a subnormal max|A|.
    k = -int(np.round(np.log2(np.abs(dd.drift).max())))
    drift, diffusion = np.ldexp(dd.drift, k), np.ldexp(dd.diffusion, k)
    kron_sum = np.kron(drift, eye) + np.kron(eye, drift)
    # An equation whose entries all lie below the rounding of the largest
    # (a source 1e300 times slower than the atoms) is lifted to unit size,
    # by a power of two too, so pivoting cannot bury it in that rounding.
    row_max = np.abs(kron_sum).max(axis=1)
    lift = np.where(row_max < np.finfo(float).eps,
                    np.ldexp(1.0, -np.round(np.log2(row_max)).astype(int)), 1.0)
    mat, rhs = kron_sum * lift[:, None], -diffusion.ravel() * lift
    vec = np.linalg.solve(mat, rhs)
    # Both norms in units of D's largest entry, so squaring cannot overflow.
    scale = max(1.0, np.abs(diffusion).max())
    bound = LYAPUNOV_RESIDUAL_TOL * max(1.0 / scale, np.linalg.norm(diffusion / scale))
    for _ in range(2):  # the solve, then one refinement step only where it misses the bound
        sigma = vec.reshape(n, n)
        sigma = (sigma + sigma.T) / 2.0
        resid = np.linalg.norm((drift @ sigma + sigma @ drift.T + diffusion) / scale)
        if resid <= bound:
            return CovarianceState(sigma)
        vec = vec - np.linalg.solve(mat, mat @ vec - rhs)
    raise NumericalError(f"Lyapunov solve residual {resid:.3e} too large")


def evolve_covariance(state: CovarianceState, dd: DriftDiffusion, t: float) -> CovarianceState:
    """Propagate the covariance for a time ``t >= 0`` under a drift ``-c I``.

    Every :func:`model_from_lindblad` drift is ``-(gamma + heating_rate) I``,
    for which ``Sigma(t) = exp(-2ct) Sigma + (1 - exp(-2ct)) D / (2c)``
    exactly, and symmetric; any other drift raises ``ValueError``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if state.cov.shape != dd.drift.shape:
        raise ValueError("state and model dimensions differ")
    c = -dd.drift[0, 0]
    if not (c > 0 and np.array_equal(dd.drift, -c * np.eye(len(dd.drift)))):
        raise ValueError("evolve_covariance needs a drift -c I with c > 0, "
                         "as model_from_lindblad builds")
    if t == 0:
        return state
    return CovarianceState(np.exp(-2.0 * c * t) * state.cov
                           - np.expm1(-2.0 * c * t) * dd.diffusion / (2.0 * c))


def cascade_model(nopa: NopaParams, gamma: float) -> DriftDiffusion:
    """Four-mode cascaded model: source cavity modes (c1, c2) drive (b1, b2).

    Quadrature ordering (Qc1, Pc1, Qc2, Pc2, Qb1, Pb1, Qb2, Pb2).  The
    source block evolves under pump coupling epsilon and decay kappa_c;
    its output feeds the motional modes through the unidirectional
    coupling ``2 sqrt(gamma kappa_c)`` (drift is block-triangular — no
    back-action on the source).  The shared vacuum inputs give the
    cross-correlated diffusion ``D = B B^T`` with noise rows
    ``sqrt(2 kappa_c)`` for the source and ``-sqrt(2 gamma)`` for the
    motional modes on the same channels.

    In the broadband limit ``kappa_c >> gamma`` the motional block of the
    steady covariance reproduces the white-noise model, with relative
    error scaling linearly in ``gamma / kappa_c``.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    # The motional noise 2 gamma is D's largest entry; past the float range
    # it turns D into inf and nan, which fails later with a less plain message.
    if not np.isfinite(2.0 * gamma):
        raise ValueError(f"diffusion 2 gamma overflows at gamma = {gamma:.6g}")
    eps, kappa = nopa.epsilon, nopa.kappa_c
    a = np.zeros((8, 8))
    # source block: dc1/dt = -kappa c1 - eps c2† (+ noise), and 1 <-> 2
    a[0:4, 0:4] = -kappa * np.eye(4)
    a[0, 2] = a[2, 0] = -eps   # Q couplings
    a[1, 3] = a[3, 1] = +eps   # P couplings
    # motional block and feed-forward
    ff = 2.0 * np.sqrt(gamma * kappa)
    for m in range(4):
        a[4 + m, 4 + m] = -gamma
        a[4 + m, m] = ff
    noise = np.zeros((8, 4))
    for ch in range(4):
        noise[ch, ch] = np.sqrt(2.0 * kappa)
        noise[4 + ch, ch] = -np.sqrt(2.0 * gamma)
    return DriftDiffusion(a, noise @ noise.T)


def epr_variances(state: CovarianceState) -> tuple[float, float]:
    """(Var(Q1+Q2), Var(P1-P2)) for a two-mode Gaussian state."""
    if state.n_modes != 2:
        raise ValueError(f"two-mode state required, got {state.n_modes} modes")
    c = state.cov
    var_sum_q = c[0, 0] + c[2, 2] + 2.0 * c[0, 2]
    var_diff_p = c[1, 1] + c[3, 3] - 2.0 * c[1, 3]
    return float(var_sum_q), float(var_diff_p)
