import time

import numpy as np
import pytest
import scipy.linalg

from eprsim import (
    DensityMatrix,
    FockBasis,
    LindbladModel,
    NopaParams,
    effective_N_M,
    steady_state,
)


@pytest.fixture(scope="session")
def steady_half_coupling():
    """Fock steady state at epsilon = 0.5 kappa_c, n_max = 40, with timing.

    This is the expensive solve in the suite (tens of seconds), so it is
    computed once and shared.
    """
    n_param, m_param = effective_N_M(NopaParams(0.5, 1.0))
    model = LindbladModel(gamma=1.0, n_param=n_param, m_param=m_param)
    basis = FockBasis(40)
    start = time.perf_counter()
    rho = steady_state(model, basis)
    elapsed = time.perf_counter() - start
    return model, basis, rho, elapsed


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def dense_validate(el):
    """Raise ``ValueError`` unless the dense array ``el`` is a density matrix.

    Checks Hermiticity and unit trace to 1e-10 and the eigenvalues of the
    Hermitian part to -1e-8; the message names the first condition broken.
    """
    herm_dev = np.max(np.abs(el - el.conj().T))
    if herm_dev > 1e-10:
        raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
    tr_dev = abs(complex(np.trace(el)) - 1.0)
    if tr_dev > 1e-10:
        raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
    evals = np.linalg.eigvalsh((el + el.conj().T) / 2.0)
    if evals.min() < -1e-8:
        raise ValueError(f"negative eigenvalue {evals.min():.3e}")


def pure(basis, amplitudes):
    """``|psi><psi|`` of the normalized ``amplitudes``, stored on their support."""
    psi = np.asarray(amplitudes, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    idx = np.flatnonzero(psi)
    return DensityMatrix(basis, idx[:, None] * basis.dimension + idx,
                         np.outer(psi[idx], psi[idx].conj()))


def expm_displaced_parity(n_max, alpha):
    """``D(alpha) P D†(alpha)`` from scipy's ``expm`` of the truncated generator.

    The route ``eprsim.states._displaced_parity_single`` took before it
    diagonalized the generator instead; the tests hold the two together.
    """
    b = np.diag(np.sqrt(np.arange(1.0, n_max)), k=1).astype(complex)
    d = scipy.linalg.expm(alpha * b.conj().T - np.conj(alpha) * b)
    return (d * (-1.0) ** np.arange(n_max)) @ d.conj().T


def block_expm_covariance(cov, dd, t):
    """The covariance at ``t`` from scipy's ``expm`` of the 8 x 8 block matrix.

    The route ``eprsim.gaussian.evolve_covariance`` took before its closed
    form, and valid for any drift:

        expm([[A, D], [0, -A^T]] t) = [[F11, F12], [0, F22]],
        Sigma(t) = F11 Sigma F11^T + F12 F11^T.
    """
    n = len(cov)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = dd.drift
    block[:n, n:] = dd.diffusion
    block[n:, n:] = -dd.drift.T
    f = scipy.linalg.expm(block * t)
    f11, f12 = f[:n, :n], f[:n, n:]
    return f11 @ cov @ f11.T + f12 @ f11.T


def expm_multiply_evolve(model, basis, times):
    """The states of ``eprsim.lindblad.evolve`` by the route it took before its Krylov basis.

    scipy's ``expm_multiply`` (Al-Mohy & Higham 2011) propagates the vacuum
    on the orbit matrix over the uniform grid ``times``; the tests hold the
    numpy propagation to it.  The orbit matrix is read from the slots of
    ``_orbit_blocks``.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    from eprsim.lindblad import _neighbour_starts, _orbit_blocks, _orbits, _sector_indices, _terms

    bounds, blocks = _orbit_blocks(_terms(model, basis), basis)
    size = bounds[-1]
    indices = _sector_indices(basis)
    orbit, _ = _orbits(indices, basis)
    # every slot, the empty ones too: tocsr sums their weight 0 into column 0 of a level
    cols = np.concatenate([idx + _neighbour_starts(bounds, k) for k, (idx, _) in enumerate(blocks)])
    vals = np.concatenate([w for _, w in blocks])
    rows = np.broadcast_to(np.arange(size), cols.shape)
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size)).tocsr()
    vec = np.zeros(size)
    vec[0] = 1.0
    vecs = [vec] if len(times) == 1 else expm_multiply(
        mat, vec, start=0.0, stop=times[-1] - times[0], num=len(times), endpoint=True)
    return [DensityMatrix(basis, indices, v[orbit]) for v in vecs]
