"""Sparse density-matrix routines against dense references kept in this file.

A :class:`DensityMatrix` stores only its nonzero entries, and every routine
below works on those.  Each reference is the dense d x d formula the
routine replaced; the two must agree within 1e-12 on a heated steady state,
a vacuum/TMSS mixture, a coherent product state and the two-mode squeezed
vacuum (as a pure state and as a density matrix).
"""

import warnings

import numpy as np
import pytest
import scipy.linalg

from eprsim import (
    DensityMatrix,
    FockBasis,
    LindbladModel,
    NopaParams,
    PureState,
    TmssSpec,
    TruncationWarning,
    effective_N_M,
    fidelity,
    mean_phonon,
    moments,
    purity,
    steady_state,
    tmss_fock,
    vacuum_state,
    wigner_from_density,
)
from eprsim.states import _displaced_parity_single, _support

TOL = 1e-12


def heated_steady_state():
    n_p, m_p = effective_N_M(NopaParams(0.25, 1.0))
    model = LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p, heating_rate=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return steady_state(model, FockBasis(10))


def vacuum_tmss_mixture():
    basis = FockBasis(12)
    vac = vacuum_state(basis).density_matrix().elements
    tmss = tmss_fock(TmssSpec(0.5), basis).density_matrix().elements
    return DensityMatrix(basis, 0.5 * vac + 0.5 * tmss)


def coherent_product():
    """|0.3>|-0.2+0.1i>, each a dense expm displacement of the vacuum."""
    b = np.diag(np.sqrt(np.arange(1.0, 10)), k=1)
    c1, c2 = (scipy.linalg.expm(g * b.T - np.conj(g) * b)[:, 0] for g in (0.3, -0.2 + 0.1j))
    return PureState(FockBasis(10), np.kron(c1, c2)).density_matrix()


def tmss_pure():
    return tmss_fock(TmssSpec(0.5), FockBasis(12))


STATES = {
    "heated-steady-state": heated_steady_state,
    "vacuum-tmss-mixture": vacuum_tmss_mixture,
    "coherent-product": coherent_product,
    "tmss-pure": tmss_pure,
    "tmss-rho": lambda: tmss_pure().density_matrix(),
}


def as_rho(state):
    return state.density_matrix() if isinstance(state, PureState) else state


@pytest.fixture(params=list(STATES), scope="module")
def state(request):
    return STATES[request.param]()


@pytest.fixture(scope="module")
def rho(state):
    return as_rho(state)


# --- dense references ---------------------------------------------------------


def dense_ops(n):
    """Dense two-mode b1, b2 (mode 0 slowest)."""
    ladder = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    eye = np.eye(n)
    return np.kron(ladder, eye), np.kron(eye, ladder)


def dense_wigner(el, n, q1, p1, q2, p2):
    r4 = el.reshape(n, n, n, n)
    a1 = (q1[:, None] + 1j * p1[None, :]).ravel()
    a2 = (q2[:, None] + 1j * p2[None, :]).ravel()
    o1 = np.array([_displaced_parity_single(n, a) for a in a1])
    o2 = np.array([_displaced_parity_single(n, a) for a in a2])
    half = np.einsum("mpnq,anm->apq", r4, o1)
    return (2.0 / np.pi) ** 2 * np.einsum("apq,bqp->ab", half, o2).real


# --- tests ----------------------------------------------------------------------


def test_stores_exactly_the_nonzero_entries(rho):
    el = rho.elements
    assert rho.matrix.format == "csr" and rho.matrix.dtype == complex
    assert rho.matrix.nnz == np.count_nonzero(el)
    assert abs(rho.trace() - np.trace(el)) <= TOL
    assert np.max(np.abs(rho.normalized().elements - el / np.trace(el).real)) <= TOL


def test_constructor_takes_dense_or_sparse(rho):
    for given in (rho.elements, rho.matrix, rho.matrix.tocoo()):
        again = DensityMatrix(rho.basis, given)
        assert (again.matrix != rho.matrix).nnz == 0
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(rho.basis, rho.matrix[:-1])


def test_fidelity_matches_dense(rho):
    psi = tmss_fock(TmssSpec(0.5), rho.basis).amplitudes
    expected = np.real(psi.conj() @ rho.elements @ psi)
    assert abs(fidelity(rho, tmss_fock(TmssSpec(0.5), rho.basis)) - expected) <= TOL


def test_purity_matches_dense(rho):
    el = rho.elements
    assert abs(purity(rho) - np.sum(el * el.T).real) <= TOL


def test_mean_phonon_matches_dense(rho):
    b1, b2 = dense_ops(rho.basis.n_max)
    for mode, b in enumerate((b1, b2)):
        expected = np.trace(rho.elements @ b.T @ b).real
        assert abs(mean_phonon(rho, mode) - expected) <= TOL


def test_moments_match_dense(rho):
    el = rho.elements
    b1, b2 = dense_ops(rho.basis.n_max)
    q = b1 + b1.T + b2 + b2.T
    p = -1j * (b1 - b1.T) + 1j * (b2 - b2.T)

    def tr(op):
        return np.trace(el @ op)

    expected = {
        "n1": tr(b1.T @ b1).real, "n2": tr(b2.T @ b2).real, "b1b2": tr(b1 @ b2),
        "var_sum_q": tr(q @ q).real - tr(q).real ** 2,
        "var_diff_p": tr(p @ p).real - tr(p).real ** 2,
        "purity": np.sum(el * el.T).real,
    }
    got = moments([rho])
    for key, value in expected.items():
        assert abs(got[key][0] - value) <= TOL, key


def test_support_matches_dense(state):
    el = as_rho(state).elements
    nz = el != 0
    rows, cols, block = _support(state)
    assert np.array_equal(rows, np.flatnonzero(nz.any(axis=1)))
    assert np.array_equal(cols, np.flatnonzero(nz.any(axis=0)))
    assert np.max(np.abs(block - el[np.ix_(rows, cols)])) <= TOL


def test_wigner_from_density_matches_dense(state):
    axis = np.linspace(-0.8, 0.8, 3)
    axes = (axis, axis, axis, 0.5 * axis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        got = wigner_from_density(state, *axes)
    expected = dense_wigner(as_rho(state).elements, state.basis.n_max, *axes)
    assert np.max(np.abs(got.reshape(expected.shape) - expected)) <= TOL


def test_elements_is_a_fresh_dense_array(rho):
    first, second = rho.elements, rho.elements
    assert first is not second
    first[0, 0] = 123.0
    assert rho.elements[0, 0] != 123.0
    assert first.dtype == complex
