"""Sparse density-matrix routines against dense references kept in this file.

A :class:`DensityMatrix` stores only its nonzero entries, and every routine
below works on those.  Each reference is the dense d x d formula the
routine replaced; the two must agree within 1e-12 on a heated steady state,
a vacuum/TMSS mixture, a coherent product state and the two-mode squeezed
vacuum (from ``tmss_fock`` and as the outer product of its closed-form
amplitudes).
"""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import pure

from eprsim import (
    DensityMatrix,
    FockBasis,
    LindbladModel,
    NopaParams,
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
    """Half vacuum, half TMSS: the vacuum's one key repeats in the TMSS and is summed."""
    basis = FockBasis(12)
    vac, tmss = vacuum_state(basis), tmss_fock(TmssSpec(0.5), basis)
    return DensityMatrix(basis, np.r_[vac.keys, tmss.keys], 0.5 * np.r_[vac.values, tmss.values])


def coherent_product():
    """|0.3>|-0.2+0.1i>, each a dense expm displacement of the vacuum."""
    b = np.diag(np.sqrt(np.arange(1.0, 10)), k=1)
    c1, c2 = (scipy.linalg.expm(g * b.T - np.conj(g) * b)[:, 0] for g in (0.3, -0.2 + 0.1j))
    return pure(FockBasis(10), np.kron(c1, c2))


def tmss_closed_form():
    """The TMSS at r 0.5 from its amplitudes ``(-tanh r)^m / cosh r`` on ``|m, m>``."""
    m = np.arange(12)
    amp = np.zeros(144)
    amp[m * 12 + m] = (-np.tanh(0.5)) ** m / np.cosh(0.5)
    return pure(FockBasis(12), amp)


STATES = {
    "heated-steady-state": heated_steady_state,
    "vacuum-tmss-mixture": vacuum_tmss_mixture,
    "coherent-product": coherent_product,
    "tmss-pure": lambda: tmss_fock(TmssSpec(0.5), FockBasis(12)),
    "tmss-rho": tmss_closed_form,
}


@pytest.fixture(params=list(STATES), scope="module")
def rho(request):
    return STATES[request.param]()


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
    assert rho.keys.dtype == np.int64 and rho.values.dtype == complex
    assert np.all(np.diff(rho.keys) > 0)
    assert np.array_equal(rho.keys, np.flatnonzero(el))
    assert np.array_equal(rho.values, el.ravel()[rho.keys])


def test_constructor_takes_dense_or_sparse(rho, rng):
    """Every entry of the dense array, or the stored ones in any order, repeats summed."""
    order = rng.permutation(2 * len(rho.keys))
    absent = np.flatnonzero(rho.elements.ravel() == 0)[:1]
    keys = np.r_[np.r_[rho.keys, rho.keys][order], absent]
    values = np.r_[np.r_[rho.values, rho.values][order] / 2, np.zeros(len(absent))]
    every = np.arange(rho.basis.dimension**2)
    for given in ((every, rho.elements), (rho.keys, rho.values), (keys, values)):
        again = DensityMatrix(rho.basis, *given)
        assert np.array_equal(again.keys, rho.keys)
        assert np.max(np.abs(again.values - rho.values)) <= TOL
    with pytest.raises(ValueError, match="values do not match"):
        DensityMatrix(rho.basis, every, rho.elements[:-1])
    with pytest.raises(ValueError, match="keys"):
        DensityMatrix(rho.basis, [rho.basis.dimension**2], [1.0])


def test_fields_are_plain_and_replaceable(rho):
    """Every dataclass field reads from a state, and ``replace`` builds a new one.

    A profiler that sizes a call's arguments reads each entry of
    ``__dataclass_fields__``, so none may be init-only.
    """
    fields = {name: getattr(rho, name) for name in DensityMatrix.__dataclass_fields__}
    assert list(fields) == ["basis", "keys", "values"]
    assert sum(v.nbytes for v in fields.values() if hasattr(v, "nbytes")) == (
        rho.keys.nbytes + rho.values.nbytes)
    halved = dataclasses.replace(rho, values=rho.values / 2)
    assert halved.basis == rho.basis and np.array_equal(halved.keys, rho.keys)
    assert np.array_equal(halved.values, rho.values / 2)


def test_equality_and_hash_are_by_identity(rho):
    """Comparing or hashing a state neither compares nor hashes its arrays."""
    again = dataclasses.replace(rho)
    assert rho == rho and hash(rho) == hash(rho)
    assert (rho == again) is False and rho != again
    assert {rho: 1, again: 2}[rho] == 1


def test_fidelity_matches_dense(rho):
    target = tmss_fock(TmssSpec(0.5), rho.basis)
    expected = np.sum(rho.elements * target.elements.T).real  # tr(rho target)
    assert abs(fidelity(rho, target) - expected) <= TOL


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


def test_support_matches_dense(rho):
    """``block[i, j]`` is rho at ``(rows[i], cols[i, j])``, and nothing else is stored."""
    el = rho.elements
    rows, cols, block = _support(rho)
    assert np.array_equal(rows, np.flatnonzero((el != 0).any(axis=1)))
    rebuilt = np.zeros_like(el)
    np.add.at(rebuilt, (rows[:, None], cols), block)
    assert np.max(np.abs(rebuilt - el)) <= TOL


def test_wigner_from_density_matches_dense(rho):
    axis = np.linspace(-0.8, 0.8, 3)
    axes = (axis, axis, axis, 0.5 * axis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        got = wigner_from_density(rho, *axes)
    expected = dense_wigner(rho.elements, rho.basis.n_max, *axes)
    assert np.max(np.abs(got.reshape(expected.shape) - expected)) <= TOL


def test_elements_is_a_fresh_dense_array(rho):
    first, second = rho.elements, rho.elements
    assert first is not second
    first[0, 0] = 123.0
    assert rho.elements[0, 0] != 123.0
    assert first.dtype == complex


def test_mixed_state_wigner_contracts_the_stored_entries():
    """A heated n_max 20 steady state on a 5^4 grid: no rows x columns block of rho.

    Densifying the block over its stored rows and columns peaked at 195 MB
    traced; the entries alone make (grid points x stored entries) stacks.
    """
    import tracemalloc

    n_p, m_p = effective_N_M(NopaParams(0.3, 1.0))
    model = LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p, heating_rate=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rho = steady_state(model, FockBasis(20))
        axes = [np.linspace(-0.8, 0.8, 5)] * 4
        tracemalloc.start()
        try:
            got = wigner_from_density(rho, *axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 20e6
    expected = dense_wigner(rho.elements, 20, *axes)
    assert np.max(np.abs(got.reshape(expected.shape) - expected)) <= TOL
