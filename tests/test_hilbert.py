import numpy as np
import pytest
from conftest import dense_validate

from eprsim import (
    DensityMatrix,
    FockBasis,
    PureState,
    mean_phonon,
    moments,
    vacuum_state,
)
from eprsim.hilbert import _single_mode_ladder
from eprsim.lindblad import _ladders


def test_dimension():
    assert FockBasis(2).dimension == 4
    assert FockBasis(3).dimension == 9
    assert FockBasis(40).dimension == 1600


@pytest.mark.parametrize("n_max", [0, 1, -5])
def test_n_max_too_small(n_max):
    with pytest.raises(ValueError, match="n_max"):
        FockBasis(n_max)


def test_annihilation_single_mode():
    b = _single_mode_ladder(4)
    expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
    assert np.allclose(b, expected)


def test_mode_ordering_is_kron():
    """Mode 0 is the slow index: ladders embed as kron(b, id) / kron(id, b)."""
    basis = FockBasis(3)
    single = np.diag(np.sqrt([1.0, 2.0]), k=1)
    eye = np.eye(3)
    b1, b2 = _ladders(basis)
    assert np.array_equal(b1.toarray(), np.kron(single, eye))
    assert np.array_equal(b2.toarray(), np.kron(eye, single))


def test_commutator_truncated():
    """[b, b†] = 1 except in the top Fock level, where truncation bites."""
    b = _single_mode_ladder(6)
    comm = b @ b.conj().T - b.conj().T @ b
    expected = np.eye(6)
    expected[-1, -1] = -5.0
    assert np.allclose(comm, expected)


def test_number_op_counts():
    basis = FockBasis(5)
    b1, b2 = _ladders(basis)
    counts = np.diag(np.arange(5.0))
    assert np.allclose((b1.T @ b1).toarray(), np.kron(counts, np.eye(5)))
    assert np.allclose((b2.T @ b2).toarray(), np.kron(np.eye(5), counts))
    # |2>|3> is index 2*5 + 3
    amp = np.zeros(25)
    amp[13] = 1.0
    m = moments([PureState(basis, amp).density_matrix()])
    assert m["n1"][0] == pytest.approx(2.0)
    assert m["n2"][0] == pytest.approx(3.0)


@pytest.mark.parametrize("mode", [-1, 2])
def test_bad_mode_index(mode):
    rho = vacuum_state(FockBasis(4)).density_matrix()
    with pytest.raises(ValueError):
        mean_phonon(rho, mode)


def test_pure_state_normalization():
    basis = FockBasis(2)
    psi = PureState(basis, [3.0, 4.0, 0.0, 0.0])
    assert psi.norm() == pytest.approx(5.0)
    assert psi.normalized().norm() == pytest.approx(1.0)
    rho = psi.density_matrix()
    assert rho.trace().real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PureState(basis, [0.0, 0.0, 0.0, 0.0]).normalized()


def test_pure_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PureState(FockBasis(2), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PureState(FockBasis(2), [np.inf, 0.0, 0.0, 0.0])


def test_density_validate():
    basis = FockBasis(2)
    dense_validate(vacuum_state(basis).density_matrix().elements)

    not_hermitian = np.eye(4, dtype=complex)
    not_hermitian[0, 1] = 0.5
    with pytest.raises(ValueError, match="[Hh]ermit"):
        dense_validate(DensityMatrix(basis, not_hermitian).elements)

    wrong_trace = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="trace"):
        dense_validate(DensityMatrix(basis, wrong_trace).elements)

    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        dense_validate(DensityMatrix(basis, negative).elements)


def test_density_matrix_rejects_wrong_dimension():
    """A matrix shaped for one mode does not fit the two-mode basis."""
    single_mode_vacuum = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="does not match basis dimension"):
        DensityMatrix(FockBasis(6), single_mode_vacuum)


def test_vacuum_state():
    basis = FockBasis(4)
    psi = vacuum_state(basis)
    assert psi.amplitudes[0] == 1.0
    assert np.all(psi.amplitudes[1:] == 0.0)
