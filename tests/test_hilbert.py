import numpy as np
import pytest

from eprsim import (
    DensityMatrix,
    FockBasis,
    PureState,
    mean_phonon,
    moments,
    partial_trace,
    recommended_n_max,
    vacuum_state,
)
from eprsim.hilbert import _single_mode_ladder
from eprsim.lindblad import _ladders


def test_dimension():
    assert FockBasis(3).dimension == 3
    assert FockBasis(3, 2).dimension == 9
    assert FockBasis(40, 2).dimension == 1600


@pytest.mark.parametrize("n_max", [0, 1, -5])
def test_n_max_too_small(n_max):
    with pytest.raises(ValueError, match="n_max"):
        FockBasis(n_max)


def test_n_modes_restricted():
    with pytest.raises(ValueError, match="n_modes"):
        FockBasis(4, 3)


def test_annihilation_single_mode():
    b = _single_mode_ladder(4)
    expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
    assert np.allclose(b, expected)


def test_mode_ordering_is_kron():
    """Mode 0 is the slow index: ladders embed as kron(b, id) / kron(id, b)."""
    basis = FockBasis(3, 2)
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
    basis = FockBasis(5, 2)
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
    rho = vacuum_state(FockBasis(4, 2)).density_matrix()
    with pytest.raises(ValueError):
        partial_trace(rho, mode)
    with pytest.raises(ValueError):
        mean_phonon(rho, mode)


def test_pure_state_normalization():
    basis = FockBasis(3)
    psi = PureState(basis, [3.0, 4.0, 0.0])
    assert psi.norm() == pytest.approx(5.0)
    assert psi.normalized().norm() == pytest.approx(1.0)
    rho = psi.density_matrix()
    assert rho.trace().real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PureState(basis, [0.0, 0.0, 0.0]).normalized()


def test_pure_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PureState(FockBasis(3), [1.0, 0.0])
    with pytest.raises(ValueError):
        PureState(FockBasis(3), [np.inf, 0.0, 0.0])


def test_density_validate():
    basis = FockBasis(3)
    good = vacuum_state(basis).density_matrix()
    good.validate()

    not_hermitian = np.eye(3, dtype=complex)
    not_hermitian[0, 1] = 0.5
    with pytest.raises(ValueError, match="[Hh]ermit"):
        DensityMatrix(basis, not_hermitian).validate()

    wrong_trace = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(basis, wrong_trace).validate()

    negative = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(basis, negative).validate()


def test_partial_trace_product_state():
    basis = FockBasis(3, 2)
    single = FockBasis(3)
    a = PureState(single, [1.0, 1.0, 0.0]).normalized()
    b = PureState(single, [0.0, 1.0, 1.0]).normalized()
    joint = PureState(basis, np.kron(a.amplitudes, b.amplitudes)).density_matrix()
    rho_a = partial_trace(joint, keep_mode=0)
    rho_b = partial_trace(joint, keep_mode=1)
    assert np.allclose(rho_a.elements, a.density_matrix().elements)
    assert np.allclose(rho_b.elements, b.density_matrix().elements)


def test_partial_trace_entangled_is_mixed():
    basis = FockBasis(2, 2)
    bell = PureState(basis, [1.0, 0.0, 0.0, 1.0]).normalized().density_matrix()
    reduced = partial_trace(bell, keep_mode=0)
    assert np.allclose(reduced.elements, 0.5 * np.eye(2))


def test_vacuum_state():
    basis = FockBasis(4, 2)
    psi = vacuum_state(basis)
    assert psi.amplitudes[0] == 1.0
    assert np.all(psi.amplitudes[1:] == 0.0)


def test_recommended_n_max_grows_with_r():
    values = [recommended_n_max(r) for r in (0.0, 0.5, 1.0, 1.5)]
    assert values[0] >= 2
    assert all(isinstance(v, int) for v in values)
    assert values == sorted(values)
    # ln 3 is the operating point used throughout; the heuristic must
    # comfortably cover it within the default n_max = 40 budget.
    assert recommended_n_max(np.log(3.0)) <= 40
