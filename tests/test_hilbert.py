import numpy as np
import pytest
from conftest import dense_validate, pure

from eprsim import (
    DensityMatrix,
    FockBasis,
    moments,
    vacuum_state,
)
from eprsim.lindblad import _adjoint, _flat, _ladder, _product
from eprsim.states import _single_mode_ladder


def dense(monomial, basis):
    """The d x d array of a ladder monomial: ``weight[u]`` at ``(u, u + shift)``."""
    shift, weight = monomial
    out = np.zeros((basis.dimension, basis.dimension))
    rows = np.flatnonzero(weight)
    out[rows, rows + _flat(shift, basis)] = weight[rows]
    return out


def test_dimension():
    assert FockBasis(2).dimension == 4
    assert FockBasis(3).dimension == 9
    assert FockBasis(40).dimension == 1600


@pytest.mark.parametrize("n_max", [0, 1, -5])
def test_n_max_too_small(n_max):
    with pytest.raises(ValueError, match="n_max"):
        FockBasis(n_max)


def test_n_max_bounded_by_int64_flat_keys():
    """A state's flat keys row * d + col run to n_max**4, which must fit in int64."""
    assert FockBasis(55108).n_max**4 < 2**63
    with pytest.raises(ValueError, match="n_max must be below 55109"):
        FockBasis(55109)


def test_annihilation_single_mode():
    b = _single_mode_ladder(4)
    expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
    assert np.allclose(b, expected)


def test_mode_ordering_is_kron():
    """Mode 0 is the slow index: ladders embed as kron(b, id) / kron(id, b)."""
    basis = FockBasis(3)
    single = np.diag(np.sqrt([1.0, 2.0]), k=1)
    eye = np.eye(3)
    assert np.array_equal(dense(_ladder(0, basis), basis), np.kron(single, eye))
    assert np.array_equal(dense(_ladder(1, basis), basis), np.kron(eye, single))


def test_commutator_truncated():
    """[b, b†] = 1 except in the top Fock level, where truncation bites."""
    b = _single_mode_ladder(6)
    comm = b @ b.conj().T - b.conj().T @ b
    expected = np.eye(6)
    expected[-1, -1] = -5.0
    assert np.allclose(comm, expected)


def test_number_op_counts():
    basis = FockBasis(5)
    counts = np.diag(np.arange(5.0))
    for mode, expected in ((0, np.kron(counts, np.eye(5))), (1, np.kron(np.eye(5), counts))):
        b = _ladder(mode, basis)
        assert np.allclose(dense(_product(_adjoint(b, basis), b, basis), basis), expected)
    # |2>|3> is index 2*5 + 3
    amp = np.zeros(25)
    amp[13] = 1.0
    m = moments([pure(basis, amp)])
    assert m["n1"][0] == pytest.approx(2.0)
    assert m["n2"][0] == pytest.approx(3.0)


def test_density_validate():
    basis = FockBasis(2)
    dense_validate(vacuum_state(basis).elements)

    not_hermitian = np.eye(4, dtype=complex)
    not_hermitian[0, 1] = 0.5
    with pytest.raises(ValueError, match="[Hh]ermit"):
        dense_validate(not_hermitian)

    wrong_trace = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="trace"):
        dense_validate(wrong_trace)

    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        dense_validate(negative)


def test_density_matrix_rejects_wrong_dimension():
    """A state of a larger basis does not fit: its top-level entry lies outside the matrix."""
    top = 48 * 49 + 48  # |66><66| of n_max 7, composite index 48 of 49
    with pytest.raises(ValueError, match="keys must lie in"):
        DensityMatrix(FockBasis(6), [top], [1.0])
    with pytest.raises(ValueError, match="values do not match"):
        DensityMatrix(FockBasis(6), [0, 7], [1.0])


def test_density_matrix_arrays_are_read_only_copies():
    keys, values = np.array([5, 0, 5]), np.array([0.25, 0.5, 0.25])
    rho = DensityMatrix(FockBasis(2), keys, values)
    for arr in (rho.keys, rho.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    keys[0] = 1
    assert rho.keys.tolist() == [0, 5]
    assert rho.values.tolist() == [0.5, 0.5]


def test_vacuum_state():
    rho = vacuum_state(FockBasis(4))
    assert rho.keys.tolist() == [0]
    assert rho.values.tolist() == [1.0]
