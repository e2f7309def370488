import time

import numpy as np
import pytest

from eprsim import FockBasis, LindbladModel, NopaParams, effective_N_M, steady_state


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
