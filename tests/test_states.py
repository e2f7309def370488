import numpy as np
import pytest
import scipy.linalg

from eprsim import (
    FockBasis,
    TmssSpec,
    TruncationWarning,
    edge_population,
    tmss_fock,
    vacuum_state,
    wigner_analytic,
    wigner_from_density,
)
from eprsim.states import _displaced_parity_single, displaced_parity_expectation


def ladder(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1)


def test_tmss_amplitudes():
    basis = FockBasis(25)
    r = 0.4
    psi = tmss_fock(TmssSpec(r), basis)
    amp = psi.amplitudes.reshape(25, 25)
    # support only on |m, m>
    off = amp.copy()
    np.fill_diagonal(off, 0.0)
    assert np.all(off == 0.0)
    diag = np.diag(amp).real
    # geometric progression with ratio -tanh(r)
    assert np.allclose(diag[1:] / diag[:-1], -np.tanh(r), atol=1e-12)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_tmss_zero_squeezing_is_vacuum():
    basis = FockBasis(8)
    psi = tmss_fock(TmssSpec(0.0), basis)
    assert np.allclose(psi.amplitudes, vacuum_state(basis).amplitudes)


def test_tmss_requires_two_modes():
    assert tmss_fock(TmssSpec(0.3), FockBasis(8)).amplitudes.shape == (64,)
    with pytest.raises(ValueError):
        TmssSpec(-0.1)


def test_tmss_reduced_state_is_thermal():
    r = 0.5
    n = 30
    coo = tmss_fock(TmssSpec(r), FockBasis(n)).density_matrix().matrix.tocoo()
    # Trace out mode 1 over the stored entries: keep <m0 k| rho |n0 k>.
    (m0, m1), (n0, n1) = np.divmod(coo.row, n), np.divmod(coo.col, n)
    keep = m1 == n1
    reduced = np.zeros((n, n), dtype=complex)
    np.add.at(reduced, (m0[keep], n0[keep]), coo.data[keep])
    pops = np.real(np.diag(reduced))
    nbar = np.sinh(r) ** 2
    expected = (nbar / (nbar + 1.0)) ** np.arange(n) / (nbar + 1.0)
    assert np.allclose(pops, expected, atol=1e-10)
    off = reduced - np.diag(np.diag(reduced))
    assert np.max(np.abs(off)) < 1e-12


def test_squeeze_unitary_matches_fock_form():
    basis = FockBasis(24)
    spec = TmssSpec(0.4)
    b, eye = ladder(24), np.eye(24)
    pair = np.kron(b, eye) @ np.kron(eye, b)
    u = scipy.linalg.expm(spec.r * (pair - pair.T))
    generated = u @ vacuum_state(basis).amplitudes
    target = tmss_fock(spec, basis).amplitudes
    overlap = abs(np.vdot(target, generated))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_displacement_unitary_and_coherent():
    alpha = 0.6 - 0.3j
    b = ladder(24)
    d = scipy.linalg.expm(alpha * b.T - np.conj(alpha) * b)  # the dense oracle D(alpha)
    assert np.allclose(d @ d.conj().T, np.eye(24), atol=1e-10)
    coherent = d[:, 0]  # D(alpha)|0>
    m = np.arange(24)
    from scipy.special import gammaln

    expected = np.exp(-0.5 * abs(alpha) ** 2) * alpha**m / np.exp(0.5 * gammaln(m + 1.0))
    assert np.allclose(coherent, expected, atol=1e-10)


def test_parity_spectrum():
    """With no displacement the displaced parity is the bare parity (-1)^m."""
    par = _displaced_parity_single(5, 0j)
    assert np.allclose(par, np.diag([1.0, -1.0, 1.0, -1.0, 1.0]))


def test_parity_of_coherent_state():
    """<alpha| (-1)^n |alpha> = exp(-2|alpha|^2), and D P D† is an involution."""
    alpha = 0.8
    par = _displaced_parity_single(40, alpha)  # [0, 0] = <-alpha| P |-alpha>
    assert par[0, 0].real == pytest.approx(np.exp(-2.0 * alpha**2), abs=1e-10)
    assert np.max(np.abs(par @ par - np.eye(40))) <= 1e-12


def test_wigner_analytic_vacuum_product():
    q = np.linspace(-1.5, 1.5, 7)
    w = wigner_analytic(TmssSpec(0.0), q[:, None], 0.0, q[None, :], 0.0)
    expected = (2.0 / np.pi) ** 2 * np.exp(-2.0 * (q[:, None] ** 2 + q[None, :] ** 2))
    assert np.allclose(w, expected, atol=1e-14)


def test_wigner_analytic_peak_and_correlations():
    spec = TmssSpec(0.7)
    # peak value (2/pi)^2 at the origin, independent of r
    assert wigner_analytic(spec, 0.0, 0.0, 0.0, 0.0) == pytest.approx(4.0 / np.pi**2)
    # anti-correlated positions are favored over correlated ones
    anti = wigner_analytic(spec, 1.0, 0.0, -1.0, 0.0)
    corr = wigner_analytic(spec, 1.0, 0.0, 1.0, 0.0)
    assert anti > corr
    # correlated momenta are favored over anti-correlated ones
    mom_corr = wigner_analytic(spec, 0.0, 1.0, 0.0, 1.0)
    mom_anti = wigner_analytic(spec, 0.0, 1.0, 0.0, -1.0)
    assert mom_corr > mom_anti


def test_wigner_from_density_matches_analytic():
    basis = FockBasis(24)
    spec = TmssSpec(0.3)
    rho = tmss_fock(spec, basis).density_matrix()
    axis = np.linspace(-1.0, 1.0, 3)
    out = wigner_from_density(rho, axis, axis, axis, axis)
    mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    expected = wigner_analytic(spec, *mesh)
    assert out.shape == (3, 3, 3, 3)
    assert np.max(np.abs(out - expected)) < 1e-6


def test_wigner_from_density_keeps_the_shape_of_an_empty_axis():
    rho = tmss_fock(TmssSpec(0.2), FockBasis(6)).density_matrix()
    assert wigner_from_density(rho, [], [0.0, 1.0], 0.0, [0.1, 0.2, 0.3]).shape == (0, 2, 1, 3)


def test_wigner_equals_scaled_displaced_parity():
    basis = FockBasis(16)
    rho = tmss_fock(TmssSpec(0.2), basis).density_matrix()
    w = wigner_from_density(rho, 0.4, -0.2, 0.1, 0.3)[0, 0, 0, 0]
    e = displaced_parity_expectation(rho, 0.4 - 0.2j, 0.1 + 0.3j)
    assert w == pytest.approx((2.0 / np.pi) ** 2 * e, rel=1e-12)


def test_edge_population_and_warning():
    small = FockBasis(6)
    rho = tmss_fock(TmssSpec(1.2), small).density_matrix()
    assert edge_population(rho) > 1e-3
    with pytest.warns(TruncationWarning):
        wigner_from_density(rho, 0.1, 0.1, 0.1, 0.1)

    big = FockBasis(40)
    rho_ok = tmss_fock(TmssSpec(0.5), big).density_matrix()
    assert edge_population(rho_ok) < 1e-10
