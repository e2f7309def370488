import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from conftest import expm_displaced_parity

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
from eprsim.metrics import MAX_SETTING_MAGNITUDE
from eprsim.states import _displaced_parity_single, displaced_parity_expectation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def ladder(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), k=1)


def test_tmss_amplitudes():
    """Stored on the n_max**2 pairs of diagonal kets, with the closed-form amplitudes."""
    n, r = 25, 0.4
    rho = tmss_fock(TmssSpec(r), FockBasis(n))
    m = np.arange(n)
    ket = m * n + m
    assert np.array_equal(rho.keys, (ket[:, None] * n * n + ket).ravel())
    c = (-np.tanh(r)) ** m / np.cosh(r)
    assert np.max(np.abs(rho.values - np.outer(c, c).ravel())) <= 1e-15
    assert np.trace(rho.elements).real == pytest.approx(1.0, abs=1e-12)


def test_tmss_zero_squeezing_is_vacuum():
    basis = FockBasis(8)
    rho, vac = tmss_fock(TmssSpec(0.0), basis), vacuum_state(basis)
    assert np.array_equal(rho.keys, vac.keys)
    assert np.allclose(rho.values, vac.values)


def test_tmss_requires_two_modes():
    assert tmss_fock(TmssSpec(0.3), FockBasis(8)).elements.shape == (64, 64)
    with pytest.raises(ValueError):
        TmssSpec(-0.1)


def test_tmss_reduced_state_is_thermal():
    r = 0.5
    n = 30
    rho = tmss_fock(TmssSpec(r), FockBasis(n))
    # Trace out mode 1 over the stored entries: keep <m0 k| rho |n0 k>.
    rows, cols = np.divmod(rho.keys, n * n)
    (m0, m1), (n0, n1) = np.divmod(rows, n), np.divmod(cols, n)
    keep = m1 == n1
    reduced = np.zeros((n, n), dtype=complex)
    np.add.at(reduced, (m0[keep], n0[keep]), rho.values[keep])
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
    generated = u[:, 0]  # applied to the vacuum |00>
    target = tmss_fock(spec, basis).elements
    overlap = np.real(generated.conj() @ target @ generated)
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


def _axis(block):
    return np.linspace(block["start"], block["stop"], block["num"])


def _shipped_settings():
    """Every displacement the shipped configs measure, and some at the magnitude bound."""
    alphas = {0j}
    for name in ("bell_default", "bell_beta2_negative", "bell_vacuum"):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
        root = np.sqrt(_axis(cfg["j_grid"]))
        alphas.update(complex(a) for a in np.concatenate([root, cfg["beta2_sign"] * root]))
    grid = json.loads((CONFIGS / "wigner_slice.json").read_text(encoding="utf-8"))["grid"]
    for q, p in ((_axis(grid["q1"]), _axis(grid["p1"])), (_axis(grid["q2"]), _axis(grid["p2"]))):
        alphas.update(complex(a) for a in (q[:, None] + 1j * p[None, :]).ravel())
    alphas.update(MAX_SETTING_MAGNITUDE * np.exp(1j * np.pi * np.arange(8) / 4))
    return sorted(alphas, key=lambda a: (abs(a), np.angle(a)))


SHIPPED_SETTINGS = _shipped_settings()


@pytest.mark.parametrize("n_max", [2, 5, 20, 40])
def test_displaced_parity_matches_expm_route(n_max):
    """The eigh kernel is scipy's expm route, element by element, and a Hermitian involution."""
    assert max(abs(a) for a in SHIPPED_SETTINGS) == MAX_SETTING_MAGNITUDE
    for alpha in SHIPPED_SETTINGS:
        got = _displaced_parity_single(n_max, alpha)
        assert np.max(np.abs(got - expm_displaced_parity(n_max, alpha))) <= 1e-13, alpha
        assert np.max(np.abs(got - got.conj().T)) <= 1e-13, alpha
        assert np.max(np.abs(got @ got - np.eye(n_max))) <= 1e-13, alpha


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
    rho = tmss_fock(spec, basis)
    axis = np.linspace(-1.0, 1.0, 3)
    out = wigner_from_density(rho, axis, axis, axis, axis)
    mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    expected = wigner_analytic(spec, *mesh)
    assert out.shape == (3, 3, 3, 3)
    assert np.max(np.abs(out - expected)) < 1e-6


def test_wigner_from_density_keeps_the_shape_of_an_empty_axis():
    rho = tmss_fock(TmssSpec(0.2), FockBasis(6))
    assert wigner_from_density(rho, [], [0.0, 1.0], 0.0, [0.1, 0.2, 0.3]).shape == (0, 2, 1, 3)


def test_wigner_equals_scaled_displaced_parity():
    basis = FockBasis(16)
    rho = tmss_fock(TmssSpec(0.2), basis)
    w = wigner_from_density(rho, 0.4, -0.2, 0.1, 0.3)[0, 0, 0, 0]
    e = displaced_parity_expectation(rho, 0.4 - 0.2j, 0.1 + 0.3j)
    assert w == pytest.approx((2.0 / np.pi) ** 2 * e, rel=1e-12)


def test_edge_population_and_warning():
    small = FockBasis(6)
    rho = tmss_fock(TmssSpec(1.2), small)
    assert edge_population(rho) > 1e-3
    with pytest.warns(TruncationWarning):
        wigner_from_density(rho, 0.1, 0.1, 0.1, 0.1)

    big = FockBasis(40)
    rho_ok = tmss_fock(TmssSpec(0.5), big)
    assert edge_population(rho_ok) < 1e-10
