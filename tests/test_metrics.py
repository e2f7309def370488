import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from conftest import pure

from eprsim import (
    BellSettings,
    CovarianceState,
    DensityMatrix,
    FockBasis,
    LindbladModel,
    NopaParams,
    TmssSpec,
    TruncationWarning,
    chsh_value,
    effective_N_M,
    epr_criterion,
    evolve,
    fidelity,
    log_negativity,
    model_from_lindblad,
    moments,
    purity,
    squeeze_parameter,
    steady_covariance,
    steady_state,
    tmss_fock,
    vacuum_state,
    wigner_analytic,
)
from eprsim import states
from eprsim.cli import main
from eprsim.states import (
    _displaced_parity_single,
    displaced_parity_expectation,
    wigner_from_density,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tmss_covariance(r):
    """Analytic two-mode squeezed covariance in (Q1, P1, Q2, P2) ordering."""
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return CovarianceState(
        np.array(
            [
                [c, 0.0, -s, 0.0],
                [0.0, c, 0.0, s],
                [-s, 0.0, c, 0.0],
                [0.0, s, 0.0, c],
            ]
        )
    )


def analytic_parity_correlation(r, alpha, beta):
    """Closed-form E(alpha, beta) for the two-mode squeezed vacuum."""
    mag = abs(alpha) ** 2 + abs(beta) ** 2
    cross = np.real(alpha * beta)
    return np.exp(-2.0 * np.cosh(2.0 * r) * mag - 4.0 * np.sinh(2.0 * r) * cross)


def test_fidelity_limits():
    basis = FockBasis(6)
    vac = vacuum_state(basis)
    assert fidelity(vac, vac) == pytest.approx(1.0, abs=1e-12)
    one = np.zeros(36)
    one[1] = 1.0
    assert fidelity(pure(basis, one), vac) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_of_mixture():
    basis = FockBasis(4)
    vac = vacuum_state(basis)
    tm = tmss_fock(TmssSpec(0.4), basis)
    mixed = DensityMatrix(basis, np.r_[vac.keys, tm.keys], 0.5 * np.r_[vac.values, tm.values])
    expected = 0.5 + 0.5 * tm.values[0].real  # |<00|tmss>|^2 is the vacuum entry of tmss
    assert fidelity(mixed, vac) == pytest.approx(expected, rel=1e-12)


def test_fidelity_with_itself_is_the_purity():
    """``purity`` sums ``|rho_ij|**2``, the products ``fidelity(rho, rho)`` forms, in its order.

    Bit for bit on the solvers' states and the TMSS, all exactly Hermitian.
    """
    n_p, m_p = effective_N_M(NopaParams(0.3, 1.0))
    heated = LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p, heating_rate=0.05)
    rhos = [_heated_steady_state(12, h) for h in (0.0, 0.02, 0.03, 0.05)]
    rhos += evolve(heated, FockBasis(10), np.linspace(0.0, 4.0, 5))
    rhos += [tmss_fock(TmssSpec(r), FockBasis(20)) for r in (0.0, 0.3, 1.0, 2.0)]
    for rho in rhos:
        assert purity(rho) == fidelity(rho, rho)
    assert purity(rhos[3]) < 1.0


def _fock_2_3():
    amp = np.zeros(25)
    amp[2 * 5 + 3] = 1.0  # |2, 3>
    return pure(FockBasis(5), amp)


def test_mean_phonon_fock_state():
    m = moments([_fock_2_3()])
    assert m["n1"][0] == pytest.approx(2.0)
    assert m["n2"][0] == pytest.approx(3.0)


@pytest.mark.parametrize("make_rho", [
    _fock_2_3,
    lambda: _heated_steady_state(),
    lambda: coherent_product(FockBasis(8), 0.6, 0.4j),
], ids=["fock-2-3", "heated-steady-state", "coherent-rho"])
def test_mean_phonon_matches_number_operator(make_rho):
    rho = make_rho()
    m = moments([rho])
    for key, mode in (("n1", 0), ("n2", 1)):
        counts = [np.eye(rho.basis.n_max)] * 2
        counts[mode] = np.diag(np.arange(rho.basis.n_max, dtype=float))
        reference = np.trace(rho.elements @ np.kron(*counts)).real
        assert abs(m[key][0] - reference) <= 1e-12


def test_epr_criterion():
    value, entangled = epr_criterion(2.0, 2.0)
    assert value == pytest.approx(4.0)
    assert not entangled  # vacuum level is the boundary, not a violation

    value, entangled = epr_criterion(0.5, 0.7)
    assert value == pytest.approx(1.2)
    assert entangled

    with pytest.raises(ValueError):
        epr_criterion(-0.1, 1.0)


def coherent_product(basis, g1, g2):
    """The product coherent state |g1>|g2>, displaced by dense expm D(g) from vacuum."""
    b = np.diag(np.sqrt(np.arange(1.0, basis.n_max)), k=1)
    c1, c2 = (scipy.linalg.expm(g * b.T - np.conj(g) * b)[:, 0] for g in (g1, g2))
    return pure(basis, np.kron(c1, c2))


def dense_parity_expectation(rho, alpha1, alpha2):
    """Reference: the dense contraction over all n_max**4 entries of rho."""
    n = rho.basis.n_max
    r4 = rho.elements.reshape(n, n, n, n)  # [m0, m1, n0, n1]
    o1 = _displaced_parity_single(n, alpha1)
    o2 = _displaced_parity_single(n, alpha2)
    return float(np.einsum("mpnq,nm,qp->", r4, o1, o2).real)


def test_parity_correlation_product_coherent():
    """For |g1>|g2>, E factorizes into exp(-2|g - setting|^2) terms."""
    basis = FockBasis(30)
    g1, g2 = 0.3, -0.2
    rho = coherent_product(basis, g1, g2)
    alpha, beta = 0.1, 0.25
    expected = np.exp(-2.0 * abs(g1 - alpha) ** 2) * np.exp(-2.0 * abs(g2 - beta) ** 2)
    assert displaced_parity_expectation(rho, alpha, beta) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("r,j", [(0.1, 0.05), (0.6, 0.25), (1.2, 0.5)])
def test_support_contraction_is_bit_identical_for_tmss(r, j):
    """Pure TMSS at n_max 40: the golden sweep's state and truncation."""
    rho = tmss_fock(TmssSpec(r), FockBasis(40))
    root = complex(math.sqrt(j))
    for alpha, beta in [(0j, 0j), (0j, root), (root, 0j), (root, root), (root, -root)]:
        expected = dense_parity_expectation(rho, alpha, beta)
        assert displaced_parity_expectation(rho, alpha, beta) == expected


def _vacuum_tmss_mixture():
    basis = FockBasis(20)
    vac, tmss = vacuum_state(basis), tmss_fock(TmssSpec(0.5), basis)
    return DensityMatrix(basis, np.r_[vac.keys, tmss.keys], 0.5 * np.r_[vac.values, tmss.values])


def _heated_steady_state(n_max=10, heating_rate=0.05):
    n_p, m_p = effective_N_M(NopaParams(0.25, 1.0))
    model = LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p, heating_rate=heating_rate)
    return steady_state(model, FockBasis(n_max))


@pytest.mark.parametrize("make_rho", [
    _vacuum_tmss_mixture,
    _heated_steady_state,
    lambda: coherent_product(FockBasis(30), 0.3, -0.2),
], ids=["vacuum-tmss-mixture", "heated-steady-state", "coherent-rho"])
def test_support_contraction_matches_dense_reference(make_rho):
    rho = make_rho()
    for alpha, beta in [(0.0, 0.0), (0.3, -0.2), (0.4 - 0.2j, 0.1 + 0.3j), (-0.5j, 0.7)]:
        expected = dense_parity_expectation(rho, complex(alpha), complex(beta))
        assert abs(displaced_parity_expectation(rho, alpha, beta) - expected) <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_chsh_sweep_matches_closed_form_wigner(sign):
    """Third route: E = (pi/2)^2 W(alpha, beta) for the untruncated TMSS.

    The truncated Fock state differs by at most its amplitude tail
    tanh(r)^n_max.
    """
    n_max = 40
    basis = FockBasis(n_max)
    for r in np.linspace(0.1, 1.2, 12):
        spec = TmssSpec(float(r))
        rho = tmss_fock(spec, basis)

        def corr(a, b):
            return (math.pi / 2.0) ** 2 * wigner_analytic(spec, a, 0.0, b, 0.0)

        for j in np.linspace(0.05, 0.5, 10):
            root = math.sqrt(j)
            b_val = chsh_value(rho, BellSettings(0.0, root, 0.0, sign * root))
            ref = corr(0, 0) + corr(0, sign * root) + corr(root, 0) - corr(root, sign * root)
            assert abs(b_val - ref) <= math.tanh(r) ** n_max + 1e-9


def test_bell_settings_validation():
    s = BellSettings(0.0, 0.5, 0.0, -0.5)
    assert s.alpha2 == 0.5 + 0.0j
    with pytest.raises(ValueError):
        BellSettings(0.0, 4.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        BellSettings(0.0, np.nan, 0.0, 0.0)


@pytest.mark.parametrize("r,j", [(0.3, 0.08), (0.6, 0.1), (0.9, 0.05)])
def test_chsh_matches_analytic_form(r, j):
    basis = FockBasis(30)
    rho = tmss_fock(TmssSpec(r), basis)
    root = np.sqrt(j)
    settings = BellSettings(0.0, root, 0.0, root)
    e11 = analytic_parity_correlation(r, 0.0, 0.0)
    e12 = analytic_parity_correlation(r, 0.0, root)
    e21 = analytic_parity_correlation(r, root, 0.0)
    e22 = analytic_parity_correlation(r, root, root)
    expected = e11 + e12 + e21 - e22
    assert chsh_value(rho, settings) == pytest.approx(expected, abs=1e-8)


def test_chsh_violation_point():
    basis = FockBasis(30)
    rho = tmss_fock(TmssSpec(0.8), basis)
    root = np.sqrt(0.05)
    b_val = chsh_value(rho, BellSettings(0.0, root, 0.0, root))
    assert b_val > 2.0


def test_chsh_warns_once_on_a_truncated_state():
    """The truncation check runs once per state, not once per correlator or CHSH value."""
    rho = tmss_fock(TmssSpec(1.2), FockBasis(6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chsh_value(rho, BellSettings(0.0, 0.3, 0.0, 0.3))
        assert [w.category for w in caught] == [TruncationWarning]
        assert str(caught[0].message).startswith("chsh_value: population")
        assert caught[0].filename == __file__  # attributed to the caller of chsh_value
        chsh_value(rho, BellSettings(0.0, 0.2, 0.0, -0.2))
        assert len(caught) == 1
        chsh_value(tmss_fock(TmssSpec(1.2), FockBasis(6)), BellSettings(0.0, 0.3, 0.0, 0.3))
        assert [w.category for w in caught] == [TruncationWarning] * 2
        assert caught[1].message.args == caught[0].message.args


def test_bell_sweep_builds_one_layout_and_checks_once_per_state(monkeypatch, tmp_path):
    """The default 12 x 10 sweep: 12 support layouts and 12 truncation checks, not 480 and 120."""
    checked = []
    edge_population = states.edge_population
    monkeypatch.setattr(states, "edge_population",
                        lambda state, *band: checked.append(state) or edge_population(state, *band))
    builds = states._support.cache_info().misses
    assert main(["bell-sweep", "--config", str(CONFIGS / "bell_default.json"),
                 "--out", str(tmp_path / "bell.csv")]) == 0
    assert states._support.cache_info().misses - builds == 12
    assert len(checked) == len(set(map(id, checked))) == 12


def test_support_layout_is_read_only_and_never_stale():
    """Two states with the same keys and different values each get their own E."""
    basis = FockBasis(12)
    weak, strong = tmss_fock(TmssSpec(0.3), basis), tmss_fock(TmssSpec(0.6), basis)
    assert np.array_equal(weak.keys, strong.keys)
    for arr in states._support(weak):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1
    alpha, beta = 0.2 + 0.1j, -0.3j
    first = {rho: displaced_parity_expectation(rho, alpha, beta) for rho in (weak, strong)}
    for rho in (weak, strong, strong, weak):
        e = displaced_parity_expectation(rho, alpha, beta)
        assert e == first[rho]
        assert abs(e - dense_parity_expectation(rho, alpha, beta)) <= 1e-12
    assert abs(first[weak] - first[strong]) > 0.1


def test_wigner_after_a_sweep_reads_its_own_state():
    basis = FockBasis(16)
    swept = tmss_fock(TmssSpec(0.4), basis)
    for j in (0.05, 0.2):
        chsh_value(swept, BellSettings(0.0, math.sqrt(j), 0.0, math.sqrt(j)))
    rho = tmss_fock(TmssSpec(0.2), basis)
    w = wigner_from_density(rho, 0.4, -0.2, 0.1, 0.3)[0, 0, 0, 0]
    e = dense_parity_expectation(rho, 0.4 - 0.2j, 0.1 + 0.3j)
    assert w == pytest.approx((2.0 / np.pi) ** 2 * e, rel=1e-12)


def test_chsh_vacuum_stays_classical():
    basis = FockBasis(16)
    vac = vacuum_state(basis)
    for j in (0.02, 0.05, 0.2, 0.5):
        root = np.sqrt(j)
        b_val = chsh_value(vac, BellSettings(0.0, root, 0.0, root))
        expected = 1.0 + 2.0 * np.exp(-2.0 * j) - np.exp(-4.0 * j)
        assert b_val == pytest.approx(expected, abs=1e-10)
        assert b_val <= 2.0 + 1e-9


def test_log_negativity_vacuum_and_thermal():
    assert log_negativity(CovarianceState(np.eye(4))) == pytest.approx(0.0, abs=1e-12)
    thermal = CovarianceState(3.0 * np.eye(4))
    assert log_negativity(thermal) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
def test_log_negativity_tmss(r):
    assert log_negativity(tmss_covariance(r)) == pytest.approx(
        2.0 * r / np.log(2.0), rel=1e-10
    )


def test_log_negativity_of_steady_state():
    eps = 0.5
    n_p, m_p = effective_N_M(NopaParams(eps, 1.0))
    model = LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p)
    sigma = steady_covariance(model_from_lindblad(model))
    r = squeeze_parameter(NopaParams(eps, 1.0))
    assert log_negativity(sigma) == pytest.approx(2.0 * r / np.log(2.0), rel=1e-9)
