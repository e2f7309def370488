import numpy as np
import pytest
import scipy.linalg
from conftest import block_expm_covariance
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import (
    CovarianceState,
    DriftDiffusion,
    LindbladModel,
    NopaParams,
    NumericalError,
    cascade_model,
    effective_N_M,
    epr_variances,
    evolve_covariance,
    model_from_lindblad,
    squeeze_parameter,
    steady_covariance,
    symplectic_form,
)


def nopa_model(eps, heating=0.0):
    n_p, m_p = effective_N_M(NopaParams(eps, 1.0))
    return LindbladModel(gamma=1.0, n_param=n_p, m_param=m_p, heating_rate=heating)


def test_symplectic_form():
    omega = symplectic_form(2)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(omega[:2, :2], j)
    assert np.allclose(omega[2:, 2:], j)
    assert np.allclose(omega[:2, 2:], 0.0)
    assert np.allclose(omega @ omega, -np.eye(4))


def test_vacuum_is_valid():
    vac = CovarianceState(np.eye(4))
    assert vac.n_modes == 2
    assert np.allclose(vac.cov, np.eye(4))


def test_covariance_validation():
    with pytest.raises(ValueError, match="uncertainty"):
        CovarianceState(0.5 * np.eye(4))
    bad_sym = np.eye(4)
    bad_sym[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceState(bad_sym)
    with pytest.raises(ValueError, match="shape"):
        CovarianceState(np.eye(6)[:4])
    with pytest.raises(ValueError, match="even"):
        CovarianceState(np.eye(3))


def test_drift_diffusion_validation():
    with pytest.raises(ValueError, match="symmetric"):
        DriftDiffusion(-np.eye(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError, match="semidefinite"):
        DriftDiffusion(-np.eye(2), -np.eye(2))


@pytest.mark.parametrize("make", [
    lambda: CovarianceState(np.eye(4)),
    lambda: DriftDiffusion(-np.eye(4), 2.0 * np.eye(4)),
], ids=["covariance", "drift-diffusion"])
def test_equality_and_hash_are_by_identity(make):
    """Comparing or hashing a Gaussian value neither compares nor hashes its arrays."""
    one, again = make(), make()
    assert one == one and hash(one) == hash(one)
    assert (one == again) is False and one != again
    assert {one: 1, again: 2}[one] == 1


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_steady_covariance_epr_variances(eps):
    params = NopaParams(eps, 1.0)
    dd = model_from_lindblad(nopa_model(eps))
    sigma = steady_covariance(dd)
    r = squeeze_parameter(params)
    var_q, var_p = epr_variances(sigma)
    assert var_q == pytest.approx(2.0 * np.exp(-2.0 * r), abs=1e-10)
    assert var_p == pytest.approx(2.0 * np.exp(-2.0 * r), abs=1e-10)
    n_p, m_p = effective_N_M(params)
    assert sigma.cov[0, 0] == pytest.approx(1.0 + 2.0 * n_p, abs=1e-10)
    assert sigma.cov[0, 2] == pytest.approx(-2.0 * m_p, abs=1e-10)
    assert sigma.cov[1, 3] == pytest.approx(+2.0 * m_p, abs=1e-10)


def test_steady_covariance_requires_hurwitz():
    dd_unstable = DriftDiffusion(np.eye(2) * 0.5, np.eye(2))
    with pytest.raises(ValueError, match="Hurwitz"):
        steady_covariance(dd_unstable)


def lyapunov_reference(dd):
    """scipy's Bartels-Stewart solution of ``A S + S A^T = -D``, symmetrised."""
    sigma = scipy.linalg.solve_continuous_lyapunov(dd.drift, -dd.diffusion)
    return (sigma + sigma.T) / 2.0


@pytest.mark.parametrize("eps, heating", [(0.1, 0.0), (0.5, 0.0), (0.9, 0.0), (0.5, 0.03)])
def test_steady_covariance_matches_scipy_lyapunov(eps, heating):
    dd = model_from_lindblad(nopa_model(eps, heating))
    assert np.abs(steady_covariance(dd).cov - lyapunov_reference(dd)).max() <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [5e-324, 1e-300, 1e300])
def test_steady_covariance_of_an_undriven_model_is_the_vacuum_at_any_rate(gamma):
    """The scaling to unit drift does not overflow for a subnormal gamma."""
    cov = steady_covariance(model_from_lindblad(LindbladModel(gamma, 0.0, 0.0))).cov
    assert np.array_equal(cov, np.eye(4))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [
    LindbladModel(1e308, 0.5, 0.5),
    LindbladModel(1.0, 0.5, 0.5, heating_rate=1e308),
    LindbladModel(1e300, 1e10, 1e10),
], ids=["gamma", "heating", "gamma-N"])
def test_model_from_lindblad_refuses_a_diffusion_past_the_float_range(model):
    """The message names the rates and says that only their ratios matter, with no warning."""
    with pytest.raises(ValueError, match=r"diffusion .* overflows at gamma = .*ratios alone"):
        model_from_lindblad(model)


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_cascade_covariance_matches_scipy_lyapunov(ratio):
    dd = cascade_model(NopaParams(0.5, 1.0), gamma=1.0 / ratio)
    ref = lyapunov_reference(dd)
    assert np.abs(steady_covariance(dd).cov - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(modes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       margin=st.floats(0.05, 5.0), spread=st.floats(0.1, 10.0))
def test_steady_covariance_on_random_hurwitz_models(modes, seed, margin, spread):
    """Random stable drifts, with a diffusion large enough to be physical.

    ``D = B B^T + lam I`` with ``lam >= ||A Omega + Omega A^T||`` keeps
    ``D - i(A Omega + Omega A^T)`` positive, so the stationary covariance
    obeys the uncertainty bound.
    """
    rng = np.random.default_rng(seed)
    n = 2 * modes
    a = spread * rng.standard_normal((n, n))
    a -= (np.linalg.eigvals(a).real.max() + margin) * np.eye(n)
    omega = symplectic_form(modes)
    b = rng.standard_normal((n, n))
    lam = np.linalg.norm(a @ omega + omega @ a.T, 2)
    dd = DriftDiffusion(a, b @ b.T + lam * np.eye(n))
    sigma = steady_covariance(dd).cov
    ref = lyapunov_reference(dd)
    assert np.abs(sigma - ref).max() <= 1e-10 * np.abs(ref).max()
    resid = dd.drift @ sigma + sigma @ dd.drift.T + dd.diffusion
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(dd.diffusion)


@pytest.mark.parametrize("ratio", [10.0, 0.1, 3.3])
def test_steady_covariance_is_exactly_scale_free(ratio):
    """A and D scaled by a power of two give the same covariance, bit for bit."""
    dd = cascade_model(NopaParams(0.5, 1.0), gamma=1.0 / ratio)
    expected = steady_covariance(dd).cov
    for power in (-900, -7, 5, 900):
        scaled = DriftDiffusion(np.ldexp(dd.drift, power), np.ldexp(dd.diffusion, power))
        assert np.array_equal(steady_covariance(scaled).cov, expected)


def test_steady_covariance_raises_on_failed_residual(monkeypatch):
    dd = model_from_lindblad(nopa_model(0.5))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros_like(b))
    with pytest.raises(NumericalError, match="Lyapunov solve residual"):
        steady_covariance(dd)


def test_evolve_covariance_closed_form():
    """With drift -gamma*I the solution interpolates start and steady state."""
    dd = model_from_lindblad(nopa_model(0.4))
    vac = CovarianceState(np.eye(4))
    steady = steady_covariance(dd)
    for t in (0.0, 0.3, 1.0, 4.0):
        out = evolve_covariance(vac, dd, t)
        expected = steady.cov + np.exp(-2.0 * t) * (vac.cov - steady.cov)
        assert np.allclose(out.cov, expected, atol=1e-12)
    far = evolve_covariance(vac, dd, 40.0)
    assert np.allclose(far.cov, steady.cov, atol=1e-10)


def test_evolve_covariance_semigroup():
    dd = model_from_lindblad(nopa_model(0.25, heating=0.1))
    vac = CovarianceState(np.eye(4))
    step = evolve_covariance(evolve_covariance(vac, dd, 0.7), dd, 0.5)
    direct = evolve_covariance(vac, dd, 1.2)
    assert np.allclose(step.cov, direct.cov, atol=1e-12)


def test_evolve_covariance_rejects_negative_time():
    dd = model_from_lindblad(nopa_model(0.2))
    with pytest.raises(ValueError):
        evolve_covariance(CovarianceState(np.eye(4)), dd, -0.1)


@pytest.mark.parametrize("eps, heating", [(0.3, 0.0), (0.5, 0.05), (0.7, 0.02)])
@pytest.mark.parametrize("start", [1.0, 3.0], ids=["vacuum", "thermal"])
def test_evolve_covariance_matches_block_expm(eps, heating, start):
    """The closed form against the block-matrix exponential, out to t = 40."""
    dd = model_from_lindblad(nopa_model(eps, heating))
    initial = CovarianceState(start * np.eye(4))
    scale = np.abs(steady_covariance(dd).cov).max()
    for t in np.arange(0.0, 40.5, 0.5):
        got = evolve_covariance(initial, dd, t).cov
        assert np.array_equal(got, got.T)
        gap = np.abs(got - block_expm_covariance(initial.cov, dd, t)).max()
        assert gap <= 5e-12 * scale, t


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_evolve_covariance_rejects_a_drift_that_is_not_scalar(t):
    dd = cascade_model(NopaParams(0.5, 1.0), gamma=0.01)
    with pytest.raises(ValueError, match=r"drift -c I with c > 0"):
        evolve_covariance(CovarianceState(np.eye(8)), dd, t)


def test_heating_raises_epr_variance():
    clean = steady_covariance(model_from_lindblad(nopa_model(0.5)))
    noisy = steady_covariance(model_from_lindblad(nopa_model(0.5, heating=0.1)))
    assert epr_variances(noisy)[0] > epr_variances(clean)[0]


def test_cascade_drift_is_unidirectional():
    dd = cascade_model(NopaParams(0.5, 1.0), gamma=0.01)
    assert dd.drift.shape == (8, 8)
    # source block feels nothing from the atoms
    assert np.allclose(dd.drift[:4, 4:], 0.0)
    # atoms are driven by the source
    assert np.any(dd.drift[4:, :4] != 0.0)


def test_cascade_approaches_white_noise_limit():
    params = NopaParams(0.5, 1.0)
    n_p, m_p = effective_N_M(params)
    target = 2.0 * (1.0 + 2.0 * n_p - 2.0 * m_p)
    errors = []
    for ratio in (10.0, 100.0, 1000.0):
        sigma = steady_covariance(cascade_model(params, gamma=1.0 / ratio)).cov[4:, 4:]
        var_q = sigma[0, 0] + sigma[2, 2] + 2.0 * sigma[0, 2]
        errors.append(abs(var_q - target) / target)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.01


def test_epr_variances_vacuum():
    assert epr_variances(CovarianceState(np.eye(4))) == pytest.approx((2.0, 2.0))
