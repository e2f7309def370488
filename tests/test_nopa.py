import numpy as np
import pytest

from eprsim import (
    NopaParams,
    effective_N_M,
    squeeze_parameter,
    squeezing_spectra,
    transfer_function,
)


@pytest.mark.parametrize("eps,kappa", [(-0.1, 1.0), (1.0, 1.0), (1.5, 1.0), (0.5, 0.0), (0.5, -2.0)])
def test_params_rejected(eps, kappa):
    with pytest.raises(ValueError):
        NopaParams(eps, kappa)


def test_transfer_function_values():
    p = NopaParams(0.5, 1.0)
    t0 = transfer_function(p, 0.0)
    assert t0 == pytest.approx((1.0 - 0.5) / (1.0 + 0.5))
    # |T| is even in omega and approaches 1 far outside the cavity line.
    om = np.array([-3.0, -1.0, 1.0, 3.0, 50.0])
    tv = transfer_function(p, om)
    assert tv.shape == om.shape
    assert np.allclose(np.abs(tv[0]), np.abs(tv[3]))
    assert abs(tv[-1]) == pytest.approx(1.0, abs=1e-3)


def test_spectra_match_rational_form():
    p = NopaParams(0.3, 2.0)
    om = np.linspace(-5.0, 5.0, 41)
    var = squeezing_spectra(p, om)
    expected = ((2.0 - 0.3) ** 2 + om**2) / ((2.0 + 0.3) ** 2 + om**2)
    assert var.shape == om.shape
    assert np.allclose(var, expected, atol=1e-14)


def test_spectra_scale_invariance():
    """Only the ratios epsilon/kappa_c and omega/kappa_c matter."""
    a = squeezing_spectra(NopaParams(0.4, 1.0), np.array([0.7]))
    b = squeezing_spectra(NopaParams(0.4e6, 1.0e6), np.array([0.7e6]))
    assert a[0] == pytest.approx(b[0], rel=1e-12)


@pytest.mark.parametrize("eps", np.arange(0.05, 1.0, 0.05))
def test_nm_identities(eps):
    n, m = effective_N_M(NopaParams(eps, 1.0))
    assert m**2 == pytest.approx(n * (n + 1.0), rel=1e-12, abs=1e-12)
    gap = np.sqrt(n + 1.0) - np.sqrt(n)
    assert gap == pytest.approx((1.0 - eps) / (1.0 + eps), rel=1e-12)


def test_half_coupling_point():
    n, m = effective_N_M(NopaParams(0.5, 1.0))
    assert n == pytest.approx(16.0 / 9.0, rel=1e-14)
    assert m == pytest.approx(20.0 / 9.0, rel=1e-14)
    assert squeeze_parameter(NopaParams(0.5, 1.0)) == pytest.approx(np.log(3.0), rel=1e-14)


def test_squeeze_parameter_relations():
    for eps in (0.1, 0.35, 0.8):
        p = NopaParams(eps, 1.0)
        r = squeeze_parameter(p)
        n, _ = effective_N_M(p)
        assert r == pytest.approx(np.arcsinh(np.sqrt(n)), rel=1e-12)
        assert np.exp(-r) == pytest.approx((1.0 - eps) / (1.0 + eps), rel=1e-12)


def test_zero_drive_is_vacuum_output():
    n, m = effective_N_M(NopaParams(0.0, 1.0))
    assert n == 0.0
    assert m == 0.0
    assert squeeze_parameter(NopaParams(0.0, 1.0)) == 0.0
    var = squeezing_spectra(NopaParams(0.0, 1.0), np.array([0.0, 1.0]))
    assert np.allclose(var, 1.0)
