import numpy as np
import pytest

from eprsim import ExperimentParams, check_all, cooperativity, coupling_rate
from eprsim.feasibility import GAMMA_BAND_HZ

TWO_PI = 2.0 * np.pi

# A demanding but self-consistent operating point (rates in rad/s):
# 40 MHz coupling, 2 MHz cavity, 4 GHz detuning, 380 MHz drive.
BASE = dict(
    g0=TWO_PI * 4.0e7,
    kappa_a=TWO_PI * 2.0e6,
    gamma_atom=TWO_PI * 6.0e6,
    delta_big=TWO_PI * 4.0e9,
    eta_x=0.05,
    e_laser=TWO_PI * 3.8e8,
    nu_x=TWO_PI * 1.0e8,
    kappa_c=TWO_PI * 1.0e6,
    t_decoherence=1.0e-3,
)
R_OPERATING = np.log(3.0)


def params(**overrides):
    return ExperimentParams(**{**BASE, **overrides})


def verdict(report, name):
    """The verdict of the check called ``name``."""
    (found,) = [c["verdict"] for c in report["checks"] if c["name"] == name]
    return found


@pytest.mark.parametrize("field", sorted(BASE))
def test_positive_fields_required(field):
    with pytest.raises(ValueError, match=field):
        params(**{field: 0.0})


def test_lamb_dicke_parameter_range():
    with pytest.raises(ValueError):
        params(eta_x=1.0)
    with pytest.raises(ValueError):
        params(eta_x=-0.05)


def test_coupling_rate_formula():
    p = params()
    raman = p.g0 * p.eta_x * p.e_laser / p.delta_big
    assert coupling_rate(p) == pytest.approx(raman**2 / p.kappa_a, rel=1e-12)
    assert coupling_rate(p) == pytest.approx(TWO_PI * 1.805e4, rel=1e-9)


def test_coupling_rate_scaling_oracle():
    """g0 eta E_L / Delta = 0.1 kappa_a implies Gamma = 0.01 kappa_a."""
    kappa_a = TWO_PI * 1.0e6
    p = params(
        kappa_a=kappa_a,
        g0=TWO_PI * 1.0e7,
        eta_x=0.1,
        e_laser=TWO_PI * 1.0e8,
        delta_big=TWO_PI * 1.0e9,  # raman rate = 0.1 * kappa_a exactly
    )
    assert coupling_rate(p) == pytest.approx(0.01 * kappa_a, rel=1e-12)


def test_cooperativity_reference_value():
    gamma_atom = TWO_PI * 6.0e6
    kappa_a = TWO_PI * 2.0e6
    g0 = np.sqrt(70.0 * kappa_a * gamma_atom)
    p = params(g0=g0, kappa_a=kappa_a, gamma_atom=gamma_atom)
    assert cooperativity(p) == pytest.approx(70.0, rel=1e-12)


def test_check_all_names_and_count():
    report = check_all(params(), R_OPERATING)
    assert tuple(c["name"] for c in report["checks"]) == (
        "detuning_over_drive",
        "detuning_over_coupling",
        "detuning_over_trap",
        "trap_over_cavity_decay",
        "cavity_decay_over_raman_rate",
        "nopa_bandwidth_over_gamma",
        "lamb_dicke_refined",
        "decoherence_budget",
        "cooperativity",
        "gamma_magnitude",
    )


def test_reference_point_passes_everything():
    report = check_all(params(), R_OPERATING)
    for check in report["checks"]:
        assert check["verdict"] == "pass", f"{check['name']}: {check['ratio']}"
    assert report["c1"] == pytest.approx(400.0 / 3.0, rel=1e-12)
    assert report["gamma_eff"] == pytest.approx(TWO_PI * 1.805e4, rel=1e-9)


def test_selected_ratios():
    report = check_all(params(), R_OPERATING)
    assert verdict(report, "detuning_over_drive") == "pass"
    ratio = {c["name"]: c["ratio"] for c in report["checks"]}
    assert ratio["detuning_over_drive"] == pytest.approx(4.0e9 / 3.8e8, rel=1e-12)
    assert ratio["lamb_dicke_refined"] == pytest.approx(
        1.0 / (BASE["eta_x"] * np.cosh(R_OPERATING)), rel=1e-12
    )
    assert ratio["cooperativity"] == pytest.approx(report["c1"], rel=1e-12)


def test_warn_and_fail_grades():
    # doubling the drive halves Delta/E_L to ~5.3: above threshold/3, below threshold
    warn_report = check_all(params(e_laser=BASE["e_laser"] * 2.0), R_OPERATING)
    assert verdict(warn_report, "detuning_over_drive") == "warn"
    # eight times the drive pushes the ratio to ~1.3: below threshold/3
    fail_report = check_all(params(e_laser=BASE["e_laser"] * 8.0), R_OPERATING)
    assert verdict(fail_report, "detuning_over_drive") == "fail"


def test_threshold_is_configurable():
    report = check_all(params(), R_OPERATING, ratio_threshold=25.0)
    assert verdict(report, "detuning_over_drive") == "warn"  # ~10.5 < 25 but > 25/3


@pytest.mark.parametrize("threshold", [0.0, -5.0])
def test_threshold_must_be_positive(threshold):
    """A threshold <= 0 would grade every check ``pass``."""
    with pytest.raises(ValueError, match="ratio_threshold must be > 0"):
        check_all(params(), R_OPERATING, ratio_threshold=threshold)


def test_gamma_band_is_advisory_only():
    """Out-of-band coupling rates warn but never fail."""
    report = check_all(params(), R_OPERATING)
    assert verdict(report, "gamma_magnitude") == "pass"

    slow = check_all(params(delta_big=BASE["delta_big"] * 100.0), R_OPERATING)
    assert verdict(slow, "gamma_magnitude") == "warn"

    fast = check_all(params(e_laser=BASE["e_laser"] * 10.0), R_OPERATING)
    gamma_hz = fast["gamma_eff"] / TWO_PI
    assert gamma_hz > GAMMA_BAND_HZ[1]
    assert verdict(fast, "gamma_magnitude") == "warn"


def test_report_as_dict():
    """The report is the plain dict the CLI writes."""
    payload = check_all(params(), R_OPERATING)
    assert set(payload) == {"gamma_eff", "c1", "checks"}
    assert len(payload["checks"]) == 10
    first = payload["checks"][0]
    assert set(first) == {"name", "ratio", "threshold", "verdict"}


