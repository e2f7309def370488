"""Experimental validity checks for the cavity-QED / trapped-atom scheme.

The effective motional coupling is a fourth-order process: a driving
laser (amplitude ``e_laser``, detuned by ``delta_big`` from the atomic
transition) and a cavity mode (field decay ``kappa_a``) exchange a
motional quantum through the Lamb-Dicke coupling ``eta_x * g0``, giving

    gamma_eff = (g0 * eta_x * e_laser / delta_big)**2 / kappa_a.

Whether the derivation of that rate — adiabatic elimination of both the
internal state and the cavity field — actually holds is a stack of
inequalities.  ``check_all`` evaluates every one of them as a ratio and
grades it pass / warn / fail against a configurable threshold: a "much
greater than" with ratio >= threshold passes, >= threshold/3 warns,
anything less fails.  One check (the absolute magnitude of gamma_eff)
is a plausibility band rather than an inequality and never fails, only
warns.  ``check_all`` returns the plain dict the CLI writes,
``{"gamma_eff", "c1", "checks"}`` with one ``{"name", "ratio",
"threshold", "verdict"}`` per check.  ``gamma_eff``, ``c1`` and every
ratio must be finite and every divisor nonzero: a quantity past the
float range, or a divisor that underflows to 0, raises
:class:`~eprsim.errors.NumericalError` naming it.

All rates are angular frequencies; ``t_decoherence`` is a plain time in
the inverse units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError

# Plausibility band for the derived rate: tens of kHz to ~1 MHz
# (ordinary frequency). Outside it the scheme is not wrong, just outside
# the regime the scheme was sized for, so the verdict is warn-only.
GAMMA_BAND_HZ = (1.0e4, 1.0e6)


@dataclass(frozen=True)
class ExperimentParams:
    """Physical parameters of one trap-cavity site plus the light source.

    g0            atom-cavity coupling
    kappa_a       atom-cavity field decay rate
    gamma_atom    atomic linewidth (FWHM)
    delta_big     laser-atom detuning
    eta_x         Lamb-Dicke parameter (dimensionless, in (0, 1))
    e_laser       drive amplitude
    nu_x          trap frequency (the cavity-laser detuning is locked
                  to nu_x by the resonance condition, so it is not a
                  free parameter)
    kappa_c       source-cavity decay rate
    t_decoherence motional decoherence timescale (time units)
    """

    g0: float
    kappa_a: float
    gamma_atom: float
    delta_big: float
    eta_x: float
    e_laser: float
    nu_x: float
    kappa_c: float
    t_decoherence: float

    def __post_init__(self):
        for name in ("g0", "kappa_a", "gamma_atom", "delta_big", "e_laser", "nu_x", "kappa_c",
                     "t_decoherence"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 < self.eta_x < 1:
            raise ValueError(f"eta_x must be in (0, 1), got {self.eta_x}")


def _quotient(name: str, num: float, den: float) -> float:
    """``num / den`` for the quantity ``name``, which must be a finite number.

    A float ``/`` overflows to inf silently and raises ZeroDivisionError on
    a divisor that underflowed to 0; both raise :class:`NumericalError` here.
    """
    value = num / den if den != 0 else math.inf
    if not math.isfinite(value):
        raise NumericalError(f"{name}: {num:.6g} / {den:.6g} is not a finite number")
    return value


def coupling_rate(p: ExperimentParams) -> float:
    """Effective motional coupling gamma_eff = (g0 eta_x E_L / Delta)^2 / kappa_a."""
    raman = p.g0 * p.eta_x * p.e_laser / p.delta_big
    try:
        square = raman ** 2
    except OverflowError:
        square = math.inf
    if not math.isfinite(square):
        raise NumericalError(f"gamma_eff overflows at g0 eta_x e_laser / delta_big = {raman:.6g}")
    return _quotient("gamma_eff", square, p.kappa_a)


def cooperativity(p: ExperimentParams) -> float:
    """Single-atom cooperativity C1 = g0^2 / (kappa_a * gamma_atom)."""
    try:
        g0_squared = p.g0**2
    except OverflowError:
        raise NumericalError(f"cooperativity: g0**2 overflows at g0 = {p.g0:.6g}") from None
    return _quotient("cooperativity", g0_squared, p.kappa_a * p.gamma_atom)


def _grade(ratio: float, threshold: float) -> str:
    if ratio >= threshold:
        return "pass"
    if ratio >= threshold / 3.0:
        return "warn"
    return "fail"


def check_all(p: ExperimentParams, r: float, ratio_threshold: float = 10.0) -> dict:
    """Evaluate every validity condition for squeeze parameter ``r``.

    The checks, in fixed order:

    * detuning_over_drive / _coupling / _trap — the large-detuning
      conditions Delta >> E_L, g0, nu_x (the resonance condition ties the
      cavity-laser detuning to nu_x, so it is covered by the trap check);
    * trap_over_cavity_decay — nu_x >> kappa_a (rotating-wave
      approximation at the trap frequency);
    * cavity_decay_over_raman_rate — kappa_a >> (g0 eta_x / Delta) E_L
      (adiabatic elimination of the cavity field);
    * nopa_bandwidth_over_gamma — kappa_c >> gamma_eff (white-noise
      treatment of the driving light);
    * lamb_dicke_refined — eta_x cosh(r) << 1, as a ratio
      1 / (eta_x cosh r); squeezed motion spreads the wavepacket, so the
      bare Lamb-Dicke parameter is not enough;
    * decoherence_budget — t_decoherence >> 1 / gamma_eff, as the ratio
      t_decoherence * gamma_eff;
    * cooperativity — C1 >> 1 (suppression of spontaneous emission),
      graded against the same threshold;
    * gamma_magnitude — gamma_eff inside the plausibility band
      (warn-only; the ratio reported is gamma_eff / (2 pi * 10 kHz)).
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not ratio_threshold > 0:  # a threshold <= 0 would pass every check
        raise ValueError(f"ratio_threshold must be > 0, got {ratio_threshold}")
    try:
        cosh_r = math.cosh(r)
    except OverflowError:
        raise NumericalError(f"lamb_dicke_refined: cosh(r) overflows at r = {r:.6g}") from None
    gamma_eff = coupling_rate(p)
    c1 = cooperativity(p)
    raman = (p.g0 * p.eta_x / p.delta_big) * p.e_laser
    thr = float(ratio_threshold)

    quotients = {
        "detuning_over_drive": (p.delta_big, p.e_laser),
        "detuning_over_coupling": (p.delta_big, p.g0),
        "detuning_over_trap": (p.delta_big, p.nu_x),
        "trap_over_cavity_decay": (p.nu_x, p.kappa_a),
        "cavity_decay_over_raman_rate": (p.kappa_a, raman),
        "nopa_bandwidth_over_gamma": (p.kappa_c, gamma_eff),
        "lamb_dicke_refined": (1.0, p.eta_x * cosh_r),
    }
    ratios = {name: _quotient(name, num, den) for name, (num, den) in quotients.items()}
    ratios["decoherence_budget"] = p.t_decoherence * gamma_eff
    if not math.isfinite(ratios["decoherence_budget"]):
        raise NumericalError("decoherence_budget: t_decoherence * gamma_eff overflows "
                             f"at gamma_eff = {gamma_eff:.6g}")
    ratios["cooperativity"] = c1
    checks = [{"name": name, "ratio": ratio, "threshold": thr, "verdict": _grade(ratio, thr)}
              for name, ratio in ratios.items()]
    gamma_ordinary = gamma_eff / (2.0 * math.pi)
    in_band = GAMMA_BAND_HZ[0] <= gamma_ordinary <= GAMMA_BAND_HZ[1]
    checks.append({"name": "gamma_magnitude", "ratio": gamma_ordinary / GAMMA_BAND_HZ[0],
                   "threshold": 1.0, "verdict": "pass" if in_band else "warn"})
    return {"gamma_eff": gamma_eff, "c1": c1, "checks": checks}
