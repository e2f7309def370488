"""Parameter feasibility scan for a concrete cavity-QED realisation.

Takes one candidate parameter set (rates in rad/s), derives the
effective drive rate and the single-atom cooperativity, and grades the
separation-of-scales conditions that the adiabatic modelling relies on.
Each check is a ratio with the same pass / warn / fail rule: pass at or
above the threshold, warn above a third of it, fail below that.
"""

import numpy as np

from eprsim import ExperimentParams, check_all

TWO_PI = 2.0 * np.pi

base = ExperimentParams(
    g0=TWO_PI * 4.0e7,          # atom-cavity coupling
    kappa_a=TWO_PI * 2.0e6,     # atom-cavity decay
    gamma_atom=TWO_PI * 6.0e6,  # atomic spontaneous emission
    delta_big=TWO_PI * 4.0e9,   # Raman detuning
    eta_x=0.05,                 # Lamb-Dicke parameter
    e_laser=TWO_PI * 3.8e8,     # classical drive
    nu_x=TWO_PI * 1.0e8,        # trap frequency
    kappa_c=TWO_PI * 1.0e6,     # source-cavity decay
    t_decoherence=1.0e-3,       # motional decoherence time
)
r_target = np.log(3.0)  # operating point of the squeezed drive


def show(report, title):
    print(title)
    print(f"  effective rate gamma_eff = 2pi x {report['gamma_eff'] / TWO_PI:.4g} Hz")
    print(f"  single-atom cooperativity C1 = {report['c1']:.4g}")
    print(f"  {'check':<28} {'ratio':>12} {'threshold':>10} verdict")
    for c in report["checks"]:
        print(f"  {c['name']:<28} {c['ratio']:12.4g} {c['threshold']:10.3g} {c['verdict']}")
    print()


show(check_all(base, r_target), "candidate parameter set:")

# Driving eight times harder buys rate but destroys the adiabatic
# hierarchy: the detuning no longer dominates the drive.
hot = ExperimentParams(
    g0=base.g0,
    kappa_a=base.kappa_a,
    gamma_atom=base.gamma_atom,
    delta_big=base.delta_big,
    eta_x=base.eta_x,
    e_laser=8.0 * base.e_laser,
    nu_x=base.nu_x,
    kappa_c=base.kappa_c,
    t_decoherence=base.t_decoherence,
)
show(check_all(hot, r_target), "same set with 8x the drive:")
