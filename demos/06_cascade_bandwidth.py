"""Finite source bandwidth and the white-noise limit.

The two-trap model treats the squeezed drive as white noise, which is
exact only when the source cavity is much faster than the atoms
(kappa_c >> gamma).  The full cascaded model keeps the source cavity in
the state vector, so the EPR variance picks up a finite-bandwidth
correction that dies off like gamma/kappa_c.
"""

import numpy as np

from eprsim import (
    CovarianceState,
    NopaParams,
    cascade_model,
    effective_N_M,
    epr_variances,
    steady_covariance,
)

# === finite-bandwidth correction ===

epsilon_over_kappa = 0.5
ratios = np.array([3.0, 10.0, 30.0, 100.0, 300.0, 1000.0])

n_eff, m_eff = effective_N_M(NopaParams(epsilon=epsilon_over_kappa, kappa_c=1.0))
white_noise = 2.0 * (1.0 + 2.0 * n_eff - 2.0 * m_eff)
print(f"white-noise limit of Var(Q1+Q2): {white_noise:.6f}")
print()
print(f"{'kappa/gamma':>12} {'Var(Q1+Q2)':>12} {'rel. error':>12}")

rel = []
for ratio in ratios:
    nopa = NopaParams(epsilon=epsilon_over_kappa * ratio, kappa_c=ratio)
    full = steady_covariance(cascade_model(nopa, gamma=1.0))
    # modes are ordered (source 1, source 2, atoms 1, atoms 2); keep the atoms
    atoms = CovarianceState(mean=full.mean[4:], cov=full.cov[4:, 4:])
    var_sum_q, _ = epr_variances(atoms)
    err = (var_sum_q - white_noise) / white_noise
    rel.append(err)
    print(f"{ratio:12.0f} {var_sum_q:12.6f} {err:12.3e}")

slope = np.polyfit(np.log(ratios), np.log(rel), 1)[0]
print(f"\nlog-log slope of the error vs kappa/gamma: {slope:+.3f}  (expected -1)")

# === many atoms per trap ===
#
# K atoms per site couple through their symmetric collective mode, which
# obeys the same equations with the single-atom rate scaled up.  The
# steady state is unchanged; only the approach gets faster.
print()
for k in (1, 10, 100):
    print(f"K = {k:4d} atoms per trap: effective rate = {k} x gamma")
