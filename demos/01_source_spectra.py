"""Squeezing spectra of the two-mode parametric source.

The source is characterised by a pump rate epsilon and a cavity decay
kappa_c.  Below threshold (epsilon < kappa_c) its output carries
broadband two-mode squeezing: the summed X quadratures and the
differenced Y quadratures both drop below the vacuum level 1, by the
same amount at every frequency, so ``squeezing_spectra`` returns one
array for both.  At zero frequency the noise reduction is
(kappa_c - epsilon)^2 / (kappa_c + epsilon)^2.
"""

import numpy as np

from eprsim import NopaParams, effective_N_M, squeeze_parameter, squeezing_spectra

p = NopaParams(epsilon=0.5, kappa_c=1.0)

n_eff, m_eff = effective_N_M(p)
r = squeeze_parameter(p)
print(f"pump at epsilon/kappa_c = {p.epsilon / p.kappa_c}")
print(f"  effective thermal number  N = {n_eff:.6f}")
print(f"  effective cross moment    M = {m_eff:.6f}")
print(f"  sqrt(N(N+1))                = {np.sqrt(n_eff * (n_eff + 1.0)):.6f}  (M matches: pure squeezing)")
print(f"  squeeze parameter         r = {r:.6f}  (exp(-2r) = {np.exp(-2 * r):.6f})")
print()

omega = np.linspace(0.0, 5.0, 11)
var = squeezing_spectra(p, omega)

print("spectrum (vacuum level = 1):")
print(f"{'omega/kappa':>12} {'Var(X1+X2) = Var(Y1-Y2)':>24}")
for w, v in zip(omega, var):
    print(f"{w:12.2f} {v:24.6f}")
print()

# The squeezing deepens as the pump approaches threshold, while the
# effective thermal occupation diverges.
print("approach to threshold:")
print(f"{'epsilon/kappa':>14} {'N':>12} {'exp(-2r)':>12}")
for eps in (0.2, 0.5, 0.8, 0.9, 0.95, 0.99):
    pk = NopaParams(epsilon=eps, kappa_c=1.0)
    nk, _ = effective_N_M(pk)
    print(f"{eps:14.2f} {nk:12.4f} {np.exp(-2 * squeeze_parameter(pk)):12.6f}")
