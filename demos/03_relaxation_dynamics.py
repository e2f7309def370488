"""Relaxation of the atoms from vacuum toward the entangled steady state.

Propagates the two-mode master equation from |0,0> and compares the
recorded moments with the closed-form relaxation laws

    <n_j>(t)    = N (1 - exp(-2 gamma t))
    <b1 b2>(t)  = -M (1 - exp(-2 gamma t))

so every point of the trajectory has an independent check.  The same
evolution run through the covariance-matrix route lands on identical
numbers.
"""

import numpy as np

from eprsim import (
    CovarianceState,
    FockBasis,
    LindbladModel,
    NopaParams,
    effective_N_M,
    evolve,
    evolve_covariance,
    model_from_lindblad,
    moments,
)

source = NopaParams(epsilon=0.3, kappa_c=1.0)
n_eff, m_eff = effective_N_M(source)
model = LindbladModel(gamma=1.0, n_param=n_eff, m_param=m_eff)

basis = FockBasis(n_max=14)
times = np.linspace(0.0, 4.0, 9)

m = moments(evolve(model, basis, times))
n1, b1b2 = m["n1"], m["b1b2"].real

relax = 1.0 - np.exp(-2.0 * model.gamma * times)
print("master-equation trajectory vs closed form:")
print(f"{'t':>6} {'<n1>':>10} {'N(1-e^-2gt)':>12} {'Re<b1b2>':>10} {'-M(1-e^-2gt)':>13}")
worst = 0.0
for k, t in enumerate(times):
    n_ref = n_eff * relax[k]
    c_ref = -m_eff * relax[k]
    worst = max(worst, abs(n1[k] - n_ref), abs(b1b2[k] - c_ref))
    print(f"{t:6.2f} {n1[k]:10.6f} {n_ref:12.6f} {b1b2[k]:10.6f} {c_ref:13.6f}")
print(f"worst deviation from closed form: {worst:.2e}")
print()

# Covariance route: vacuum has unit covariance, and the Gaussian
# evolution reproduces the same moments entry by entry.
dd = model_from_lindblad(model)
state = CovarianceState(np.eye(4))
print("covariance route at the final time:")
final = evolve_covariance(state, dd, float(times[-1]))
n_from_cov = (final.cov[0, 0] + final.cov[1, 1]) / 4.0 - 0.5
corr_from_cov = (final.cov[0, 2] - final.cov[1, 3]) / 4.0
print(f"  <n1>     Fock {n1[-1]:.9f}   Gaussian {n_from_cov:.9f}")
print(f"  Re<b1b2> Fock {b1b2[-1]:.9f}   Gaussian {corr_from_cov:.9f}")
