"""Steady state of two driven atoms: an entangled two-mode state.

Solves the two-mode master equation for the motional state that the
broadband squeezed drive prepares, then scores it: mean phonon numbers,
the EPR variance sum Var(Q1+Q2) + Var(P1-P2) (entangled when below 4),
fidelity with the ideal two-mode squeezed state, and purity.
"""

import numpy as np

from eprsim import (
    FockBasis,
    LindbladModel,
    NopaParams,
    TmssSpec,
    effective_N_M,
    epr_criterion,
    fidelity,
    log_negativity,
    model_from_lindblad,
    moments,
    squeeze_parameter,
    steady_covariance,
    steady_state,
    tmss_fock,
)


def main():
    source = NopaParams(epsilon=0.5, kappa_c=1.0)
    n_eff, m_eff = effective_N_M(source)
    r = squeeze_parameter(source)

    model = LindbladModel(gamma=1.0, n_param=n_eff, m_param=m_eff)
    basis = FockBasis(n_max=30)

    print(f"solving steady state on a {basis.dimension}-dimensional basis ...")
    rho = steady_state(model, basis)

    # moments and purity of the Fock-route state, with Q = b + b^dag, P = -i(b - b^dag)
    m = {key: values[0] for key, values in moments([rho]).items()}
    corr = m["b1b2"]
    value, entangled = epr_criterion(m["var_sum_q"], m["var_diff_p"])

    print(f"  mean phonons        <n1> = {m['n1']:.6f}   <n2> = {m['n2']:.6f}")
    print(f"  target N                 = {n_eff:.6f}")
    print(f"  cross correlation <b1b2> = {corr.real:+.6f}{corr.imag:+.6f}j   (target -M = {-m_eff:.6f})")
    print(f"  Var(Q1+Q2)               = {m['var_sum_q']:.6f}   Var(P1-P2) = {m['var_diff_p']:.6f}")
    print(f"  EPR value                = {value:.6f}  (< 4 means entangled: {entangled})")
    print(f"  ideal 2 exp(-2r) per var = {2.0 * np.exp(-2.0 * r):.6f}")
    print(f"  purity                   = {m['purity']:.6f}")

    target = tmss_fock(TmssSpec(r), basis)
    print(f"  fidelity with ideal TMSS = {fidelity(rho, target):.6f}")

    # The covariance-matrix route gives the same physics in closed form
    # and also yields the logarithmic negativity.
    cov = steady_covariance(model_from_lindblad(model))
    print(f"  log negativity (Gaussian) = {log_negativity(cov):.6f}   (2r/ln2 = {2.0 * r / np.log(2.0):.6f})")


if __name__ == "__main__":
    main()
