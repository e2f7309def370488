"""CHSH test on the two-mode squeezed state with displaced-parity readout.

Each correlator E(alpha, beta) is the expectation of the product of
displaced parity operators, one per mode.  Scanning the squeeze
parameter r and the displacement magnitude J = |alpha|^2 locates a
violation of |B| <= 2.  Vacuum run through the identical settings stays
classical, so the violation is carried by the state and not by the
readout.  Both states are passed as pure states, so each correlator
contracts only the n_max diagonal kets |m, m> of the squeezed vacuum.
One chsh_value call takes every setting of a state's sweep, and lays the
state out and checks its truncation once for all of them.
"""

import numpy as np

from eprsim import BellSettings, FockBasis, TmssSpec, chsh_value, tmss_fock, vacuum_state


def sweep(state, j_values):
    settings = [BellSettings(alpha1=0.0, alpha2=d, beta1=0.0, beta2=d) for d in np.sqrt(j_values)]
    b_values = chsh_value(state, settings)
    best = int(np.argmax(b_values))
    return b_values[best], j_values[best]


basis = FockBasis(n_max=30)
j_values = np.linspace(0.02, 0.2, 10)

print("two-mode squeezed state:")
print(f"{'r':>6} {'max B':>10} {'at J':>8}")
overall = (0.0, None, None)
for r in (0.4, 0.6, 0.8, 1.0):
    b, j = sweep(tmss_fock(TmssSpec(r), basis), j_values)
    flag = "  <-- violation" if b > 2.0 else ""
    print(f"{r:6.2f} {b:10.6f} {j:8.3f}{flag}")
    if b > overall[0]:
        overall = (b, r, j)

print(f"\nbest: B = {overall[0]:.6f} at r = {overall[1]}, J = {overall[2]:.3f}")

b_vac, j_vac = sweep(vacuum_state(basis), j_values)
print(f"vacuum control: max B = {b_vac:.6f} at J = {j_vac:.3f}  (never exceeds 2)")
