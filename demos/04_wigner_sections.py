"""Two-dimensional sections through the four-dimensional Wigner function.

For the two-mode squeezed state the Wigner function is a Gaussian in
(q1, p1, q2, p2).  Cutting the p's to zero exposes the position
correlations (a ridge along q2 = -q1); cutting the q's exposes the
momentum correlations (a ridge along p2 = +p1).  Those two ridges
together are the EPR correlation pattern.

The same sections evaluated from a truncated density matrix via the
displaced-parity formula agree with the closed form; that route takes the
four quadrature axes and returns the values on their product grid.
"""

import numpy as np

from eprsim import FockBasis, TmssSpec, tmss_fock, wigner_analytic, wigner_from_density

SHADES = " .:-=+*#%@"


def ascii_map(w):
    top = w.max()
    rows = []
    for row in w:
        idx = np.minimum((row / top * (len(SHADES) - 1)).astype(int), len(SHADES) - 1)
        rows.append("".join(SHADES[i] for i in idx))
    return "\n".join(rows)


spec = TmssSpec(r=0.8)
axis = np.linspace(-2.0, 2.0, 33)
A, B = np.meshgrid(axis, axis, indexing="ij")
zero = np.zeros_like(A)

w_qq = wigner_analytic(spec, A, zero, B, zero)
w_pp = wigner_analytic(spec, zero, A, zero, B)

print(f"W(q1, 0, q2, 0) for r = {spec.r}: anti-correlated positions")
print(ascii_map(w_qq))
print()
print("W(0, p1, 0, p2): correlated momenta")
print(ascii_map(w_pp))
print()
print(f"peak value W(0,0,0,0) = {wigner_analytic(spec, 0.0, 0.0, 0.0, 0.0):.6f}"
      f"   (pure two-mode Gaussian peak 4/pi^2 = {4.0 / np.pi ** 2:.6f})")

# Cross-check against the density-matrix route on a small set of points.
basis = FockBasis(n_max=24)
rho = tmss_fock(spec, basis)
pts = np.array([-1.0, 0.0, 1.0])
filled = wigner_from_density(rho, pts, pts, pts, pts)

Q1, P1, Q2, P2 = np.meshgrid(pts, pts, pts, pts, indexing="ij")
reference = wigner_analytic(spec, Q1, P1, Q2, P2)
print(f"max |analytic - from density matrix| over a 3^4 grid: "
      f"{np.abs(filled - reference).max():.2e}")
